"""Parallel sweep orchestration: seed trees, process pools, result cache.

The paper's headline numbers (the Figure 6 phase transition, Table 1, the
stratification sweeps) are Monte-Carlo estimates over many independent
seeded runs.  Every run is a pure function of ``(config, seed, engine)``,
which makes the sweep loops embarrassingly parallel -- *if* the seeds of
the individual tasks are derived deterministically up front rather than
from shared mutable RNG state.  This module provides that throughput layer:

* :class:`SeedTree` -- a ``SeedSequence``-style deterministic seed
  hierarchy layered on the library's :func:`~repro.sim.random_source.
  derive_seed`, so a task's seed depends only on its position in the
  tree, never on scheduling order.
* :class:`SweepTask` -- one ``(function, kwargs)`` cell of a sweep; the
  function must be a module-level callable (picklable by reference) and
  the kwargs plain data, so the task can cross a ``spawn`` process
  boundary unchanged.
* :class:`SweepRunner` -- maps tasks onto a ``ProcessPoolExecutor`` with
  chunked submission and *ordered* aggregation.  ``workers=1`` runs the
  tasks inline; because every task owns its seed, ``workers=8`` returns
  bit-identical results in the same order.  ``workers`` and ``cache`` are
  its only settings; a dead worker's chunk is retried twice.
* :class:`ResultCache` -- an opt-in, content-addressed on-disk cache.
  The key is the SHA-256 of the canonical JSON of
  ``{function, config, seed, engine, version}``; numpy arrays round-trip
  bit-exactly (raw little-endian bytes, base64), so a warm re-run of a
  figure replays its points without touching the simulators, and a
  killed or interrupted sweep resumes when rerun with the same cache.

The experiment drivers (:mod:`repro.experiments.figures`,
:mod:`repro.stratification.phase_transition`) route their replication
loops through :func:`run_sweep`; ``repro-p2p --workers N`` threads the
pool width from the CLI.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.sim.random_source import RandomSource, derive_seed
from repro.version import __version__

__all__ = [
    "SeedTree",
    "SweepTask",
    "SweepTaskError",
    "ResultCache",
    "SweepRunner",
    "run_sweep",
    "canonical_json",
    "source_fingerprint",
    "CacheLike",
]


# What driver ``cache=`` parameters accept: nothing, a directory, or a
# ready-made ResultCache.  (Forward reference; ResultCache is defined below.)
CacheLike = Union[None, str, Path, "ResultCache"]


# -- deterministic seed trees ----------------------------------------------------


class SeedTree:
    """A deterministic hierarchy of seeds rooted at a master seed.

    Children are addressed by a path of labels; the derivation chains
    :func:`~repro.sim.random_source.derive_seed` (SHA-256 based), so

    * the same path always yields the same seed,
    * sibling seeds are effectively independent, and
    * a child seed feeds straight into :class:`~repro.sim.random_source.
      RandomSource`, whose *named streams* then form the next layer of
      the tree.

    Examples
    --------
    >>> tree = SeedTree(42)
    >>> tree.child("figure6", "sigma=0.2", "rep", 1) == \\
    ...     SeedTree(42).child("figure6", "sigma=0.2", "rep", 1)
    True
    """

    def __init__(self, root: int) -> None:
        self.root = int(root)

    def child(self, *path: object) -> int:
        """Derive the seed at ``path`` (labels are stringified)."""
        if not path:
            raise ValueError("a child needs at least one path component")
        seed = self.root
        for part in path:
            seed = derive_seed(seed, str(part))
        return seed

    def subtree(self, *path: object) -> "SeedTree":
        """The subtree rooted at ``path``."""
        return SeedTree(self.child(*path))

    def source(self, *path: object) -> RandomSource:
        """A :class:`RandomSource` rooted at ``path`` (the stream layer)."""
        return RandomSource(self.child(*path))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SeedTree(root={self.root})"


# -- canonical serialization -----------------------------------------------------


def _plain(value: Any) -> Any:
    """Reduce a config value to canonical plain data for key hashing."""
    if isinstance(value, Mapping):
        for key in value:
            # Stringifying non-str keys would let {1: a} and {"1": b} hash
            # to the same cache key; demand str keys instead of colliding.
            if not isinstance(key, str):
                raise TypeError(
                    f"config mappings need str keys for a cache key; got "
                    f"{type(key).__name__} key {key!r}"
                )
        return {k: _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = {k: _plain(v) for k, v in dataclasses.asdict(value).items()}
        payload["__dataclass__"] = type(value).__qualname__
        return payload
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for a cache key")


def canonical_json(payload: Mapping[str, Any]) -> str:
    """Canonical (sorted-key, compact) JSON of a config mapping."""
    return json.dumps(_plain(payload), sort_keys=True, separators=(",", ":"))


def _encode(value: Any) -> Any:
    """JSON-able encoding of a task result; numpy arrays stay bit-exact."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "biufc":
            # Object/string/datetime arrays do not round-trip through raw
            # bytes (tobytes() of an object array is pointer garbage);
            # reject them *before* anything is written to disk.
            raise TypeError(
                f"cannot cache an ndarray of dtype {value.dtype}; sweep "
                "results must use numeric/bool arrays"
            )
        contiguous = np.ascontiguousarray(value)
        return {
            "__nd__": base64.b64encode(contiguous.tobytes()).decode("ascii"),
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
        }
    if isinstance(value, dict):
        return {"__dict__": [[_encode(k), _encode(v)] for k, v in value.items()]}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"sweep results must be plain data (dict/list/tuple/scalars/ndarray); "
        f"got {type(value).__name__}"
    )


def _decode(value: Any) -> Any:
    """Inverse of :func:`_encode`."""
    if isinstance(value, dict):
        if "__nd__" in value:
            raw = base64.b64decode(value["__nd__"])
            array = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return array.reshape(value["shape"]).copy()
        if "__dict__" in value:
            return {_decode(k): _decode(v) for k, v in value["__dict__"]}
        if "__tuple__" in value:
            return tuple(_decode(v) for v in value["__tuple__"])
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


# -- sweep tasks -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep: a module-level function plus plain kwargs.

    ``kwargs`` must fully determine the result (seed and engine included),
    so the task can be executed in any process -- or not at all, when the
    cache already holds its result.  ``label`` is a human-readable tag for
    logs and errors; it is *not* part of the cache key.
    """

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any]
    label: str = ""

    def __post_init__(self) -> None:
        qualname = getattr(self.fn, "__qualname__", "")
        if "<locals>" in qualname or getattr(self.fn, "__name__", "") == "<lambda>":
            raise TypeError(
                "SweepTask functions must be module-level (picklable by "
                f"reference); got {qualname or self.fn!r}"
            )

    def key_payload(self) -> Dict[str, Any]:
        """The cache-key fields: function, config, seed, engine, version."""
        kwargs = dict(self.kwargs)
        return {
            "function": f"{self.fn.__module__}.{self.fn.__qualname__}",
            "seed": kwargs.pop("seed", None),
            "engine": kwargs.pop("engine", None),
            "config": kwargs,
            "version": __version__,
        }


# -- on-disk result cache --------------------------------------------------------


def source_fingerprint(package: str = "repro") -> str:
    """A short content hash of the package's Python sources.

    The cache key's ``version`` field only changes when someone bumps
    ``repro.version``; during development the *code* changes far more
    often.  Folding this fingerprint into a cache (``extra_key``) makes
    stale replays impossible at the cost of a cold cache after any source
    edit -- the CLI does exactly that.
    """
    import importlib

    root = Path(next(iter(importlib.import_module(package).__path__)))
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class ResultCache:
    """Content-addressed on-disk cache of sweep-task results.

    Each entry is one JSON file named by the SHA-256 of the canonical key
    (sharded by the first two hex chars).  Writes go through a temporary
    file and :func:`os.replace`, so concurrent writers of the *same* key
    are harmless (last atomic rename wins with identical content) and a
    crashed run never leaves a truncated entry behind.

    ``extra_key`` is an opaque string folded into every entry's key --
    pass :func:`source_fingerprint` to invalidate the cache whenever the
    library sources change (not just the declared version).
    """

    def __init__(
        self, directory: Union[str, Path], *, extra_key: Optional[str] = None
    ) -> None:
        # The directory is created lazily on first write, so constructing a
        # cache (e.g. the CLI default) costs nothing until a result lands.
        self.directory = Path(directory)
        self.extra_key = extra_key
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def key_for(self, task: SweepTask) -> str:
        """The content hash addressing ``task``'s entry."""
        payload = task.key_payload()
        if self.extra_key is not None:
            payload["extra"] = self.extra_key
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, task: SweepTask) -> Tuple[bool, Any]:
        """Look up a task; returns ``(hit, value)``.

        A corrupt entry (truncated JSON, mangled array bytes, wrong
        shape) degrades to a miss *and* is quarantined: the file is
        atomically renamed to ``<key>.corrupt``, so the recompute can
        write a clean entry while the damaged bytes stay on disk for
        diagnosis instead of being silently overwritten.
        """
        path = self._path(self.key_for(task))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            value = _decode(payload["value"])
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            self._quarantine(path)
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt entry aside to ``<key>.corrupt`` (best effort)."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:  # pragma: no cover - e.g. permission error
            pass

    def put(self, task: SweepTask, value: Any) -> Any:
        """Store a result; returns the value as it will decode on a hit.

        Returning the decoded round-trip (rather than the raw value) is
        what guarantees cold and warm runs are byte-identical: both paths
        hand the caller the same decoded representation.
        """
        encoded = _encode(value)
        key = self.key_for(task)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"key": _plain(task.key_payload()), "value": encoded}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, path)
        self.writes += 1
        return _decode(encoded)


# -- the runner ------------------------------------------------------------------


def _rebuild_sweep_task_error(
    message: str, label: str, seed: Any, key: Optional[str], position: int
) -> "SweepTaskError":
    """Unpickle helper: rebuild a :class:`SweepTaskError` with its fields."""
    return SweepTaskError(message, label=label, seed=seed, key=key, position=position)


class SweepTaskError(RuntimeError):
    """A sweep task failed; carries *which* one.

    ``label`` is the task's human-readable tag, ``seed`` its kwargs seed
    and ``key`` the cache key (when a cache was configured) -- enough to
    rerun exactly the failing cell in isolation.  ``position`` is the
    task's index within the chunk that ran it, which is how the parent
    finds the task (labels need not be unique).  The original exception
    is chained as ``__cause__`` when the task ran inline; across a
    process boundary the chain does not survive pickling, so the cause's
    ``repr`` is folded into the message instead.
    """

    def __init__(
        self,
        message: str,
        *,
        label: str = "",
        seed: Any = None,
        key: Optional[str] = None,
        position: int = 0,
    ) -> None:
        super().__init__(message)
        self.label = label
        self.seed = seed
        self.key = key
        self.position = position

    def __reduce__(self):
        return _rebuild_sweep_task_error, (
            self.args[0], self.label, self.seed, self.key, self.position
        )


def _run_chunk(
    payload: Sequence[Tuple[Callable[..., Any], Dict[str, Any], str]]
) -> List[Any]:
    """Worker entry point: execute one chunk of (fn, kwargs, label) triples.

    A raising task is wrapped into a :class:`SweepTaskError` naming the
    task, so the parent learns which cell failed -- not just that *some*
    future raised.
    """
    out: List[Any] = []
    for position, (fn, kwargs, label) in enumerate(payload):
        try:
            out.append(fn(**kwargs))
        except Exception as exc:
            name = label or getattr(fn, "__qualname__", repr(fn))
            raise SweepTaskError(
                f"sweep task {name!r} (seed={kwargs.get('seed')!r}) raised "
                f"{exc!r}",
                label=label,
                seed=kwargs.get("seed"),
                position=position,
            ) from exc
    return out


# A chunk whose worker died is resubmitted to a freshly spawned pool up to
# _RETRIES times, sleeping _RETRY_BACKOFF * 2**(attempt - 1) seconds first.
_RETRIES = 2
_RETRY_BACKOFF = 0.5


class SweepRunner:
    """Map sweep tasks onto a process pool, deterministically.

    Parameters
    ----------
    workers:
        Pool width.  ``1`` (the default) runs tasks inline in submission
        order; ``N > 1`` fans them out over a ``spawn``
        ``ProcessPoolExecutor`` in chunks of about ``len(tasks) / (8 * N)``
        tasks (so small sweeps submit single tasks).  Results are
        aggregated in task order either way, and since every task carries
        its own seed the output is bit-identical for any ``workers``.
    cache:
        ``None`` (default, no caching), a directory path, or a
        :class:`ResultCache`.  Cached tasks are skipped entirely; fresh
        results are written back *as they complete*, so a killed or
        interrupted sweep resumes when rerun with the same cache.

    A chunk whose worker dies (an OOM kill, a SIGKILL) is resubmitted to a
    freshly spawned pool up to two times, with a 0.5 s doubling backoff,
    before the sweep gives up with a :class:`SweepTaskError`.  Retries
    rerun the same tasks with the same seeds, so a transient death still
    yields bit-identical results.  Exceptions *raised by the task
    function* are deterministic and never retried.
    """

    def __init__(self, workers: int = 1, cache: CacheLike = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.cache: Optional[ResultCache]
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)

    def map(self, tasks: Iterable[SweepTask]) -> List[Any]:
        """Execute every task; returns results in task order."""
        task_list = list(tasks)
        results: List[Any] = [None] * len(task_list)
        pending: List[int] = []
        for index, task in enumerate(task_list):
            hit, value = (False, None) if self.cache is None else self.cache.get(task)
            if hit:
                results[index] = value
            else:
                pending.append(index)

        def complete(position: int, value: Any) -> None:
            # Runs in the parent as each task result arrives: write the
            # cache entry immediately, so a killed sweep keeps it.
            index = pending[position]
            if self.cache is not None:
                value = self.cache.put(task_list[index], value)
            results[index] = value

        subset = [task_list[i] for i in pending]
        if self.workers == 1 or len(subset) <= 1:
            for position, task in enumerate(subset):
                complete(position, self._run_inline(task))
        else:
            self._map_parallel(subset, complete)
        return results

    def _run_inline(self, task: SweepTask) -> Any:
        """Run one task in-process, wrapping failures as a worker does."""
        try:
            (value,) = _run_chunk([(task.fn, dict(task.kwargs), task.label)])
        except SweepTaskError as exc:
            if self.cache is not None:
                exc.key = self.cache.key_for(task)
            raise
        return value

    def _map_parallel(
        self,
        tasks: Sequence[SweepTask],
        complete: Callable[[int, Any], None],
    ) -> None:
        """Chunked submission over a spawn pool, ordered completion.

        Workers can import :mod:`repro` even when the parent added
        ``src/`` to ``sys.path`` at runtime: ``spawn`` forwards the
        parent's ``sys.path`` in its process preparation data.

        Resilience: a chunk whose worker dies (``BrokenProcessPool``) is
        resubmitted -- up to ``_RETRIES`` times with deterministic
        exponential backoff -- to a *freshly spawned* pool (a broken pool
        is unusable).  Chunks that already finished are harvested first,
        so no completed work is recomputed; the retried tasks rerun with
        their original seeds, keeping results bit-identical.
        """
        workers = min(self.workers, len(tasks))
        # About eight chunks per worker (so small sweeps get chunk=1): task
        # durations vary across a sweep, and the tail skew of a coarse
        # chunk costs more than the per-submission pickle.
        chunk = max(1, len(tasks) // (workers * 8))
        bounds = [
            (lo, min(lo + chunk, len(tasks))) for lo in range(0, len(tasks), chunk)
        ]
        finished: Set[int] = set()
        attempts = [0] * len(bounds)
        context = multiprocessing.get_context("spawn")

        def harvest(futures: Dict[int, Any], skip: int = -1) -> None:
            """Collect every already-finished chunk before a respawn."""
            for cj, future in futures.items():
                if cj in finished or cj == skip:
                    continue
                if not future.done() or future.cancelled():
                    continue
                try:
                    values = future.result(timeout=0)
                except Exception:
                    continue  # its own turn will classify the failure
                lo, _hi = bounds[cj]
                for offset, value in enumerate(values):
                    complete(lo + offset, value)
                finished.add(cj)

        while len(finished) < len(bounds):
            remaining = [ci for ci in range(len(bounds)) if ci not in finished]
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(remaining)), mp_context=context
            )
            retry_delay = 0.0
            try:
                futures = {}
                for ci in remaining:
                    lo, hi = bounds[ci]
                    payload = [
                        (task.fn, dict(task.kwargs), task.label)
                        for task in tasks[lo:hi]
                    ]
                    futures[ci] = pool.submit(_run_chunk, payload)
                for ci in remaining:  # submission order == task order
                    lo, _hi = bounds[ci]
                    try:
                        values = futures[ci].result()
                    except SweepTaskError as exc:
                        # The task *function* raised: deterministic, no
                        # retry.  Attach the cache key now that we are
                        # back in the parent.
                        if self.cache is not None:
                            exc.key = self.cache.key_for(tasks[lo + exc.position])
                        raise
                    except BrokenProcessPool as exc:
                        harvest(futures, skip=ci)
                        attempts[ci] += 1
                        if attempts[ci] > _RETRIES:
                            first = tasks[lo]
                            name = first.label or first.fn.__qualname__
                            raise SweepTaskError(
                                f"sweep chunk starting at task {name!r} "
                                f"(seed={first.kwargs.get('seed')!r}) worker "
                                f"died {attempts[ci]} times; giving up",
                                label=first.label,
                                seed=first.kwargs.get("seed"),
                                key=(
                                    self.cache.key_for(first)
                                    if self.cache is not None
                                    else None
                                ),
                            ) from exc
                        retry_delay = _RETRY_BACKOFF * 2 ** (attempts[ci] - 1)
                        break  # respawn the pool for the survivors
                    for offset, value in enumerate(values):
                        complete(lo + offset, value)
                    finished.add(ci)
            except KeyboardInterrupt:
                # Graceful ^C: keep everything that already finished (the
                # cache callback runs in harvest), then re-raise.
                harvest(futures)
                raise
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
            if retry_delay > 0 and len(finished) < len(bounds):
                time.sleep(retry_delay)


def run_sweep(
    tasks: Iterable[SweepTask], *, workers: int = 1, cache: CacheLike = None
) -> List[Any]:
    """``SweepRunner(workers, cache).map(tasks)``; see :class:`SweepRunner`
    for worker-death retries and resuming a killed sweep from ``cache``."""
    return SweepRunner(workers=workers, cache=cache).map(tasks)
