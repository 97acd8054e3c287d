"""Reproducible random number streams.

All stochastic components in the library draw their randomness from a
:class:`RandomSource`.  A source owns a master seed and hands out *named*
child streams derived from it, so that

* two runs with the same master seed are bit-identical, and
* adding a new consumer of randomness (a new named stream) does not perturb
  the draws seen by existing consumers.

This mirrors the common practice in discrete-event simulators of assigning
one stream per stochastic activity (arrivals, peer selection, graph
generation, ...).
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, Optional, Sequence

import numpy as np

__all__ = ["RandomSource", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a deterministic 63-bit child seed from a master seed and a name.

    The derivation uses SHA-256 over ``"{master_seed}/{name}"`` so that child
    seeds are effectively independent and insensitive to the order in which
    streams are requested.
    """
    digest = hashlib.sha256(f"{master_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


class RandomSource:
    """A factory of named, reproducible random streams.

    Parameters
    ----------
    seed:
        Master seed.  ``None`` draws a fresh random master seed (the value is
        recorded in :attr:`seed` so the run can still be reproduced).
    strict_streams:
        When ``True``, :meth:`stream` / :meth:`fresh_stream` reject names
        not declared in the :mod:`repro.sim.streams` registry.  Off by
        default (the static linter is the primary enforcement; strict mode
        is for tests and new subsystems).

    Examples
    --------
    >>> source = RandomSource(seed=42)
    >>> rng = source.stream("graph")
    >>> float(rng.random()) == float(RandomSource(seed=42).stream("graph").random())
    True
    """

    def __init__(self, seed: Optional[int] = None, *, strict_streams: bool = False) -> None:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) & 0x7FFF_FFFF_FFFF_FFFF
        self._seed = int(seed)
        self._strict_streams = bool(strict_streams)
        self._streams: Dict[str, np.random.Generator] = {}

    def _check_name(self, name: str) -> None:
        if self._strict_streams:
            from repro.sim import streams

            if not streams.is_registered(name):
                raise KeyError(
                    f"stream name {name!r} is not declared in repro.sim.streams "
                    f"(strict_streams=True); register it or use an existing "
                    f"constant"
                )

    @property
    def seed(self) -> int:
        """The master seed of this source."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the named child stream, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so consumers share state within a run while remaining isolated from
        other streams.
        """
        if name not in self._streams:
            self._check_name(name)
            self._streams[name] = np.random.default_rng(derive_seed(self._seed, name))
        return self._streams[name]

    def fresh_stream(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name`` (does not reuse state)."""
        self._check_name(name)
        return np.random.default_rng(derive_seed(self._seed, name))

    def spawn(self, name: str) -> "RandomSource":
        """Create a child :class:`RandomSource` rooted at ``name``.

        Useful when a subsystem (e.g. one repetition of an experiment) should
        own a whole family of streams.
        """
        return RandomSource(derive_seed(self._seed, name))

    def choice(
        self, name: str, items: Sequence[Any], size: Optional[int] = None, *, replace: bool = True
    ) -> Any:
        """Convenience wrapper around ``stream(name).choice``.

        ``replace=False`` draws without replacement (tracker-announce-style
        subsets); previously the wrapper silently forced replacement.
        """
        rng = self.stream(name)
        return rng.choice(items, size=size, replace=replace)

    def shuffled(self, name: str, items: Iterable[Any]) -> list:
        """Return a shuffled copy of ``items`` using the named stream."""
        out = list(items)
        self.stream(name).shuffle(out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RandomSource(seed={self._seed}, streams={sorted(self._streams)})"
