"""Parallel sweep orchestration: determinism, caching, CLI threading.

The contracts under test, from ``src/repro/sim/parallel.py``:

* ``workers=N`` produces bit-identical results to ``workers=1`` for every
  rewired sweep driver (every task owns its seed, so scheduling cannot
  perturb a single draw);
* a warm cache replays results bit-identically to the cold run, and the
  cache key changes whenever config, seed, engine or library version
  change;
* the CLI threads ``--workers`` / ``--no-cache`` / ``--cache-dir`` /
  ``--profile`` into the drivers that accept them.

Pool-backed tests use ``workers=2`` to keep tier-1 wall-clock low; the
slow-marked hypothesis property exercises ``workers=4`` across the
figure1 / figure6 / swarm sweep families.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.experiments.figures import (
    figure1_convergence,
    figure6_phase_transition,
    swarm_stratification_experiment,
    table1_clustering,
)
from repro.sim import parallel as parallel_module
from repro.sim.parallel import (
    ResultCache,
    SeedTree,
    SweepRunner,
    SweepTask,
    SweepTaskError,
    canonical_json,
    run_sweep,
)
from repro.sim.random_source import RandomSource


def _echo_point(value: int, seed: int, engine: str = "reference") -> dict:
    """A trivial module-level task function (picklable, deterministic)."""
    return {"value": value * 2, "seed": seed, "engine": engine}


def _explode_on_three(value: int, seed: int) -> dict:
    """Deterministic task failure: value 3 always raises."""
    if value == 3:
        raise ValueError(f"boom value={value}")
    return {"value": value * 2, "seed": seed}


def _kill_worker_once(value: int, seed: int, sentinel: str) -> dict:
    """SIGKILL the hosting worker the first time the sentinel is absent.

    Models an OOM-killed / crashed worker: the pool breaks, the retried
    task (sentinel now present) succeeds with the same deterministic
    output.
    """
    if value == 3:
        path = Path(sentinel)
        if not path.exists():
            try:
                path.write_text("died once")
            except OSError:
                pass  # unwritable sentinel: the worker dies on every attempt
            os.kill(os.getpid(), signal.SIGKILL)
    return {"value": value * 2, "seed": seed}


def _interrupt_once(value: int, seed: int, sentinel: str) -> dict:
    """Raise KeyboardInterrupt (a ^C) the first time value 3 is reached."""
    if value == 3:
        path = Path(sentinel)
        if not path.exists():
            path.write_text("interrupted once")
            raise KeyboardInterrupt
    return {"value": value * 2, "seed": seed}


def _series_equal(a: dict, b: dict) -> bool:
    """Deep equality for {label: {metric: ndarray}} series dicts."""
    if a.keys() != b.keys():
        return False
    for label in a:
        if a[label].keys() != b[label].keys():
            return False
        for metric in a[label]:
            if not np.array_equal(
                np.asarray(a[label][metric]),
                np.asarray(b[label][metric]),
                equal_nan=True,
            ):
                return False
    return True


class TestSeedTree:
    def test_same_path_same_seed(self):
        assert SeedTree(7).child("a", 1) == SeedTree(7).child("a", 1)

    def test_sibling_and_root_independence(self):
        tree = SeedTree(7)
        seeds = {tree.child("a"), tree.child("b"), tree.child("a", 0), SeedTree(8).child("a")}
        assert len(seeds) == 4

    def test_subtree_matches_full_path(self):
        tree = SeedTree(3)
        assert tree.subtree("x").child("y") == tree.child("x", "y")

    def test_source_layers_onto_named_streams(self):
        tree = SeedTree(11)
        direct = RandomSource(tree.child("rep", 2)).stream("graph").random()
        via_source = tree.source("rep", 2).stream("graph").random()
        assert direct == via_source

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            SeedTree(0).child()


class TestCanonicalization:
    def test_key_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_numpy_scalars_normalize(self):
        assert canonical_json({"x": np.int64(3), "y": np.float64(0.5)}) == canonical_json(
            {"x": 3, "y": 0.5}
        )

    def test_dataclasses_are_tagged(self):
        from repro.bittorrent.scenarios import ScenarioSchedule

        payload = canonical_json(
            {"scenario": ScenarioSchedule(arrivals="poisson", arrival_rate=1.0)}
        )
        assert "__dataclass__" in payload and "ScenarioSchedule" in payload

    def test_uncanonicalizable_value_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_non_string_mapping_keys_rejected(self):
        # {1: ...} and {"1": ...} must not collapse to one cache key.
        with pytest.raises(TypeError, match="str keys"):
            canonical_json({"nested": {1: "a"}})


class TestResultCacheRoundTrip:
    def _task(self, **overrides) -> SweepTask:
        kwargs = dict(value=21, seed=5, engine="reference")
        kwargs.update(overrides)
        return SweepTask(_echo_point, kwargs)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        rng = np.random.default_rng(0)
        value = {
            "floats": rng.random(64),
            "ints": np.arange(5, dtype=np.int32),
            "nan": np.asarray([np.nan, 1.5]),
            "nested": {"t": (1, 2.5, None), "flag": True},
            "plain": 0.1 + 0.2,
        }
        task = self._task()
        stored = cache.put(task, value)
        hit, loaded = cache.get(task)
        assert hit
        for out in (stored, loaded):
            assert out["floats"].dtype == np.float64
            assert np.array_equal(out["floats"], value["floats"])
            assert out["ints"].dtype == np.int32
            assert np.array_equal(out["ints"], value["ints"])
            assert np.array_equal(out["nan"], value["nan"], equal_nan=True)
            assert out["nested"] == {"t": (1, 2.5, None), "flag": True}
            assert out["plain"] == value["plain"]

    def test_miss_then_hit_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._task()
        hit, _ = cache.get(task)
        assert not hit and cache.misses == 1
        cache.put(task, {"value": 42})
        hit, _ = cache.get(task)
        assert hit and cache.hits == 1 and cache.writes == 1

    def test_key_depends_on_config_seed_and_engine(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key_for(self._task())
        assert cache.key_for(self._task(value=22)) != base
        assert cache.key_for(self._task(seed=6)) != base
        assert cache.key_for(self._task(engine="fast")) != base
        assert cache.key_for(self._task()) == base

    def test_key_depends_on_library_version(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        base = cache.key_for(self._task())
        monkeypatch.setattr(parallel_module, "__version__", "999.0.0")
        assert cache.key_for(self._task()) != base

    def test_extra_key_partitions_the_cache(self, tmp_path):
        plain = ResultCache(tmp_path)
        fingerprinted = ResultCache(tmp_path, extra_key="abc123")
        task = self._task()
        assert plain.key_for(task) != fingerprinted.key_for(task)
        plain.put(task, {"value": 1})
        hit, _ = fingerprinted.get(task)
        assert not hit  # different sources, different entries

    def test_source_fingerprint_is_stable_and_short(self):
        from repro.sim.parallel import source_fingerprint

        a = source_fingerprint()
        assert a == source_fingerprint()
        assert len(a) == 16 and int(a, 16) >= 0

    def test_version_bump_invalidates_entries(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        task = self._task()
        cache.put(task, {"value": 42})
        monkeypatch.setattr(parallel_module, "__version__", "999.0.0")
        hit, _ = cache.get(task)
        assert not hit

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._task()
        cache.put(task, {"value": 42})
        path = cache._path(cache.key_for(task))
        path.write_text("{not json")
        hit, _ = cache.get(task)
        assert not hit

    def test_truncated_array_payload_is_a_miss(self, tmp_path):
        # Valid JSON whose base64 ndarray bytes were cut short (disk
        # corruption) must degrade to a miss, not crash the sweep.
        cache = ResultCache(tmp_path)
        task = self._task()
        cache.put(task, {"arr": np.arange(8, dtype=np.float64)})
        path = cache._path(cache.key_for(task))
        payload = json.loads(path.read_text())
        blob = payload["value"]["__dict__"][0][1]["__nd__"]
        payload["value"]["__dict__"][0][1]["__nd__"] = blob[: len(blob) // 2]
        path.write_text(json.dumps(payload))
        hit, _ = cache.get(task)
        assert not hit

    def test_object_dtype_rejected_before_write(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._task()
        with pytest.raises(TypeError, match="dtype"):
            cache.put(task, {"bad": np.asarray([1, "two"], dtype=object)})
        assert not any(cache.directory.rglob("*.json"))  # nothing persisted


class TestSweepRunner:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_rejects_unpicklable_functions(self):
        def local_fn(seed):
            return seed

        with pytest.raises(TypeError):
            SweepTask(local_fn, {"seed": 0})
        with pytest.raises(TypeError):
            SweepTask(lambda seed: seed, {"seed": 0})

    def test_serial_map_preserves_order(self):
        tasks = [SweepTask(_echo_point, dict(value=v, seed=v)) for v in range(6)]
        results = run_sweep(tasks)
        assert [r["value"] for r in results] == [0, 2, 4, 6, 8, 10]

    def test_cache_skips_recomputation(self, tmp_path):
        tasks = [SweepTask(_echo_point, dict(value=v, seed=v)) for v in range(4)]
        cold_cache = ResultCache(tmp_path)
        cold = run_sweep(tasks, cache=cold_cache)
        assert cold_cache.writes == 4
        warm_cache = ResultCache(tmp_path)
        warm = run_sweep(tasks, cache=warm_cache)
        assert warm_cache.hits == 4 and warm_cache.writes == 0
        assert cold == warm

    def test_partial_cache_mixes_hits_and_fresh_work(self, tmp_path):
        first = [SweepTask(_echo_point, dict(value=v, seed=v)) for v in range(2)]
        run_sweep(first, cache=tmp_path)
        extended = [SweepTask(_echo_point, dict(value=v, seed=v)) for v in range(4)]
        cache = ResultCache(tmp_path)
        results = run_sweep(extended, cache=cache)
        assert cache.hits == 2 and cache.writes == 2
        assert [r["value"] for r in results] == [0, 2, 4, 6]

    def test_pool_matches_serial_on_plain_tasks(self):
        # 40 tasks over 2 workers submit chunks of 2 (about 8 per worker).
        tasks = [SweepTask(_echo_point, dict(value=v, seed=v)) for v in range(40)]
        assert run_sweep(tasks) == run_sweep(tasks, workers=2)


class TestSweepRobustness:
    """Worker death, corrupt cache entries, interrupted sweeps."""

    def _tasks(self, fn=_echo_point, count=6, **extra):
        return [
            SweepTask(fn, dict(value=v, seed=v, **extra), label=f"cell{v}")
            for v in range(count)
        ]

    def test_inline_failure_names_the_task(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(SweepTaskError) as info:
            run_sweep(self._tasks(_explode_on_three), cache=cache)
        err = info.value
        assert err.label == "cell3" and err.seed == 3
        assert err.key is not None and "boom value=3" in str(err)
        assert isinstance(err.__cause__, ValueError)

    def test_pool_failure_names_the_task(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(SweepTaskError) as info:
            run_sweep(self._tasks(_explode_on_three), workers=2, cache=cache)
        err = info.value
        # The error crossed a process boundary: the cause repr is folded
        # into the message, the task identity survives as attributes.
        assert err.label == "cell3" and err.seed == 3
        assert err.key is not None and "boom value=3" in str(err)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_key_names_the_unlabelled_task(self, tmp_path, workers):
        # 40 tasks over 2 workers run in chunks of 2; task 1 (value 3)
        # raises second in its chunk, and no label tells it from task 0.
        tasks = [
            SweepTask(_explode_on_three, dict(value=v + 2, seed=v)) for v in range(40)
        ]
        cache = ResultCache(tmp_path)
        with pytest.raises(SweepTaskError) as info:
            run_sweep(tasks, workers=workers, cache=cache)
        assert info.value.seed == 1
        assert info.value.key == cache.key_for(tasks[1])

    def test_sweep_task_error_survives_pickling(self):
        import pickle

        err = SweepTaskError("msg", label="cell1", seed=9, key="abc", position=2)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, SweepTaskError)
        assert (clone.label, clone.seed, clone.key, clone.position) == (
            "cell1", 9, "abc", 2
        )
        assert str(clone) == "msg"

    def test_corrupt_entry_quarantined_to_dot_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = SweepTask(_echo_point, dict(value=1, seed=1))
        cache.put(task, {"value": 2})
        path = cache._path(cache.key_for(task))
        path.write_text("{truncated")
        hit, _ = cache.get(task)
        assert not hit
        quarantined = path.with_suffix(".corrupt")
        assert quarantined.exists()
        assert quarantined.read_text() == "{truncated"
        assert not path.exists()
        # The recompute writes a clean entry alongside the quarantined one.
        cache.put(task, {"value": 2})
        hit, value = cache.get(task)
        assert hit and value == {"value": 2}

    def test_missing_entry_not_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = SweepTask(_echo_point, dict(value=1, seed=1))
        hit, _ = cache.get(task)
        assert not hit
        assert not list(cache.directory.rglob("*.corrupt"))

    def test_worker_sigkill_respawns_and_matches_serial(self, tmp_path, monkeypatch):
        """A SIGKILLed worker breaks the pool; the respawn completes the
        sweep byte-identical to an uninterrupted workers=1 run."""
        monkeypatch.setattr(parallel_module, "_RETRY_BACKOFF", 0.0)
        sentinel = tmp_path / "died"
        tasks = self._tasks(_kill_worker_once, sentinel=str(sentinel))
        recovered = run_sweep(tasks, workers=2, cache=tmp_path / "cache")
        assert sentinel.exists()  # the kill really happened
        # Uninterrupted serial reference (sentinel present: no more kills).
        serial = run_sweep(tasks, workers=1, cache=tmp_path / "serial-cache")
        assert recovered == serial

    def test_worker_death_exhausts_retries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel_module, "_RETRIES", 1)
        monkeypatch.setattr(parallel_module, "_RETRY_BACKOFF", 0.0)
        always_dead = tmp_path / "nonexistent-dir" / "sentinel"
        tasks = self._tasks(_kill_worker_once, sentinel=str(always_dead))
        with pytest.raises(SweepTaskError, match="worker died"):
            run_sweep(tasks, workers=2)

    def test_keyboard_interrupt_checkpoints_and_resumes(self, tmp_path):
        """A ^C'd sweep keeps every finished task in the cache; rerunning
        replays exactly those and ends byte-identical to an uninterrupted
        run."""
        sentinel = tmp_path / "interrupted"
        tasks = self._tasks(_interrupt_once, sentinel=str(sentinel))
        cache_dir = tmp_path / "cache"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(tasks, cache=cache_dir)
        completed_before = len(list(cache_dir.rglob("*.json")))
        assert 0 < completed_before < len(tasks)  # tasks 0..2 landed
        # Resume: same sweep, same cache -- completed work replays.
        cache = ResultCache(cache_dir)
        resumed = run_sweep(tasks, cache=cache)
        assert cache.hits == completed_before
        assert cache.writes == len(tasks) - completed_before
        serial = run_sweep(tasks, workers=1, cache=tmp_path / "serial-cache")
        assert resumed == serial


class TestSweepDeterminism:
    """workers=1 vs workers=N vs cached -- bit-identical driver outputs."""

    def test_figure1_parallel_matches_serial(self):
        params = ((60, 10), (80, 12), (70, 15))
        serial = figure1_convergence(parameters=params, seed=3)
        pooled = figure1_convergence(parameters=params, seed=3, workers=2)
        assert _series_equal(serial, pooled)

    def test_figure6_parallel_and_cache_match_serial(self, tmp_path):
        kwargs = dict(sigmas=[0.0, 0.15, 0.4], n=500, repetitions=2, seed=9)
        serial = figure6_phase_transition(**kwargs)
        pooled = figure6_phase_transition(**kwargs, workers=2)
        cold = figure6_phase_transition(**kwargs, cache=tmp_path)
        warm = figure6_phase_transition(**kwargs, cache=tmp_path)
        assert (
            serial.to_records()
            == pooled.to_records()
            == cold.to_records()
            == warm.to_records()
        )

    def test_figure6_cache_actually_replays(self, tmp_path):
        kwargs = dict(sigmas=[0.0, 0.3], n=400, repetitions=2, seed=1)
        figure6_phase_transition(**kwargs, cache=tmp_path)
        cache = ResultCache(tmp_path)
        figure6_phase_transition(**kwargs, cache=cache)
        assert cache.hits == 4 and cache.writes == 0

    def test_figure6_cache_invalidates_on_config_change(self, tmp_path):
        figure6_phase_transition(
            sigmas=[0.0, 0.3], n=400, repetitions=2, seed=1, cache=tmp_path
        )
        cache = ResultCache(tmp_path)
        figure6_phase_transition(
            sigmas=[0.0, 0.3], n=450, repetitions=2, seed=1, cache=cache
        )
        assert cache.hits == 0 and cache.writes == 4

    def test_swarm_repetitions_parallel_matches_serial(self):
        kwargs = dict(leechers=12, rounds=10, piece_count=40, seed=5, repetitions=3)
        serial = swarm_stratification_experiment(**kwargs)
        pooled = swarm_stratification_experiment(**kwargs, workers=2)
        assert serial == pooled
        assert serial["repetitions"] == 3.0

    def test_swarm_single_repetition_keeps_historical_result(self):
        base = swarm_stratification_experiment(
            leechers=12, rounds=10, piece_count=40, seed=5
        )
        replicated = swarm_stratification_experiment(
            leechers=12, rounds=10, piece_count=40, seed=5, repetitions=1
        )
        assert base == replicated and "repetitions" not in base

    def test_integer_sigma_keeps_legacy_stream_names(self):
        """sigma is forwarded verbatim: f"slots-{1}-0" != f"slots-{1.0}-0".

        The pre-parallel serial loop named the slot stream with the
        caller's sigma value as-is, so an integer sigma must keep
        producing the integer-named stream (and a float sigma the float
        one) -- they draw different slots.
        """
        from repro.stratification.bvalues import rounded_normal_slots
        from repro.stratification.clustering import analyze_complete_matching
        from repro.stratification.phase_transition import (
            variable_matching_statistics,
        )

        for sigma in (1, 1.0):
            # The historical serial loop, inlined.
            source = RandomSource(7)
            rng = source.fresh_stream(f"slots-{sigma}-0")
            slots = rounded_normal_slots(300, 6.0, sigma, rng)
            expected = analyze_complete_matching(slots).mean_cluster_size
            point = variable_matching_statistics(
                300, 6.0, sigma, repetitions=1, seed=7
            )
            assert point.mean_cluster_size == float(expected), sigma

    def test_table1_parallel_matches_serial(self):
        serial = table1_clustering(b_values=(2, 3), n=400, repetitions=2, seed=0)
        pooled = table1_clustering(b_values=(2, 3), n=400, repetitions=2, seed=0, workers=2)
        assert serial.to_records() == pooled.to_records()

    @pytest.mark.slow
    @pytest.mark.equivalence
    @settings(max_examples=3, deadline=None)
    @given(
        family=st.sampled_from(["figure1", "figure6", "swarm"]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_workers4_property(self, family, seed):
        """workers=1 and workers=4 (and cached replays) are bit-identical."""
        import tempfile

        if family == "figure1":
            kwargs = dict(parameters=((50, 8), (60, 10)), seed=seed)
            serial = figure1_convergence(**kwargs)
            pooled = figure1_convergence(**kwargs, workers=4)
            assert _series_equal(serial, pooled)
        elif family == "figure6":
            kwargs = dict(sigmas=[0.0, 0.2, 0.6], n=300, repetitions=2, seed=seed)
            with tempfile.TemporaryDirectory() as tmp:
                serial = figure6_phase_transition(**kwargs)
                pooled = figure6_phase_transition(**kwargs, workers=4, cache=tmp)
                warm = figure6_phase_transition(**kwargs, cache=tmp)
            assert (
                serial.to_records() == pooled.to_records() == warm.to_records()
            )
        else:
            kwargs = dict(leechers=10, rounds=8, piece_count=30, seed=seed, repetitions=4)
            serial = swarm_stratification_experiment(**kwargs)
            pooled = swarm_stratification_experiment(**kwargs, workers=4)
            assert serial == pooled


class TestCliThreading:
    def test_parser_accepts_parallel_flags(self):
        args = cli.build_parser().parse_args(
            ["figure6", "--workers", "4", "--no-cache", "--profile"]
        )
        assert args.workers == 4 and args.no_cache and args.profile

    def test_workers_and_cache_threaded_to_drivers(self, tmp_path):
        seen = {}

        def fake_runner(*, seed=0, engine="reference", workers=1, cache=None):
            seen.update(seed=seed, engine=engine, workers=workers, cache=cache)
            return {"ok": 1.0}

        args = cli.build_parser().parse_args(
            ["figure6", "--workers", "3", "--cache-dir", str(tmp_path)]
        )
        cache = cli._build_cache(args)
        kwargs = cli._runner_kwargs(fake_runner, args, cache)
        fake_runner(**kwargs)
        assert seen["workers"] == 3
        # The CLI cache is source-fingerprinted so code edits can never
        # silently replay pre-edit results.
        assert isinstance(seen["cache"], ResultCache)
        assert seen["cache"].directory == tmp_path
        assert seen["cache"].extra_key is not None

    def test_no_cache_and_profile_disable_cache(self, tmp_path):
        def fake_runner(*, seed=0, workers=1, cache=None):
            return {}

        for flags in (["--no-cache"], ["--profile"]):
            args = cli.build_parser().parse_args(
                ["figure6", "--cache-dir", str(tmp_path)] + flags
            )
            assert cli._build_cache(args) is None
            kwargs = cli._runner_kwargs(fake_runner, args, None)
            assert "cache" not in kwargs
        # --profile also forces inline execution
        args = cli.build_parser().parse_args(["figure6", "--workers", "8", "--profile"])
        assert cli._runner_kwargs(fake_runner, args, None)["workers"] == 1

    def test_invalid_workers_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["figure4-5", "--workers", "0"])

    def test_profile_prints_hot_spots(self, capsys, tmp_path):
        code = cli.main(
            ["figure4-5", "--profile", "--cache-dir", str(tmp_path / "unused")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cumulative" in out and "Figures 4-5" in out
        assert not (tmp_path / "unused").exists()

    def test_cached_cli_run_repeats_output(self, capsys, tmp_path):
        argv = [
            "figure6",
            "--seed",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        # Shrink the experiment through the registry so the test stays fast.
        original = cli._EXPERIMENTS["figure6"]

        def small_figure6(*, seed=0, workers=1, cache=None):
            return figure6_phase_transition(
                sigmas=[0.0, 0.3],
                n=300,
                repetitions=1,
                seed=seed,
                workers=workers,
                cache=cache,
            )

        cli._EXPERIMENTS["figure6"] = small_figure6
        try:
            assert cli.main(argv) == 0
            cold = capsys.readouterr().out
            assert cli.main(argv) == 0
            warm = capsys.readouterr().out
        finally:
            cli._EXPERIMENTS["figure6"] = original
        assert cold == warm
        assert any(tmp_path.rglob("*.json"))
