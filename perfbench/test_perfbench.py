"""Tests of the benchmark itself: tiny workloads, layer tracing, failure modes."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import LAYERS, per_layer_names
from perfbench.run import END_TO_END, MIN_REPS, host_metadata, measure
from perfbench.tracer import Layer, LayerNotFound, Tracer, _resolve
from perfbench.workloads import WORKLOADS, SwarmWorkload

ROOT = Path(__file__).resolve().parent.parent

SWARM_ONLY_IDLE_WHEN_STATIC = (
    "bittorrent.fast.tracker.neighbor_sets_to_csr",
    "bittorrent.faults.FaultRuntime.dropped_pairs",
    "bittorrent.resilience.sample_pools",
    "bittorrent.behaviors.filter_contacts",
    "bittorrent.telemetry.SwarmObserver.observe_round",
)


def tiny(name: str):
    workload = WORKLOADS[name]
    if isinstance(workload, SwarmWorkload):
        return dataclasses.replace(workload, leechers=60, check_leechers=30, piece_count=40)
    return dataclasses.replace(workload, n=300, check_n=80, base_units=2.0)


def _calls(report, layer: str) -> float:
    return report["metrics"][f"{layer}.calls"]["value"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_reports_every_end_to_end_metric(name):
    report = measure(tiny(name), seed=3, seconds=0, trace=False)
    assert report["correct"], report["failures"]
    assert (report["attempted"], report["failed"]) == (1 + MIN_REPS, 0)
    assert {k: v["unit"] for k, v in report["metrics"].items()} == END_TO_END
    assert all(entry["value"] > 0 for entry in report["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_layer(name):
    report = measure(tiny(name), seed=3, seconds=0, trace=True)
    assert report["correct"], report["failures"]
    assert {k: v["unit"] for k, v in report["metrics"].items()} == per_layer_names()
    swarm_layers = [layer.name for layer in LAYERS if layer.name.startswith("bittorrent.")]
    if name == "matching-convergence":
        assert all(_calls(report, layer) == 0 for layer in swarm_layers)
        workload = tiny(name)
        assert _calls(
            report, "core.fast.dynamics.FastBestMateInitiative.take_initiative"
        ) == workload.n * workload.base_units
        assert report["metrics"]["matching.edges"]["value"] > 0
        return
    assert _calls(report, "core.fast.dynamics.FastConvergenceSimulator.run") == 0
    assert report["metrics"]["swarm.pieces_acquired"]["value"] > 0
    if name == "swarm-static":
        assert all(_calls(report, layer) == 0 for layer in SWARM_ONLY_IDLE_WHEN_STATIC)
        # A traced repetition builds once: one set-up announce per peer.
        workload = tiny(name)
        assert _calls(report, "bittorrent.fast.tracker.FastTracker.announce") == (
            workload.leechers + workload.seeds
        )
    else:
        assert all(_calls(report, layer) > 0 for layer in SWARM_ONLY_IDLE_WHEN_STATIC[1:])
    on_reference = name == "swarm-reference"
    assert (_calls(report, "bittorrent.piece_selection.RarestFirstSelector.select") > 0) == on_reference
    assert (_calls(report, "bittorrent.fast.swarm.FastSwarmSimulator.run") > 0) != on_reference


def _sites():
    return {
        (module, path): _resolve(module, path)[2]
        for layer in LAYERS
        for module, path in layer.sites
    }


def test_tracer_restores_every_original_and_leaves_results_unchanged():
    before = _sites()
    for name in ("swarm-churn", "matching-convergence"):
        workload = tiny(name)
        plain = workload.checksum(workload.run(workload.inputs(5)()))
        with Tracer(LAYERS):
            traced = workload.checksum(workload.run(workload.inputs(5)()))
        assert traced == plain
    with pytest.raises(RuntimeError):
        with Tracer(LAYERS):
            raise RuntimeError("a failing traced run still restores")
    after = _sites()
    assert all(after[site] is raw for site, raw in before.items())
    from repro.core.fast.dynamics import FastBestMateInitiative

    assert "take_initiative" not in vars(FastBestMateInitiative)


@pytest.mark.parametrize(
    "site",
    [
        ("repro.bittorrent.fast.bitfields", "BitfieldMatrix.renamed_method"),
        ("repro.bittorrent.fast.swarm", "renamed_function"),
        ("repro.no_such_module", "anything"),
    ],
)
def test_unresolvable_layer_fails_loudly_before_patching(site):
    from repro.bittorrent.fast.swarm import FastSwarmSimulator

    original = vars(FastSwarmSimulator)["run"]
    with pytest.raises(LayerNotFound):
        with Tracer([LAYERS[0], Layer("renamed", (site,))]):
            pass  # pragma: no cover - never entered
    assert vars(FastSwarmSimulator)["run"] is original


def _inner() -> None:
    sum(range(20_000))


def _outer() -> None:
    for _ in range(3):
        _inner()
    sum(range(20_000))


def test_self_time_excludes_wrapped_children():
    layers = [
        Layer("outer", ((__name__, "_outer"),)),
        Layer("inner", ((__name__, "_inner"),)),
    ]
    with Tracer(layers) as tracer:
        _outer()
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer.calls, inner.calls) == (1, 3)
    assert inner.self_s == inner.s
    assert 0 < outer.self_s < outer.s
    assert outer.self_s + inner.s <= outer.s + 1e-9


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_names()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert set(spec["paths"]) == {"perfbench"}


def test_host_metadata_names_the_host_and_seed():
    meta = host_metadata(11)
    assert meta["seed"] == 11 and meta["nproc"] >= 1
    assert {"cpu", "python", "numpy", "scipy", "git_sha", "git_dirty"} <= set(meta)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swarm-static",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
