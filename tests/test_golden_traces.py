"""Golden-trace regression suite: cross-version determinism, CI-enforced.

The engine-equivalence suites prove ``fast == reference`` *within* one
version of the code; they cannot catch a change that alters both engines
the same way (a reordered random draw, a tweaked float sequence, a new
default).  These tests replay small seeded simulations -- swarm scenarios,
observed swarms, matching runs and tiny sweeps of the experiment drivers
-- and diff their full serialized results against JSON traces committed
under ``tests/golden/``, so any drift in the deterministic contract
breaks CI loudly.

If a change *intentionally* alters the traces (e.g. a new random draw in
the hot path), regenerate and commit them:

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --regen-golden

then review the JSON diff like any other code change -- it is the exact
externally-visible behaviour shift.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro import experiments
from repro.bittorrent.swarm import SwarmConfig, SwarmResult, SwarmSimulator
from repro.bittorrent.telemetry import ObservedSwarm, ObserverConfig
from repro.core.dynamics import simulate_convergence

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# -- serialization (everything JSON-exact: ints, bools and IEEE doubles) --------


def serialize_swarm_result(result: SwarmResult) -> Dict:
    """Full swarm outcome as a JSON-stable dict (doubles round-trip exactly).

    The ``resilience`` key appears only when the run had a non-trivial
    policy, so every pre-resilience trace stays byte-identical.
    """
    data = {
        "completed": result.completed,
        "rounds_run": result.rounds_run,
        "arrivals": result.arrivals,
        "departures": result.departures,
        "collaboration_volume": [
            [a, b, float(v)] for (a, b), v in sorted(result.collaboration_volume.items())
        ],
        "tft_reciprocal_rounds": [
            [a, b, float(v)] for (a, b), v in sorted(result.tft_reciprocal_rounds.items())
        ],
        "peers": {
            str(pid): {
                "upload_kbps": float(peer.upload_kbps),
                "is_seed": peer.is_seed,
                "neighbors": sorted(peer.neighbors),
                "bitfield": sorted(peer.bitfield.held()),
                "downloaded_kbit": float(peer.downloaded_kbit),
                "uploaded_kbit": float(peer.uploaded_kbit),
                "partial_kbit": {
                    str(sender): float(credit)
                    for sender, credit in sorted(peer.partial_kbit.items())
                },
                "received_last_round": {
                    str(sender): float(volume)
                    for sender, volume in sorted(peer.received_last_round.items())
                },
                "completed_round": peer.completed_round,
                "arrival_round": peer.arrival_round,
                "departed_round": peer.departed_round,
                "behavior": peer.behavior,
                "locality_group": peer.locality_group,
            }
            for pid, peer in sorted(result.peers.items())
        },
    }
    if result.resilience is not None:
        stats = result.resilience
        data["resilience"] = {
            "replica_announces": list(stats.replica_announces),
            "failover_announces": stats.failover_announces,
            "pex_introductions": stats.pex_introductions,
            "pex_bootstraps": stats.pex_bootstraps,
            "evictions": stats.evictions,
            "purges": stats.purges,
        }
    return data


def serialize_observed(observed: ObservedSwarm) -> Dict:
    """A measurement campaign as a JSON-stable dict.

    Poll progress is an exact ratio of two small ints, so the doubles
    round-trip bit-for-bit through JSON like everything else here.
    """
    return {
        "rounds_observed": observed.rounds_observed,
        "scrapes": [
            [s.round, s.seeders, s.leechers, s.snatches] for s in observed.scrapes
        ],
        "poll_rounds": list(observed.poll_rounds),
        "timelines": {
            str(pid): [
                [sample.round, float(sample.progress), sorted(sample.partners)]
                for sample in samples
            ]
            for pid, samples in sorted(observed.timelines.items())
        },
        "reported_downloads": observed.reported_downloads(),
        "confirmed_downloads": {
            str(threshold): observed.confirmed_downloads(threshold)
            for threshold in (0.9, 0.98, 1.0)
        },
    }


def serialize_convergence(result) -> Dict:
    """Matching-layer trace: disorder trajectory + the final configuration."""
    times, values = result.trajectory.as_arrays()
    return {
        "trajectory_times": [float(t) for t in times],
        "trajectory_disorder": [float(v) for v in values],
        "initiatives": result.initiatives,
        "active_initiatives": result.active_initiatives,
        "converged": result.converged,
        "time_to_converge": (
            float(result.time_to_converge)
            if result.time_to_converge is not None
            else None
        ),
        "final_matching": [list(pair) for pair in sorted(result.final_matching.pairs())],
    }


def serialize_exact(value):
    """A driver's output as JSON that keeps every bit and every key order.

    Mappings become ``[key, value]`` lists, so their order is pinned too;
    floats become :meth:`float.hex` strings, because sweep curves can hold
    ``nan``, which JSON cannot spell and which never equals itself.
    """
    if isinstance(value, dict):
        return [[serialize_exact(k), serialize_exact(v)] for k, v in value.items()]
    if isinstance(value, np.ndarray):
        return {"dtype": value.dtype.str, "values": serialize_exact(value.tolist())}
    if isinstance(value, list):
        return [serialize_exact(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


# -- trace catalogue ------------------------------------------------------------

SWARM_TRACES = {
    "swarm_static": {
        "config": dict(
            leechers=10, seeds=1, piece_count=24, rounds=8,
            start_completion=0.3, announce_size=6,
        ),
        "scenario": "static",
        "seed": 101,
    },
    "swarm_poisson": {
        "config": dict(
            leechers=10, seeds=1, piece_count=24, rounds=10,
            start_completion=0.3, announce_size=6,
        ),
        "scenario": "poisson",
        "seed": 102,
    },
    "swarm_flashcrowd": {
        "config": dict(
            leechers=8, seeds=1, piece_count=20, rounds=10,
            start_completion=0.4, announce_size=5,
        ),
        "scenario": "flashcrowd",
        "seed": 103,
    },
    # Behavior-layer traces: the mix travels as a spec string so the spec
    # dict stays JSON-stable.
    "swarm_freerider": {
        "config": dict(
            leechers=10, seeds=1, piece_count=24, rounds=10,
            start_completion=0.3, announce_size=6,
            behaviors="free_rider:0.3,never_upload:0.1",
        ),
        "scenario": "poisson",
        "seed": 106,
    },
    "swarm_nat_flashcrowd": {
        "config": dict(
            leechers=8, seeds=1, piece_count=20, rounds=10,
            start_completion=0.4, announce_size=5,
            behaviors="nat_limited:0.4,locality_biased:0.3,groups:3",
        ),
        "scenario": "flashcrowd",
        "seed": 107,
    },
    # Fault traces: slow configs (low seed bandwidth, many pieces) so the
    # fault windows open while the swarm is still mid-download.
    "swarm_tracker_outage": {
        "config": dict(
            leechers=10, seeds=1, piece_count=60, rounds=14,
            start_completion=0.3, announce_size=6,
            seed_upload_kbps=300.0, faults="outage:3+4,loss:0.05",
        ),
        "scenario": "poisson",
        "seed": 108,
    },
    "swarm_partition_crash": {
        "config": dict(
            leechers=8, seeds=1, piece_count=60, rounds=14,
            start_completion=0.4, announce_size=5,
            seed_upload_kbps=300.0, faults="partition:2+5/2,crash:3@4~4",
        ),
        "scenario": "flashcrowd",
        "seed": 109,
    },
    # Resilience traces: the policy travels as a preset string.  Failover
    # pins the replica-targeted announce walk; the PEX trace blacks out
    # every replica so gossip, bootstrap, eviction and purge all land in
    # the trace (the crash victims never rejoin).
    "swarm_failover": {
        "config": dict(
            leechers=10, seeds=1, piece_count=60, rounds=14,
            start_completion=0.3, announce_size=6,
            seed_upload_kbps=300.0, faults="outage:4+3,outage:8+2/1",
            resilience="failover",
        ),
        "scenario": "poisson",
        "seed": 110,
    },
    "swarm_pex_outage": {
        "config": dict(
            leechers=10, seeds=1, piece_count=60, rounds=14,
            start_completion=0.3, announce_size=6,
            seed_upload_kbps=300.0, faults="outage:5+4/all,crash:4@3",
            resilience="full",
        ),
        "scenario": "poisson",
        "seed": 111,
    },
}

TELEMETRY_TRACES = {
    "telemetry_poisson": {
        "config": dict(
            leechers=10, seeds=1, piece_count=24, rounds=12,
            start_completion=0.3, announce_size=6,
        ),
        "scenario": "poisson",
        "seed": 104,
        "observer": dict(
            scrape_interval=2, poll_interval=2, poll_budget=5,
            confirm_threshold=0.98,
        ),
    },
    "telemetry_flashcrowd": {
        "config": dict(
            leechers=8, seeds=1, piece_count=20, rounds=12,
            start_completion=0.4, announce_size=5,
        ),
        "scenario": "flashcrowd",
        "seed": 105,
        "observer": dict(
            scrape_interval=1, poll_interval=3, poll_budget=4,
            confirm_threshold=0.98,
        ),
    },
}

MATCHING_TRACES = {
    "matching_best_mate": dict(n=30, expected_degree=8.0, seed=201, max_base_units=20.0),
    "matching_two_slots": dict(n=24, expected_degree=6.0, slots=2, seed=202, max_base_units=20.0),
    "matching_random_strategy": dict(
        n=20, expected_degree=10.0, strategy="random", seed=203, max_base_units=15.0
    ),
}

# Experiment-layer traces: tiny runs of the swarm sweep drivers, under
# Poisson churn, a short tracker outage and crashes so that every curve
# moves (the behavior sweep has no scenario, so it gets more pieces to
# keep its static swarm busy).  Sequences are lists so the spec
# round-trips through JSON unchanged.
_TINY_SWARM = dict(leechers=12, piece_count=150, rounds=15)

EXPERIMENT_TRACES = {
    "experiment_swarm": {
        "driver": "swarm_stratification_experiment",
        "kwargs": dict(
            _TINY_SWARM, seed=301, scenario="poisson", observe=True,
            scrape_interval=2, behavior_mix="free_rider:0.2",
            faults="outage:4+3", resilience="full", repetitions=2,
        ),
    },
    "experiment_swarm_single": {
        "driver": "swarm_stratification_experiment",
        "kwargs": dict(_TINY_SWARM, seed=302, scenario="poisson"),
    },
    "experiment_behavior": {
        "driver": "behavior_sweep_experiment",
        "kwargs": dict(
            _TINY_SWARM, seed=303, piece_count=300, fractions=[0.0, 0.25],
            repetitions=2,
        ),
    },
    "experiment_fault": {
        "driver": "fault_sweep_experiment",
        "kwargs": dict(
            _TINY_SWARM, seed=304, outages=[0, 3], outage_start=4,
            extra_faults="loss:0.05", repetitions=2,
        ),
    },
    "experiment_resilience": {
        "driver": "resilience_sweep_experiment",
        "kwargs": dict(
            _TINY_SWARM, seed=305, levels=["off", "full"], outages=[0, 3],
            outage_start=4, extra_faults="crash:2@6", repetitions=2,
        ),
    },
    "experiment_telemetry": {
        "driver": "telemetry_experiment",
        "kwargs": dict(_TINY_SWARM, seed=306, poll_budget=6),
    },
}


def compute_swarm_trace(name: str) -> Dict:
    spec = SWARM_TRACES[name]
    results = {}
    for engine in ("reference", "fast"):
        config = SwarmConfig(**spec["config"])
        simulator = SwarmSimulator(
            config, seed=spec["seed"], engine=engine, scenario=spec["scenario"]
        )
        results[engine] = serialize_swarm_result(simulator.run())
    assert results["reference"] == results["fast"], (
        f"engines diverged while tracing {name}"
    )
    return {"kind": "swarm", "spec": {**spec, "name": name}, "result": results["reference"]}


def compute_telemetry_trace(name: str) -> Dict:
    spec = TELEMETRY_TRACES[name]
    swarms = {}
    campaigns = {}
    for engine in ("reference", "fast"):
        config = SwarmConfig(**spec["config"])
        result = SwarmSimulator(
            config,
            seed=spec["seed"],
            engine=engine,
            scenario=spec["scenario"],
            observer=ObserverConfig(**spec["observer"]),
        ).run()
        swarms[engine] = serialize_swarm_result(result)
        campaigns[engine] = serialize_observed(result.observed)
    assert swarms["reference"] == swarms["fast"], (
        f"engines diverged while tracing {name}"
    )
    assert campaigns["reference"] == campaigns["fast"], (
        f"observed records diverged while tracing {name}"
    )
    return {
        "kind": "telemetry",
        "spec": {**spec, "name": name},
        "result": {"swarm": swarms["reference"], "observed": campaigns["reference"]},
    }


def compute_matching_trace(name: str) -> Dict:
    spec = MATCHING_TRACES[name]
    results = {
        engine: serialize_convergence(simulate_convergence(**spec, engine=engine))
        for engine in ("reference", "fast")
    }
    assert results["reference"] == results["fast"], (
        f"engines diverged while tracing {name}"
    )
    return {"kind": "matching", "spec": {**spec, "name": name}, "result": results["reference"]}


def compute_experiment_trace(name: str) -> Dict:
    spec = EXPERIMENT_TRACES[name]
    driver = getattr(experiments, spec["driver"])
    results = {
        engine: serialize_exact(driver(**spec["kwargs"], engine=engine))
        for engine in ("reference", "fast")
    }
    assert results["reference"] == results["fast"], (
        f"engines diverged while tracing {name}"
    )
    return {"kind": "experiment", "spec": {**spec, "name": name}, "result": results["reference"]}


# -- the tests ------------------------------------------------------------------


def check_golden(name: str, trace: Dict, regen: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if regen:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(trace, indent=1, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"golden trace {path.name} is missing; run pytest "
        f"tests/test_golden_traces.py --regen-golden and commit it"
    )
    stored = json.loads(path.read_text())
    assert trace["spec"] == stored["spec"], (
        f"{name}: trace spec changed; regenerate the golden file "
        f"(--regen-golden) and review the diff"
    )
    assert trace["result"] == stored["result"], (
        f"{name}: deterministic output drifted from the committed golden "
        f"trace -- if intentional, regenerate with --regen-golden and "
        f"commit the JSON diff"
    )


@pytest.mark.parametrize("name", sorted(SWARM_TRACES))
def test_swarm_golden_trace(name, regen_golden):
    check_golden(name, compute_swarm_trace(name), regen_golden)


@pytest.mark.parametrize("name", sorted(TELEMETRY_TRACES))
def test_telemetry_golden_trace(name, regen_golden):
    check_golden(name, compute_telemetry_trace(name), regen_golden)


@pytest.mark.parametrize("name", sorted(MATCHING_TRACES))
def test_matching_golden_trace(name, regen_golden):
    check_golden(name, compute_matching_trace(name), regen_golden)


@pytest.mark.parametrize("name", sorted(EXPERIMENT_TRACES))
def test_experiment_golden_trace(name, regen_golden):
    check_golden(name, compute_experiment_trace(name), regen_golden)


def test_golden_files_have_no_strays():
    """Every committed golden file corresponds to a trace in the catalogue."""
    known = (
        set(SWARM_TRACES) | set(TELEMETRY_TRACES) | set(MATCHING_TRACES)
        | set(EXPERIMENT_TRACES)
    )
    for path in GOLDEN_DIR.glob("*.json"):
        assert path.stem in known, f"stray golden trace {path.name}"
