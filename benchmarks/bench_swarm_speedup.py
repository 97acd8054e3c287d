"""Swarm-engine speedup gates: reference vs fast swarm simulator, five workloads.

Like ``bench_engine_scaling.py`` this tracks an implementation claim rather
than a paper figure: the packed-bit array swarm engine
(:mod:`repro.bittorrent.fast`) must beat the reference dictionary simulator
by at least 5x at 5,000 leechers.  Each row of ``GATES`` puts a different
layer on the timed path of a post-flash-crowd Tit-for-Tat swarm
(Saroiu-style bandwidths, rarest-first selection, 30% bootstrap):

* ``swarm_scaling`` -- the paper's fixed population;
* ``scenarios`` -- Poisson arrivals at 2% of the swarm per round with
  completers lingering two rounds, so every membership change re-freezes
  the fast engine's CSR edge arrays and the reference tracker re-sorts;
* ``behaviors`` -- free-riders, never-uploaders and NAT-limited peers, on
  the choker loop, the grant loop and the announce-time edge filter;
* ``faults`` -- transfer loss, a tracker outage, a mass crash with rejoin
  and a partition under Poisson churn (500 pieces keep the population
  mid-download, so leave-on-completion cannot drain the timed work);
* ``resilience`` -- tracker failover, PEX gossip and keepalive eviction
  against a blackout, a replica-targeted outage and a mass crash.  This
  row also gates graceful degradation: on the ``outage-midrun`` preset the
  full policy's mean completion round stays within 15% of the fault-free
  baseline.

Both engines run through the public ``engine=`` switch with the same seed
and are bit-identical (checksummed below), so the timed work is the same
swarm round for round -- the comparison is pure implementation cost.  The
full mode adds one fast-engine-only showcase row per gate (50k leechers
for ``swarm_scaling``, a 20k swarm for the others, absorbing a 10k-peer
flash crowd for ``scenarios``).

Run headlessly (writes one ``BENCH_<gate>.json`` per gate, in the repo
root unless ``--output`` names another directory):

    python benchmarks/bench_swarm_speedup.py --quick     # 1k + 5k
    python benchmarks/bench_swarm_speedup.py             # + the showcase rows

The exit status is non-zero when any gate fails, and every failed gate is
named.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

if __name__ == "__main__":  # headless invocation: make src/ importable
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

import numpy as np

from conftest import REPO_ROOT, write_benchmark_json
from repro.bittorrent.scenarios import ScenarioSchedule
from repro.bittorrent.swarm import SwarmConfig, SwarmSimulator, stratification_index

SEED = 2007  # ICDCS'07
TIMED_SIZES = (1_000, 5_000)  # both engines; full mode adds the showcase
REQUIRED_SPEEDUP_AT_5K = 5.0
GATE_SIZE = 5_000

# The per-run aggregates every gate checksums; gates add the counters of
# the layer they time.
BASE_CHECKSUM = (
    "completed",
    "rounds_run",
    "total_downloaded_kbit",
    "collaboration_pairs",
    "tft_pairs",
)
CHURN_CHECKSUM = BASE_CHECKSUM + ("arrivals", "departures")
FAULT_CHECKSUM = CHURN_CHECKSUM + ("total_uploaded_kbit",)
RESILIENCE_COUNTERS = (
    "replica_announces",
    "failover_announces",
    "pex_introductions",
    "pex_bootstraps",
    "evictions",
    "purges",
)

# 20% free-riders, plus never-uploaders and NAT-limited peers, so the
# behavior branches in the choker, the grant loop and the edge filter are
# all on the timed path.
BEHAVIOR_MIX = "free_rider:0.2,never_upload:0.05,nat_limited:0.1"
# Every fault type at once: 5% background loss all run, a tracker outage,
# a 50-peer crash that rejoins, and a two-way partition.
FAULTS = "loss:0.05,outage:3+2,crash:50@4~3,partition:6+3/2"
# One total blackout (PEX gossip carries the swarm), one replica-targeted
# window (failover absorbs it), and a mass crash with rejoin (keepalive 2
# evicts the victims and purges their stale registrations before they
# return), so every defense is on the timed path.
RESILIENCE_FAULTS = "outage:3+2/all,outage:6+3/1,crash:50@4~3"
POLICY = "trackers:3,pex:8,keepalive:2"

# Graceful-degradation section of the resilience gate: completion time and
# stratification index vs outage duration at each defense level (the
# outage windows target the preferred replica, so "off" suffers the full
# blackout while failover absorbs it), plus the outage-midrun gate against
# the fault-free baseline.
DEGRADATION_TOLERANCE = 0.15  # full-policy completion time vs fault-free
DEGRADATION_LEVELS = ("off", "failover", "full")
DEGRADATION_DURATIONS = (0, 4, 8, 16)
DEGRADATION_OUTAGE_START = 12
DEGRADATION_FAULTS = "outage-midrun"
DEGRADATION_LEECHERS = 300


def _churn_scenario(leechers: int) -> ScenarioSchedule:
    """Poisson joins at 2% of the swarm per round; completers linger 2 rounds."""
    return ScenarioSchedule(
        arrivals="poisson",
        arrival_rate=leechers / 50.0,
        departure="linger",
        linger_rounds=2,
    )


def _flashcrowd_scenario(leechers: int) -> ScenarioSchedule:
    """Half the swarm again arrives at once, mid-run."""
    return ScenarioSchedule(
        arrivals="flashcrowd",
        burst_round=3,
        burst_size=leechers // 2,
        departure="leave",
    )


def _poisson(leechers: int) -> str:
    """Preset churn, so outages queue real announces."""
    return "poisson"


def _static(leechers: int) -> None:
    """The paper's fixed population: no arrivals or departures."""
    return None


@dataclass(frozen=True)
class Gate:
    """One speedup gate: a swarm workload timed on both engines.

    ``config`` overrides the base :class:`SwarmConfig`; ``labels`` are
    copied into every result row and, unless ``workload`` replaces them,
    into the payload's workload description.  The showcase row uses
    ``showcase_scenario`` and ``showcase_labels`` where given, and the
    timed ones otherwise.
    """

    name: str
    showcase_size: int
    checksum: Tuple[str, ...]
    config: Mapping[str, object] = field(default_factory=dict)
    labels: Mapping[str, object] = field(default_factory=dict)
    workload: Optional[Mapping[str, object]] = None
    scenario: Callable[[int], object] = _static
    showcase_scenario: Optional[Callable[[int], object]] = None
    showcase_labels: Optional[Mapping[str, object]] = None


GATES = (
    Gate("swarm_scaling", 50_000, BASE_CHECKSUM),
    Gate(
        "scenarios",
        20_000,
        CHURN_CHECKSUM,
        labels={"scenario": "poisson-2pct-linger2"},
        workload={
            "scenario": {
                "arrivals": "poisson",
                "arrival_rate": "leechers / 50 per round (2% churn)",
                "departure": "linger",
                "linger_rounds": 2,
            }
        },
        scenario=_churn_scenario,
        showcase_scenario=_flashcrowd_scenario,
        showcase_labels={"scenario": "flashcrowd-half-swarm"},
    ),
    Gate(
        "behaviors",
        20_000,
        BASE_CHECKSUM + ("total_uploaded_kbit", "behavior_counts"),
        config={"behaviors": BEHAVIOR_MIX},
        labels={"behavior_mix": BEHAVIOR_MIX},
    ),
    Gate(
        "faults",
        20_000,
        FAULT_CHECKSUM,
        config={"piece_count": 500, "faults": FAULTS},
        labels={"faults": FAULTS, "scenario": "poisson"},
        scenario=_poisson,
    ),
    Gate(
        "resilience",
        20_000,
        FAULT_CHECKSUM + RESILIENCE_COUNTERS,
        config={"piece_count": 500, "faults": RESILIENCE_FAULTS, "resilience": POLICY},
        labels={"faults": RESILIENCE_FAULTS, "resilience": POLICY, "scenario": "poisson"},
        scenario=_poisson,
    ),
)


def _swarm_config(leechers: int, **overrides) -> SwarmConfig:
    """The timed post-flash-crowd swarm, ~10 rechoke rounds."""
    settings = dict(
        leechers=leechers,
        seeds=max(3, leechers // 2_000),
        piece_count=300,
        rounds=10,
        start_completion=0.3,
        seed_upload_kbps=5_000.0,
        announce_size=20,
    )
    settings.update(overrides)
    return SwarmConfig(**settings)


def _checksum(result, keys: Tuple[str, ...]) -> Dict[str, object]:
    """Exact aggregates of a run; engines diverging here invalidates the timing."""
    peers = result.peers.values()
    everything: Dict[str, object] = {
        "completed": result.completed,
        "rounds_run": result.rounds_run,
        "arrivals": result.arrivals,
        "departures": result.departures,
        "total_downloaded_kbit": sum(p.downloaded_kbit for p in peers),
        "total_uploaded_kbit": sum(p.uploaded_kbit for p in peers),
        "collaboration_pairs": len(result.collaboration_volume),
        "tft_pairs": len(result.tft_reciprocal_rounds),
        "behavior_counts": tuple(sorted(Counter(p.behavior for p in peers).items())),
    }
    if result.resilience is not None:
        everything.update(
            {name: getattr(result.resilience, name) for name in RESILIENCE_COUNTERS}
        )
    return {key: everything[key] for key in keys}


def _time_engine(gate: Gate, leechers: int, engine: str, scenario) -> Dict[str, object]:
    config = _swarm_config(leechers, **gate.config)
    start = time.perf_counter()
    result = SwarmSimulator(config, seed=SEED, engine=engine, scenario=scenario).run()
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "checksum": _checksum(result, gate.checksum)}


def run_gate(gate: Gate, showcase: bool) -> List[Dict[str, object]]:
    """Time both engines on the gate's workload at each size."""
    rows: List[Dict[str, object]] = []
    for leechers in TIMED_SIZES:
        scenario = gate.scenario(leechers)
        fast = _time_engine(gate, leechers, "fast", scenario)
        reference = _time_engine(gate, leechers, "reference", scenario)
        if reference["checksum"] != fast["checksum"]:
            raise AssertionError(
                f"{gate.name}: engines diverged at leechers={leechers}: "
                f"reference={reference['checksum']}, fast={fast['checksum']}"
            )
        speedup = reference["seconds"] / fast["seconds"]
        rows.append(
            {
                "leechers": leechers,
                **gate.labels,
                "reference_seconds": round(reference["seconds"], 4),
                "fast_seconds": round(fast["seconds"], 4),
                "speedup": round(speedup, 2),
                "checksum": fast["checksum"],
            }
        )
        print(
            f"{gate.name:>13} leechers={leechers:>7,}: "
            f"reference={reference['seconds']:7.2f}s  "
            f"fast={fast['seconds']:6.2f}s  speedup={speedup:5.1f}x"
        )
    if showcase:
        leechers = gate.showcase_size
        scenario = (gate.showcase_scenario or gate.scenario)(leechers)
        fast = _time_engine(gate, leechers, "fast", scenario)
        labels = gate.labels if gate.showcase_labels is None else gate.showcase_labels
        rows.append(
            {
                "leechers": leechers,
                **labels,
                "reference_seconds": None,
                "fast_seconds": round(fast["seconds"], 4),
                "speedup": None,
                "checksum": fast["checksum"],
            }
        )
        print(
            f"{gate.name:>13} leechers={leechers:>7,}: reference=   (skipped)  "
            f"fast={fast['seconds']:6.2f}s  (fast engine only)"
        )
    return rows


def _degradation_point(faults: Optional[str], resilience: Optional[str]) -> Dict[str, object]:
    """One fast-engine run of the degradation workload; summary metrics."""
    config = _swarm_config(
        DEGRADATION_LEECHERS,
        rounds=45,
        piece_count=400,
        faults=faults,
        resilience=resilience,
    )
    result = SwarmSimulator(config, seed=SEED, engine="fast", scenario="poisson").run()
    rounds = [
        peer.completed_round
        for peer in result.peers.values()
        if not peer.is_seed and peer.completed_round is not None
    ]
    return {
        "faults": faults or "none",
        "resilience": resilience or "off",
        "completed": result.completed,
        "mean_completion_round": (
            round(float(np.mean(rounds)), 4) if rounds else None
        ),
        "stratification_index": round(stratification_index(result), 6),
    }


def run_degradation() -> Dict[str, object]:
    """The graceful-degradation curves, plus the outage-midrun gate."""
    curves: Dict[str, List[Dict[str, object]]] = {}
    for level in DEGRADATION_LEVELS:
        resilience = level if level != "off" else None
        points = []
        for duration in DEGRADATION_DURATIONS:
            faults = (
                None
                if duration == 0
                else f"outage:{DEGRADATION_OUTAGE_START}+{duration}"
            )
            point = _degradation_point(faults, resilience)
            point["outage_rounds"] = duration
            points.append(point)
        curves[level] = points
        print(
            f"degradation[{level:>8}]: mean completion round "
            + " -> ".join(f"{p['mean_completion_round']}" for p in points)
            + f"  (outage {min(DEGRADATION_DURATIONS)}"
            f"..{max(DEGRADATION_DURATIONS)} rounds)"
        )
    baseline = _degradation_point(None, None)
    midrun_full = _degradation_point(DEGRADATION_FAULTS, "full")
    ratio = (
        midrun_full["mean_completion_round"]
        / baseline["mean_completion_round"]
    )
    print(
        f"degradation gate: fault-free mean completion round "
        f"{baseline['mean_completion_round']}, full policy under "
        f"outage-midrun {midrun_full['mean_completion_round']} "
        f"(ratio {ratio:.3f}, tolerance +/-{DEGRADATION_TOLERANCE:.0%})"
    )
    return {
        "workload": {
            "leechers": DEGRADATION_LEECHERS,
            "rounds": 45,
            "piece_count": 400,
            "outage_start": DEGRADATION_OUTAGE_START,
            "outage_durations": list(DEGRADATION_DURATIONS),
            "scenario": "poisson",
            "seed": SEED,
        },
        "curves": curves,
        "outage_midrun_gate": {
            "fault_free": baseline,
            "full": midrun_full,
            "full_vs_fault_free_completion_ratio": round(ratio, 4),
            "tolerance": DEGRADATION_TOLERANCE,
            "within_tolerance": bool(abs(ratio - 1.0) <= DEGRADATION_TOLERANCE),
        },
    }


def build_payload(gate: Gate, rows: List[Dict[str, object]], mode: str) -> Dict[str, object]:
    """Assemble one gate's ``BENCH_<name>.json`` payload."""
    return {
        "benchmark": gate.name,
        "workload": {
            "seeds": "max(3, leechers // 2000)",
            "piece_count": gate.config.get("piece_count", 300),
            "rounds": 10,
            "start_completion": 0.3,
            "piece_selection": "rarest-first",
            "announce_size": 20,
            "bandwidths": "saroiu-like mixture",
            **(gate.labels if gate.workload is None else gate.workload),
            "seed": SEED,
        },
        "mode": mode,
        "results": rows,
        "speedup_at_5k": next(
            row["speedup"] for row in rows if row["leechers"] == GATE_SIZE
        ),
        "required_speedup_at_5k": REQUIRED_SPEEDUP_AT_5K,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-style run: 1k + 5k only (the 5x gates still apply)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory for the BENCH_<gate>.json results (default: repo root)",
    )
    args = parser.parse_args(argv)
    output = REPO_ROOT if args.output is None else args.output
    output.mkdir(parents=True, exist_ok=True)
    mode = "quick" if args.quick else "full"

    failed: List[str] = []
    for gate in GATES:
        payload = build_payload(gate, run_gate(gate, showcase=not args.quick), mode)
        speedup = payload["speedup_at_5k"]
        if speedup < REQUIRED_SPEEDUP_AT_5K:
            failed.append(gate.name)
        print(
            f"{'PASS' if speedup >= REQUIRED_SPEEDUP_AT_5K else 'FAIL'}: "
            f"{gate.name}: fast engine is {speedup:.1f}x faster at 5k leechers "
            f"(required: >= {REQUIRED_SPEEDUP_AT_5K:.0f}x)"
        )
        if gate.name == "resilience":
            payload["degradation"] = run_degradation()
            gate_result = payload["degradation"]["outage_midrun_gate"]
            within = gate_result["within_tolerance"]
            if not within:
                failed.append("resilience-degradation")
            print(
                f"{'PASS' if within else 'FAIL'}: resilience-degradation: full "
                f"policy under outage-midrun completes at "
                f"{gate_result['full_vs_fault_free_completion_ratio']}x the "
                f"fault-free time (tolerance +/-{DEGRADATION_TOLERANCE:.0%})"
            )
        path = write_benchmark_json(gate.name, payload, output / f"BENCH_{gate.name}.json")
        print(f"wrote {path}")

    if failed:
        print(f"FAIL: {len(failed)} gate(s) failed: {', '.join(failed)}")
        return 1
    print(f"PASS: all {len(GATES)} swarm speedup gates and the degradation gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
