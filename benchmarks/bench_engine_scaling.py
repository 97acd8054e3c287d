"""Engine scaling: reference vs fast matching engine at 1k / 10k / 100k peers.

Unlike the ``bench_fig*`` benchmarks this one tracks an implementation
claim rather than a paper figure: the vectorized array engine
(:mod:`repro.core.fast`) must beat the reference dictionary engine by at
least 5x at n = 10k peers on the Figure 1 workload (convergence from the
empty configuration on G(n, d), best-mate initiatives, d = 50).  Both
engines are driven through the public ``engine=`` switch with the same
seed, and since they are trajectory-identical the timed work is the same
simulation step for step -- the comparison is pure implementation cost.

Run headlessly (writes ``BENCH_engine_scaling.json`` in the repo root, or in the
gitignored ``.benchmarks/`` with ``--quick``):

    python benchmarks/bench_engine_scaling.py --quick     # 1k + 10k
    python benchmarks/bench_engine_scaling.py             # 1k + 10k + 100k

or through pytest: ``pytest benchmarks/bench_engine_scaling.py -s``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":  # headless invocation: make src/ importable
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.acceptance import AcceptanceGraph
from repro.core.dynamics import ConvergenceSimulator
from repro.core.peer import PeerPopulation
from repro.sim import streams
from repro.sim.random_source import RandomSource

EXPECTED_DEGREE = 50.0
MAX_BASE_UNITS = 8.0
SEED = 2007  # ICDCS'07
QUICK_SIZES = (1_000, 10_000)
FULL_SIZES = (1_000, 10_000, 100_000)
REQUIRED_SPEEDUP_AT_10K = 5.0


def _time_engine(
    acceptance: AcceptanceGraph, engine: str, seed: int
) -> Dict[str, float]:
    """Time one end-to-end run (stable computation + initiative process)."""
    source = RandomSource(seed)
    start = time.perf_counter()
    simulator = ConvergenceSimulator(
        acceptance, strategy="best-mate", source=source, engine=engine
    )
    result = simulator.run(max_base_units=MAX_BASE_UNITS)
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "initiatives": result.initiatives,
        "active_initiatives": result.active_initiatives,
        "final_disorder": result.trajectory.values[-1],
        "converged": result.converged,
    }


def run_scaling(sizes) -> List[Dict[str, object]]:
    """Time both engines on identical workloads at each population size."""
    rows: List[Dict[str, object]] = []
    for n in sizes:
        population = PeerPopulation.ranked(n, slots=1)
        acceptance = AcceptanceGraph.erdos_renyi(
            population,
            expected_degree=EXPECTED_DEGREE,
            rng=RandomSource(SEED).stream(streams.GRAPH),
        )
        fast = _time_engine(acceptance, "fast", SEED)
        reference = _time_engine(acceptance, "reference", SEED)
        # Identical seeds must mean identical simulations; a drift here
        # would invalidate the timing comparison (and the engine itself).
        if reference["final_disorder"] != fast["final_disorder"] or (
            reference["initiatives"] != fast["initiatives"]
        ):
            raise AssertionError(
                f"engines diverged at n={n}: "
                f"reference={reference}, fast={fast}"
            )
        speedup = reference["seconds"] / fast["seconds"]
        rows.append(
            {
                "n": n,
                "expected_degree": EXPECTED_DEGREE,
                "max_base_units": MAX_BASE_UNITS,
                "initiatives": reference["initiatives"],
                "reference_seconds": round(reference["seconds"], 4),
                "fast_seconds": round(fast["seconds"], 4),
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"n={n:>7,}: reference={reference['seconds']:7.2f}s  "
            f"fast={fast['seconds']:6.2f}s  speedup={speedup:5.1f}x"
        )
    return rows


def build_payload(rows: List[Dict[str, object]], mode: str) -> Dict[str, object]:
    """Assemble the JSON payload; the CLI and pytest paths share this shape."""
    return {
        "benchmark": "engine_scaling",
        "workload": {
            "graph": "erdos-renyi",
            "expected_degree": EXPECTED_DEGREE,
            "slots": 1,
            "strategy": "best-mate",
            "max_base_units": MAX_BASE_UNITS,
            "seed": SEED,
        },
        "mode": mode,
        "results": rows,
        "speedup_at_10k": next(
            row["speedup"] for row in rows if row["n"] == 10_000
        ),
        "required_speedup_at_10k": REQUIRED_SPEEDUP_AT_10K,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-style run: n in {1k, 10k} only (the 5x gate still applies)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON result (default: repo root, or "
        ".benchmarks/ with --quick)",
    )
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    rows = run_scaling(sizes)

    payload = build_payload(rows, mode="quick" if args.quick else "full")
    speedup_at_10k = payload["speedup_at_10k"]
    # Import here so the module also works when pytest imports it from the
    # benchmarks directory (conftest is on the path in both invocations).
    from conftest import write_benchmark_json

    path = write_benchmark_json("engine_scaling", payload, args.output)
    print(f"wrote {path}")

    if speedup_at_10k < REQUIRED_SPEEDUP_AT_10K:
        print(
            f"FAIL: fast engine speedup at n=10k is {speedup_at_10k:.1f}x "
            f"(required: >= {REQUIRED_SPEEDUP_AT_10K:.0f}x)"
        )
        return 1
    print(
        f"PASS: fast engine is {speedup_at_10k:.1f}x faster at n=10k "
        f"(required: >= {REQUIRED_SPEEDUP_AT_10K:.0f}x)"
    )
    return 0


def test_engine_scaling_quick():
    """Pytest entry point: the quick sizes must clear the 5x gate."""
    rows = run_scaling(QUICK_SIZES)
    from conftest import write_benchmark_json

    payload = build_payload(rows, mode="quick")
    write_benchmark_json("engine_scaling", payload)
    assert payload["speedup_at_10k"] >= REQUIRED_SPEEDUP_AT_10K


if __name__ == "__main__":
    raise SystemExit(main())
