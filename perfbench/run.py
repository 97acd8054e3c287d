"""Run the benchmark: one workload in this process, or each workload in its own.

    python3 perfbench/run.py --workload swarm-static --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 7            # every workload, one process each

A run first checks both engines against each other on a small copy of the
workload (untimed), then repeats set-up + ``.run()`` on the seed's inputs
for ``--seconds`` seconds (at least three times).  It reports the median
set-up time and the fastest run: on a shared host, contention from other
tenants only ever adds time, and it comes in stretches longer than a
run, so the fastest repetition is the steadiest estimate of the run's own
cost (README.md has the measurements).  With ``--trace 1`` untraced and traced repetitions alternate, and the run
reports the per-layer metrics instead of the end-to-end ones.  Every
repetition is checked; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPS = 3

# Every workload reports these with tracing off; work_per_s is pieces
# acquired per second on the swarms and Algorithm 1 initiatives per second
# on matching.
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "work/s"}


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; fail without it."""
    if not (SRC / "repro" / "bittorrent" / "swarm.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path[:0] = [str(ROOT), str(SRC)]
    import repro

    if str(SRC / "repro") not in [str(Path(p).resolve()) for p in repro.__path__]:
        raise SystemExit(f"perfbench: repro imports from {list(repro.__path__)}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def host_metadata(seed: int) -> Dict[str, Any]:
    """What the numbers were measured on, and from which seed."""
    import numpy

    try:
        import scipy

        scipy_version: Optional[str] = scipy.__version__
    except ImportError:
        scipy_version = None
    sha: Optional[str] = None
    dirty: Optional[bool] = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(
            git + ["rev-parse", "HEAD"], capture_output=True, text=True, check=False
        ).stdout.strip() or None
        status = subprocess.run(
            git + ["status", "--porcelain", "--untracked-files=no"],
            capture_output=True,
            text=True,
            check=False,
        ).stdout
        dirty = bool(status.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def _repetition(workload: Any, seed: int, builds: int = 1):
    """Timed set-ups, then one timed run; returns (setup times, run_s, simulator, result).

    A cheap set-up is built ``builds`` times so its median rests on more
    samples; the last simulator built is the one run.
    """
    build = workload.inputs(seed)
    setups: List[float] = []
    for _ in range(builds):
        simulator = None  # free the previous build before collecting
        gc.collect()
        start = perf_counter()
        simulator = build()
        setups.append(perf_counter() - start)
    start = perf_counter()
    result = workload.run(simulator)
    return setups, perf_counter() - start, simulator, result


def measure(workload: Any, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure one workload for one seed; see the module docstring."""
    from perfbench.layers import LAYERS, layer_metrics, per_layer_names
    from perfbench.tracer import Tracer

    failures = workload.cross_check(seed)
    attempted, failed = 1, int(bool(failures))
    expected: Optional[Dict[str, Any]] = None
    setups: List[float] = []
    runs: List[float] = []
    traced_runs: List[float] = []
    layer_samples: List[Dict[str, float]] = []
    work: Dict[str, float] = {}
    started = perf_counter()
    while True:
        tracing = trace and len(traced_runs) < len(runs)
        if tracing:
            with Tracer(LAYERS) as tracer:
                setup_s, run_s, simulator, result = _repetition(workload, seed)
            traced_runs.append(run_s)
            layer_samples.append(
                layer_metrics(tracer.stats, workload.result_counts(simulator, result))
            )
        else:
            setup_s, run_s, simulator, result = _repetition(
                workload, seed, workload.setup_repeats
            )
            setups.extend(setup_s)
            runs.append(run_s)
        problems = workload.problems(result)
        checksum = workload.checksum(result)
        if expected is None:
            expected, work = checksum, workload.work(result)
        elif checksum != expected:
            problems.append(
                "checksum differs from the first repetition"
                + (" (the tracer perturbed the run)" if tracing else "")
            )
        attempted += 1
        failed += int(bool(problems))
        failures.extend(problems)
        del simulator, result
        enough = len(runs) >= MIN_REPS and (not trace or len(traced_runs) >= MIN_REPS)
        if enough and perf_counter() - started >= seconds:
            break

    # Each workload's own units of work, as rates, for the printed report.
    rates = {f"{unit}_per_s": (amount / min(runs), f"{unit}/s") for unit, amount in work.items()}
    if trace:
        units = per_layer_names()
        values = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in units
            if name != "trace_overhead_frac"
        }
        values["trace_overhead_frac"] = min(traced_runs) / min(runs) - 1.0
    else:
        units = END_TO_END
        values = {
            "run_s": min(runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": next(iter(rates.values()))[0],
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "rates": rates,
        "failures": failures,
    }


def _print_report(name: str, report: Dict[str, Any]) -> None:
    for failure in report["failures"]:
        print(f"FAIL {name}: {failure}")
    for metric, entry in report["metrics"].items():
        print(f"{name:22} {metric:68} {entry['value']:>16.6g} {entry['unit']}")
    for rate, (value, unit) in report["rates"].items():
        print(f"{name:22} {rate:68} {value:>16.6g} {unit}")
    print(f"{name:22} {'failed_frac':68} {report['failed'] / report['attempted']:>16.6g} 1")


def _run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one at a time."""
    from perfbench.workloads import WORKLOADS

    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
            check=False,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not child.stdout.strip():
            status = status or child.returncode or 1
        lines = child.stdout.strip().splitlines()
        if not lines:
            combined["correct"] = False
            continue
        report = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and report["correct"]
        combined["attempted"] += report["attempted"]
        combined["failed"] += report["failed"]
        for metric, entry in report["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload name; every workload when omitted")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload is None:
        return _run_all(args.seed, args.seconds, args.trace)

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print("host " + json.dumps(host_metadata(args.seed)))
    report = measure(workload, args.seed, args.seconds, bool(args.trace))
    _print_report(workload.name, report)
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
