"""Telemetry smoke gate: the measurement layer's cross-engine contract.

The unit suite proves the observer's pieces in isolation; this gate runs
the actual ``telemetry`` experiment end to end on both engines and
asserts the two properties CI must never lose:

* the full nested report (ground truth, observed campaign, threshold
  sensitivity, scrape series) is **bit-identical** across the reference
  and fast engines, and
* the report satisfies its own schema -- every section and metric the
  CLI prints and downstream tooling parses is present with the right
  shape, and the certified bound chain
  ``confirmed(1.0) <= reported <= true completions`` holds.

The full mode additionally runs the default-size campaign (40 leechers,
80 rounds under Poisson churn) and checks that the finite poll budget
produces the confirmed-download undercount the experiment exists to
demonstrate.

Run headlessly (writes ``BENCH_telemetry.json`` in the repo root, or in the
gitignored ``.benchmarks/`` with ``--quick``):

    python benchmarks/bench_telemetry.py --quick    # CI smoke: small swarm
    python benchmarks/bench_telemetry.py            # + default-size campaign

or through pytest: ``pytest benchmarks/bench_telemetry.py -s``.
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

import numpy as np

SEED = 2007  # ICDCS'07

# Every section -> metric the report must contain; the schema the CLI
# prints and the paper_map row points at.
REPORT_SCHEMA = {
    "ground_truth": (
        "completions",
        "stratification_index",
        "arrivals",
        "departures",
        "rounds_run",
        "download_cdf_rounds",
        "download_cdf",
    ),
    "observed": (
        "reported_downloads",
        "confirmed_downloads",
        "confirmed_at_certainty",
        "undercount",
        "observed_stratification_index",
        "peers_observed",
        "scrapes_taken",
        "polls_taken",
        "download_cdf_rounds",
        "download_cdf",
        "visit_count_values",
        "visit_count_peers",
    ),
    "threshold_sensitivity": (
        "thresholds",
        "confirmed_downloads",
        "undercount_vs_truth",
    ),
    "scrape_series": ("rounds", "seeders", "leechers", "snatches"),
}

QUICK_CAMPAIGN = dict(
    leechers=15, rounds=20, piece_count=60, seed=SEED, scenario="poisson",
    scrape_interval=2, poll_interval=2, poll_budget=8,
)
FULL_CAMPAIGN = dict(
    leechers=40, rounds=80, piece_count=600, seed=SEED, scenario="poisson",
    scrape_interval=2, poll_interval=2, poll_budget=25,
)


def check_schema(report: Dict) -> List[str]:
    """Validate the nested report shape; returns a list of violations."""
    problems: List[str] = []
    for section, keys in REPORT_SCHEMA.items():
        if section not in report:
            problems.append(f"missing section '{section}'")
            continue
        for key in keys:
            if key not in report[section]:
                problems.append(f"missing metric '{section}/{key}'")
                continue
            value = np.asarray(report[section][key])
            if value.dtype.kind != "f":
                problems.append(f"'{section}/{key}' is not a float array")
    if problems:
        return problems
    confirmed = float(report["observed"]["confirmed_at_certainty"][0])
    reported = float(report["observed"]["reported_downloads"][0])
    truth = float(report["ground_truth"]["completions"][0])
    if not confirmed <= reported <= truth:
        problems.append(
            f"bound chain violated: confirmed(1.0)={confirmed} "
            f"reported={reported} truth={truth}"
        )
    if report["scrape_series"]["rounds"].size == 0:
        problems.append("scrape series is empty")
    return problems


def run_campaign(label: str, campaign: Dict) -> Dict[str, object]:
    """Run one observed swarm on both engines; assert the reports match."""
    from repro.experiments import telemetry_experiment

    reports = {}
    timings = {}
    for engine in ("reference", "fast"):
        start = time.perf_counter()
        reports[engine] = telemetry_experiment(**campaign, engine=engine)
        timings[engine] = time.perf_counter() - start
    mismatches = [
        f"{section}/{key}"
        for section in reports["reference"]
        for key in reports["reference"][section]
        if not np.array_equal(
            reports["reference"][section][key], reports["fast"][section][key]
        )
    ]
    problems = check_schema(reports["reference"]) + [
        f"engines disagree on {name}" for name in mismatches
    ]
    report = reports["reference"]
    row = {
        "campaign": label,
        "config": dict(campaign),
        "reference_seconds": round(timings["reference"], 4),
        "fast_seconds": round(timings["fast"], 4),
        "true_completions": float(report["ground_truth"]["completions"][0]),
        "reported_downloads": float(report["observed"]["reported_downloads"][0]),
        "confirmed_downloads": float(report["observed"]["confirmed_downloads"][0]),
        "confirmed_at_certainty": float(
            report["observed"]["confirmed_at_certainty"][0]
        ),
        "stratification_index": float(
            report["ground_truth"]["stratification_index"][0]
        ),
        "observed_stratification_index": float(
            report["observed"]["observed_stratification_index"][0]
        ),
        "problems": problems,
    }
    print(
        f"{label:>6}: truth={row['true_completions']:.0f}  "
        f"reported={row['reported_downloads']:.0f}  "
        f"confirmed={row['confirmed_downloads']:.0f}  "
        f"index(true)={row['stratification_index']:.3f}  "
        f"index(observed)={row['observed_stratification_index']:.3f}  "
        f"[{'OK' if not problems else '; '.join(problems)}]"
    )
    return row


def run_gate(quick: bool) -> Dict[str, object]:
    rows = [run_campaign("quick", QUICK_CAMPAIGN)]
    if not quick:
        rows.append(run_campaign("full", FULL_CAMPAIGN))
        full = rows[-1]
        # The headline effect: sparse polls under churn miss completions.
        if not full["confirmed_downloads"] < full["true_completions"]:
            full["problems"].append(
                "full campaign shows no confirmed-download undercount"
            )
    return {
        "benchmark": "telemetry",
        "mode": "quick" if quick else "full",
        "seed": SEED,
        "schema": {k: list(v) for k, v in REPORT_SCHEMA.items()},
        "results": rows,
        "problems": [p for row in rows for p in row["problems"]],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-style run: the small campaign only",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON result (default: repo root, or "
        ".benchmarks/ with --quick)",
    )
    args = parser.parse_args(argv)

    payload = run_gate(args.quick)
    # Import here so the module also works when pytest imports it from the
    # benchmarks directory (conftest is on the path in both invocations).
    from conftest import write_benchmark_json

    path = write_benchmark_json("telemetry", payload, args.output)
    print(f"wrote {path}")

    if payload["problems"]:
        print(f"FAIL: {len(payload['problems'])} telemetry contract violations")
        return 1
    print(
        "PASS: telemetry reports are bit-identical across engines and "
        "satisfy the report schema"
    )
    return 0


def test_telemetry_quick():
    """Pytest entry point: the quick campaign must satisfy the contract."""
    payload = run_gate(quick=True)
    from conftest import write_benchmark_json

    write_benchmark_json("telemetry", payload)
    assert payload["problems"] == []


if __name__ == "__main__":
    raise SystemExit(main())
