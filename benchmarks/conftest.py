"""Shared helpers for the benchmark harness.

Every figure script reproduces one figure or table of the paper.  Its test
prints the regenerated rows/series (so ``pytest
benchmarks/bench_fig6_phase_transition.py -s`` shows the paper-shaped
output) and asserts the qualitative claims the paper makes about them.

Benchmarks that track performance claims (rather than figures) also run
headlessly without pytest -- e.g. ``python benchmarks/bench_engine_scaling.py
--quick`` -- and persist their numbers with :func:`write_benchmark_json` so
regressions are reproducible from the command line.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def default_output_dir(mode: str) -> Path:
    """Where a run in ``mode`` writes its artefacts when no output is named.

    A full run writes to the repository root, where the committed
    ``BENCH_*.json`` artefacts live.  A quick run writes to the gitignored
    ``.benchmarks/`` directory, so it never overwrites a full-mode artefact.
    """
    return REPO_ROOT / ".benchmarks" if mode == "quick" else REPO_ROOT


def write_benchmark_json(name: str, payload: dict, output: "Path | str | None" = None) -> Path:
    """Write a benchmark result payload to ``BENCH_<name>.json``.

    The file lands in :func:`default_output_dir` of the payload's ``mode``
    by default, so successive full runs are easy to diff against the
    committed artefact; pass ``output`` to redirect.  Returns the path
    written.
    """
    if output is None:
        directory = default_output_dir(payload.get("mode", "full"))
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{name}.json"
    else:
        path = Path(output)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def print_series_summary(title: str, series: dict) -> None:
    """Print a compact summary of a {label: {metric: array}} series dict."""
    print(f"\n{title}")
    for label, data in series.items():
        parts = []
        for key, values in data.items():
            try:
                if len(values) == 1:
                    parts.append(f"{key}={float(values[0]):.4g}")
            except TypeError:
                continue
        print(f"  {label}: " + ", ".join(parts))
