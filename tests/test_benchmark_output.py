"""Where the headless benchmarks write their ``BENCH_*.json`` artefacts.

The committed artefacts at the repository root hold full-mode numbers; a
quick run (the CI gates) must never overwrite one.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_benchmark_conftest():
    spec = importlib.util.spec_from_file_location(
        "benchmark_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_payload_leaves_the_root_artefact_alone(tmp_path, monkeypatch) -> None:
    conftest = _load_benchmark_conftest()
    monkeypatch.setattr(conftest, "REPO_ROOT", tmp_path)
    committed = tmp_path / "BENCH_engine_scaling.json"
    committed.write_text('{"mode": "full"}\n')

    quick = conftest.write_benchmark_json("engine_scaling", {"mode": "quick", "x": 1})
    assert committed.read_text() == '{"mode": "full"}\n'
    assert quick == tmp_path / ".benchmarks" / "BENCH_engine_scaling.json"
    assert json.loads(quick.read_text()) == {"mode": "quick", "x": 1}

    full = conftest.write_benchmark_json("engine_scaling", {"mode": "full", "x": 2})
    assert full == committed
    assert json.loads(committed.read_text()) == {"mode": "full", "x": 2}
