"""Self-tests for the determinism linter (``repro-p2p-lint``).

Fixture snippets live in ``tests/lint_fixtures/``: for every rule there
is a file the rule must fire on, a clean counterpart, and a
pragma-suppressed variant.  On top of the per-rule coverage this module
pins the pragma grammar (RPD000), the cross-engine parity check, the
baseline mechanics, the JSON report schema, the CLI exit codes -- and
that the real ``src/`` tree lints clean against the committed baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools import baseline as baseline_mod
from repro.devtools.lint import REPORT_VERSION, json_report, main, run_lint
from repro.devtools.rules import RULES, lint_source

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
SIM_FIXTURES = FIXTURES / "sim_paths" / "repro" / "core"

INJECTED_RPD001 = (
    "import numpy as np\n"
    "\n"
    "def diverges_silently():\n"
    "    return np.random.default_rng().random()\n"
)


def lint_fixture(path: Path, *, parity: bool = False):
    """Lint one fixture file/dir with no baseline (the unit under test)."""
    return run_lint([path], baseline_path=None, parity=parity)


def active_codes(run) -> set:
    return {f.code for f in run.active}


# -- per-rule fixtures: fire / clean / pragma ----------------------------------


@pytest.mark.parametrize(
    "fixture, code",
    [
        (FIXTURES / "rpd001_bad.py", "RPD001"),
        (FIXTURES / "rpd002_bad.py", "RPD002"),
        (FIXTURES / "rpd003_bad.py", "RPD003"),
        (SIM_FIXTURES / "rpd004_bad.py", "RPD004"),
        (FIXTURES / "rpd005_bad.py", "RPD005"),
    ],
)
def test_rule_fires_on_bad_fixture(fixture: Path, code: str) -> None:
    run = lint_fixture(fixture)
    assert code in active_codes(run), f"{code} must fire on {fixture.name}"
    assert run.exit_code == 1


@pytest.mark.parametrize(
    "fixture, code",
    [
        (FIXTURES / "rpd001_good.py", "RPD001"),
        (FIXTURES / "rpd002_good.py", "RPD002"),
        (FIXTURES / "rpd003_good.py", "RPD003"),
        (SIM_FIXTURES / "rpd004_good.py", "RPD004"),
        (FIXTURES / "rpd005_good.py", "RPD005"),
    ],
)
def test_clean_counterpart_passes(fixture: Path, code: str) -> None:
    run = lint_fixture(fixture)
    assert not run.findings, (
        f"{fixture.name} must be fully clean, got "
        f"{[f.location() + ' ' + f.code for f in run.findings]}"
    )
    assert run.exit_code == 0


@pytest.mark.parametrize(
    "fixture, code",
    [
        (FIXTURES / "rpd001_pragma.py", "RPD001"),
        (FIXTURES / "rpd002_pragma.py", "RPD002"),
        (FIXTURES / "rpd003_pragma.py", "RPD003"),
        (SIM_FIXTURES / "rpd004_pragma.py", "RPD004"),
        (FIXTURES / "rpd005_pragma.py", "RPD005"),
    ],
)
def test_pragma_suppresses_with_justification(fixture: Path, code: str) -> None:
    run = lint_fixture(fixture)
    assert not run.active, "a justified pragma must clear the exit code"
    suppressed = [f for f in run.findings if f.suppressed and f.code == code]
    assert suppressed, f"the {code} finding must still be *recorded* as suppressed"
    assert all(f.justification for f in suppressed)
    assert run.exit_code == 0


def test_rpd001_fires_per_construction_site() -> None:
    run = lint_fixture(FIXTURES / "rpd001_bad.py")
    rpd001 = [f for f in run.active if f.code == "RPD001"]
    # from-import of random.shuffle + seedless default_rng + np.random.uniform
    # + random.random: four distinct sites.
    assert len(rpd001) == 4


def test_rpd004_is_path_scoped() -> None:
    outside = lint_fixture(FIXTURES / "rpd004_outside.py")
    assert "RPD004" not in {f.code for f in outside.findings}
    # Identical call inside a repro/core/ path fragment is rejected.
    inside = lint_source("repro/core/clock_abuse.py", "import time\nt = time.time()\n")
    assert {f.code for f in inside.findings} == {"RPD004"}


# -- RPD000: the pragma grammar is itself enforced -----------------------------


def test_malformed_pragmas_raise_rpd000() -> None:
    run = lint_fixture(FIXTURES / "rpd000_bad.py")
    rpd000 = [f for f in run.active if f.code == "RPD000"]
    assert len(rpd000) == 3  # empty code list, unknown code, missing justification
    # A malformed pragma must NOT suppress the finding it sits next to.
    assert sum(1 for f in run.active if f.code == "RPD001") == 3
    messages = " ".join(f.message for f in rpd000)
    assert "justification" in messages and "RPD999" in messages


# -- cross-engine parity -------------------------------------------------------


def test_parity_passes_when_trees_match() -> None:
    run = lint_fixture(FIXTURES / "parity" / "ok", parity=True)
    assert not run.active


def test_parity_fires_when_fast_tree_drops_a_stream() -> None:
    run = lint_fixture(FIXTURES / "parity" / "broken", parity=True)
    parity = [f for f in run.active if f.code == "RPD002"]
    assert parity, "dropping a paired stream from the fast tree must fail"
    messages = " ".join(f.message for f in parity)
    assert "initiatives" in messages
    assert "parity" in messages


def test_parity_skipped_on_partial_scans() -> None:
    # Only the reference half in scope: parity cannot be judged, no finding.
    reference_only = FIXTURES / "parity" / "broken" / "repro" / "core" / "dynamics.py"
    run = lint_fixture(reference_only, parity=True)
    assert not run.findings


# -- baseline mechanics --------------------------------------------------------


def test_baseline_absorbs_and_reports_stale_entries(tmp_path: Path) -> None:
    bad = tmp_path / "legacy.py"
    bad.write_text(INJECTED_RPD001, encoding="utf-8")
    baseline_file = tmp_path / "lint_baseline.json"

    first = run_lint([bad], baseline_path=None, parity=False)
    assert first.exit_code == 1
    baseline_mod.write_baseline(baseline_file, first.active)

    second = run_lint([bad], baseline_path=baseline_file, parity=False)
    assert second.exit_code == 0
    assert [f.code for f in second.findings if f.baselined] == ["RPD001"]
    assert second.baseline_summary == {"consumed": 1, "unused": 0}

    # Fixing the debt leaves the baseline entry stale -- reported, not fatal.
    bad.write_text("x = 1\n", encoding="utf-8")
    third = run_lint([bad], baseline_path=baseline_file, parity=False)
    assert third.exit_code == 0
    assert third.baseline_summary == {"consumed": 0, "unused": 1}


def test_baseline_does_not_absorb_new_violations(tmp_path: Path) -> None:
    bad = tmp_path / "legacy.py"
    bad.write_text(INJECTED_RPD001, encoding="utf-8")
    baseline_file = tmp_path / "lint_baseline.json"
    baseline_mod.write_baseline(
        baseline_file, run_lint([bad], baseline_path=None, parity=False).active
    )

    bad.write_text(INJECTED_RPD001 + "\nimport random\ny = random.random()\n",
                   encoding="utf-8")
    run = run_lint([bad], baseline_path=baseline_file, parity=False)
    assert run.exit_code == 1
    assert [f.code for f in run.active] == ["RPD001"]  # only the new site


def test_malformed_baseline_is_a_usage_error(tmp_path: Path) -> None:
    broken = tmp_path / "lint_baseline.json"
    broken.write_text('{"version": 99}', encoding="utf-8")
    target = tmp_path / "ok.py"
    target.write_text("x = 1\n", encoding="utf-8")
    assert main([str(target), "--baseline", str(broken)]) == 2


# -- JSON report schema --------------------------------------------------------


def test_json_report_schema(capsys: pytest.CaptureFixture) -> None:
    exit_code = main(
        [str(FIXTURES / "rpd001_bad.py"), "--no-baseline", "--format", "json"]
    )
    report = json.loads(capsys.readouterr().out)

    assert report["version"] == REPORT_VERSION
    assert report["rules"] == dict(RULES)
    assert report["files_scanned"] == 1
    assert report["exit_code"] == exit_code == 1
    assert set(report["counts"]) == {"active", "suppressed", "baselined"}
    assert set(report["baseline"]) == {"consumed", "unused"}
    assert isinstance(report["consumed_streams"], list)
    required = {
        "path": str, "line": int, "col": int, "code": str, "message": str,
        "snippet": str, "suppressed": bool, "justification": str,
        "baselined": bool, "fingerprint": str,
    }
    assert report["findings"], "the bad fixture must yield findings"
    for finding in report["findings"]:
        assert set(finding) == set(required)
        for key, type_ in required.items():
            assert isinstance(finding[key], type_), (key, finding[key])
        assert finding["code"] in RULES
    assert report["counts"]["active"] == sum(
        1 for f in report["findings"]
        if not f["suppressed"] and not f["baselined"]
    )


def test_json_report_round_trips(tmp_path: Path) -> None:
    run = run_lint([FIXTURES / "rpd002_bad.py"], baseline_path=None, parity=False)
    report = json_report(run)
    assert json.loads(json.dumps(report)) == report  # fully JSON-serialisable


# -- CLI behaviour -------------------------------------------------------------


def test_cli_exit_zero_on_clean_file(tmp_path: Path) -> None:
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    assert main([str(clean), "--no-baseline"]) == 0


def test_cli_fails_on_injected_rpd001(tmp_path: Path) -> None:
    """The gate the CI job re-verifies: a seeded-rng regression cannot pass."""
    injected = tmp_path / "injected.py"
    injected.write_text(INJECTED_RPD001, encoding="utf-8")
    assert main([str(injected), "--no-baseline"]) == 1


def test_cli_usage_error_on_missing_target(tmp_path: Path) -> None:
    assert main([str(tmp_path / "does_not_exist.py"), "--no-baseline"]) == 2


def test_cli_write_baseline_then_green(tmp_path: Path, capsys) -> None:
    bad = tmp_path / "legacy.py"
    bad.write_text(INJECTED_RPD001, encoding="utf-8")
    baseline_file = tmp_path / "lint_baseline.json"
    assert main([str(bad), "--baseline", str(baseline_file), "--write-baseline"]) == 0
    capsys.readouterr()
    payload = json.loads(baseline_file.read_text(encoding="utf-8"))
    assert payload["version"] == baseline_mod.BASELINE_VERSION
    assert len(payload["entries"]) == 1
    assert main([str(bad), "--baseline", str(baseline_file)]) == 0


def test_syntax_error_reported_not_crashed(tmp_path: Path) -> None:
    mangled = tmp_path / "mangled.py"
    mangled.write_text("def broken(:\n", encoding="utf-8")
    run = run_lint([mangled], baseline_path=None, parity=False)
    assert [f.code for f in run.active] == ["RPD000"]
    assert "does not parse" in run.active[0].message


# -- the real tree -------------------------------------------------------------


def test_real_src_tree_lints_clean() -> None:
    """``repro-p2p-lint src`` holds on the tree the tests run against."""
    run = run_lint(
        [REPO_ROOT / "src"],
        baseline_path=REPO_ROOT / "lint_baseline.json",
        parity=True,
    )
    assert not run.active, "\n".join(
        f"{f.location()}: {f.code} {f.message}" for f in run.active
    )


def test_committed_baseline_has_no_strict_tree_entries() -> None:
    """Policy: no baselined debt in sim/, core/fast/ or bittorrent/fast/."""
    payload = json.loads(
        (REPO_ROOT / "lint_baseline.json").read_text(encoding="utf-8")
    )
    strict_fragments = ("repro/sim/", "repro/core/fast/", "repro/bittorrent/fast/")
    offenders = [
        entry["path"]
        for entry in payload["entries"]
        if any(fragment in entry["path"] for fragment in strict_fragments)
    ]
    assert not offenders
