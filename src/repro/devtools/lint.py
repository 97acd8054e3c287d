"""The ``repro-p2p-lint`` driver: scan, parity-check, baseline, report.

Usage::

    repro-p2p-lint [paths...]                 # default: src
    python -m repro.devtools.lint src --format json
    repro-p2p-lint src --write-baseline       # record current debt

Exit status is 0 when every finding is pragma-suppressed or baselined,
1 when active violations remain, 2 on usage errors.  ``--format json``
emits a machine-readable report (schema documented in
:func:`json_report`); the schema is covered by the self-test suite so
downstream tooling can rely on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, TextIO, Tuple

from repro.devtools import baseline as baseline_mod
from repro.devtools.rules import RULES, FileLintResult, Finding, lint_source
from repro.sim import streams

__all__ = ["run_lint", "json_report", "main", "REPORT_VERSION"]

REPORT_VERSION = 1

#: Engine pairs subject to the cross-engine stream-parity check:
#: (domain, reference-tree fragment, fast-tree fragment).  The swarm has
#: no pair: one round protocol draws every swarm stream for both engines.
ENGINE_PAIRS: Tuple[Tuple[str, str, str], ...] = (
    ("core", "repro/core/", "repro/core/fast/"),
)


def iter_python_files(targets: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: Set[Path] = set()
    for target in targets:
        if target.is_dir():
            files.update(p for p in target.rglob("*.py") if p.is_file())
        elif target.suffix == ".py" and target.is_file():
            files.add(target)
        else:
            raise FileNotFoundError(f"no python file or directory at {target}")
    return sorted(files)


class LintRun:
    """Outcome of one linter invocation over a set of files."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.files: List[str] = []
        self.consumption: Dict[str, Set[str]] = {}
        self.baseline_summary: Dict[str, int] = {"consumed": 0, "unused": 0}

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed and not f.baselined]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def consumed_streams(self) -> Set[str]:
        out: Set[str] = set()
        for names in self.consumption.values():
            out.update(names)
        return out


def _parity_findings(consumption: Dict[str, Set[str]]) -> List[Finding]:
    """Cross-engine parity: both trees of a pair consume the same paired set."""
    findings: List[Finding] = []
    for domain, reference_fragment, fast_fragment in ENGINE_PAIRS:
        reference: Set[str] = set()
        fast: Set[str] = set()
        reference_seen = fast_seen = False
        for path, names in consumption.items():
            posix = path.replace("\\", "/")
            if fast_fragment in posix:
                fast_seen = True
                fast.update(names)
            elif reference_fragment in posix:
                reference_seen = True
                reference.update(names)
        if not (reference_seen and fast_seen):
            continue  # partial scans cannot judge parity
        paired = streams.paired_names(domain)
        reference &= paired
        fast &= paired
        if reference == fast:
            continue
        only_reference = sorted(reference - fast)
        only_fast = sorted(fast - reference)
        detail = []
        if only_reference:
            detail.append(f"only in the reference tree: {', '.join(only_reference)}")
        if only_fast:
            detail.append(f"only in the fast tree: {', '.join(only_fast)}")
        findings.append(
            Finding(
                fast_fragment.rstrip("/"),
                1,
                1,
                "RPD002",
                f"engine-pair stream parity broken for domain {domain!r} "
                f"({'; '.join(detail)}): both trees must consume the same "
                f"engine-paired streams or bit-identity under a shared seed "
                f"cannot hold",
            )
        )
    return findings


def run_lint(
    targets: Sequence[Path | str],
    *,
    baseline_path: Optional[Path] = None,
    parity: bool = True,
) -> LintRun:
    """Lint the given files/directories and return the full result."""
    run = LintRun()
    paths = iter_python_files([Path(t) for t in targets])
    for path in paths:
        source = path.read_text(encoding="utf-8")
        result: FileLintResult = lint_source(path.as_posix(), source)
        run.files.append(path.as_posix())
        run.findings.extend(result.findings)
        run.consumption[path.as_posix()] = result.consumed_streams
    if parity:
        run.findings.extend(_parity_findings(run.consumption))
    if baseline_path is not None:
        counts = baseline_mod.load_baseline(baseline_path)
        run.findings, run.baseline_summary = baseline_mod.apply_baseline(
            run.findings, counts
        )
    run.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return run


def json_report(run: LintRun) -> Dict[str, object]:
    """Machine-readable report.

    Schema (version 1)::

        {
          "version": 1,
          "rules": {"RPD001": "...", ...},
          "files_scanned": int,
          "findings": [
            {"path", "line", "col", "code", "message", "snippet",
             "suppressed": bool, "justification": str, "baselined": bool,
             "fingerprint": str}
          ],
          "counts": {"active", "suppressed", "baselined"},
          "baseline": {"consumed", "unused"},
          "consumed_streams": [str, ...],
          "exit_code": 0 | 1
        }
    """
    return {
        "version": REPORT_VERSION,
        "rules": dict(RULES),
        "files_scanned": len(run.files),
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
                "snippet": f.snippet,
                "suppressed": f.suppressed,
                "justification": f.justification,
                "baselined": f.baselined,
                "fingerprint": baseline_mod.fingerprint(f),
            }
            for f in run.findings
        ],
        "counts": {
            "active": len(run.active),
            "suppressed": sum(1 for f in run.findings if f.suppressed),
            "baselined": sum(1 for f in run.findings if f.baselined),
        },
        "baseline": dict(run.baseline_summary),
        "consumed_streams": sorted(run.consumed_streams()),
        "exit_code": run.exit_code,
    }


def _text_report(run: LintRun, stream: TextIO) -> None:
    for finding in run.findings:
        if finding.suppressed:
            status = f"  allowed ({finding.justification})"
        elif finding.baselined:
            status = "  baselined"
        else:
            status = ""
        print(
            f"{finding.location()}: {finding.code} {finding.message}{status}",
            file=stream,
        )
    active = run.active
    summary = (
        f"{len(run.files)} files scanned, {len(active)} violations, "
        f"{sum(1 for f in run.findings if f.suppressed)} pragma-allowed, "
        f"{sum(1 for f in run.findings if f.baselined)} baselined"
    )
    if run.baseline_summary.get("unused"):
        summary += f", {run.baseline_summary['unused']} stale baseline entries"
    print(summary, file=stream)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-p2p-lint",
        description="Determinism linter: enforce the named-stream contract statically.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is machine-readable, schema version %d)"
        % REPORT_VERSION,
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file (default: lint_baseline.json next to the first "
        "target's repository root when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current active findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the cross-engine stream-parity check",
    )
    return parser


def _default_baseline(targets: Sequence[str]) -> Optional[Path]:
    """Find ``lint_baseline.json`` next to or above the first target."""
    first = Path(targets[0]).resolve()
    for candidate_dir in [first if first.is_dir() else first.parent, *first.parents]:
        candidate = candidate_dir / "lint_baseline.json"
        if candidate.exists():
            return candidate
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    baseline_path: Optional[Path]
    if args.no_baseline:
        baseline_path = None
    elif args.baseline is not None:
        baseline_path = args.baseline
    else:
        baseline_path = _default_baseline(args.targets)

    try:
        run = run_lint(
            args.targets,
            baseline_path=None if args.write_baseline else baseline_path,
            parity=not args.no_parity,
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"repro-p2p-lint: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = args.baseline or baseline_path or Path("lint_baseline.json")
        baseline_mod.write_baseline(target, run.active)
        print(
            f"wrote {len(run.active)} baseline entries to {target}",
            file=sys.stderr,
        )
        return 0

    if args.format == "json":
        json.dump(json_report(run), sys.stdout, indent=2)
        print()
    else:
        _text_report(run, sys.stdout)
    return run.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
