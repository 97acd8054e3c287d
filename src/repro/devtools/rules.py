"""AST rules of the determinism linter.

Each rule has a stable ``RPDxxx`` code (Repro-P2p-Determinism).  The
implementation is a single AST pass per file (:class:`FileLinter`); the
driver in :mod:`repro.devtools.lint` runs it over every file.

The rules are deliberately *syntactic*: they over-approximate the dynamic
behaviour (e.g. any local assigned from a ``set()`` call counts as a set
forever) and rely on the justified-pragma escape hatch for the rare
legitimate exception.  That trade keeps the linter dependency-free, fast
(one ``ast.parse`` per file) and -- unlike the hypothesis equivalence
suite it complements -- able to point at the exact offending line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sim import streams

__all__ = [
    "RULES",
    "Finding",
    "FileLinter",
    "lint_source",
    "parse_pragmas",
]

#: Rule codes and their one-line descriptions.
RULES: Mapping[str, str] = {
    "RPD000": "malformed determinism pragma (missing code list or justification)",
    "RPD001": "seedless or global-state RNG construction outside sim/random_source.py",
    "RPD002": "stream name not declared in the repro.sim.streams registry "
    "(or spelled as a bare literal instead of its registry constant)",
    "RPD003": "iteration over a bare set/dict in a function that touches an rng/stream",
    "RPD004": "wall-clock access in a simulation module",
    "RPD005": "deprecated *_kb spelling (unit renamed to *_kbit)",
}

#: The file exempt from RPD001: the one place allowed to construct generators.
RNG_FACTORY_SUFFIX = "sim/random_source.py"

#: Path fragments marking simulation modules (RPD004 scope).
SIMULATION_FRAGMENTS: Tuple[str, ...] = (
    "repro/sim/",
    "repro/core/",
    "repro/bittorrent/",
    "repro/graphs/",
    "repro/stratification/",
)

#: Legacy global-state functions of the ``numpy.random`` module namespace.
_NUMPY_LEGACY: Set[str] = {
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "bytes",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "beta",
    "binomial",
    "poisson",
    "exponential",
    "gamma",
    "lognormal",
    "geometric",
    "RandomState",
}

#: Stochastic callables of the stdlib ``random`` module.
_STDLIB_RANDOM: Set[str] = {
    "seed",
    "random",
    "randint",
    "randrange",
    "getrandbits",
    "randbytes",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "betavariate",
    "expovariate",
    "gammavariate",
    "gauss",
    "lognormvariate",
    "normalvariate",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "Random",
}

#: Wall-clock callables rejected in simulation modules (RPD004).  Monotonic
#: profiling clocks (``perf_counter``, ``monotonic``) are allowed: they feed
#: telemetry, never simulation state.
_WALL_CLOCK: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_DEPRECATED_SUFFIX = "_kb"

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<codes>[A-Za-z0-9,\s]*)\]\s*(?:--\s*(?P<why>.*\S))?"
)


@dataclass(frozen=True)
class Finding:
    """One linter finding, anchored to a file position.

    ``suppressed`` marks findings waived by a justified pragma on the same
    line; ``baselined`` marks findings absorbed by the committed baseline
    file.  Neither kind affects the exit code.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    snippet: str = ""
    suppressed: bool = False
    justification: str = ""
    baselined: bool = False

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


def parse_pragmas(
    path: str, lines: Sequence[str]
) -> Tuple[Dict[int, Tuple[Set[str], str]], List[Finding]]:
    """Extract ``# repro: allow[...] -- why`` pragmas from source lines.

    Returns a map ``line_number -> (codes, justification)`` plus RPD000
    findings for malformed pragmas (empty code list, unknown codes, or a
    missing justification -- the justification is mandatory, a pragma is a
    reviewed exception, not a mute button).
    """
    pragmas: Dict[int, Tuple[Set[str], str]] = {}
    problems: List[Finding] = []
    for lineno, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        codes = {c.strip() for c in match.group("codes").split(",") if c.strip()}
        why = (match.group("why") or "").strip()
        col = match.start() + 1
        bad_codes = sorted(c for c in codes if c not in RULES or c == "RPD000")
        if not codes or bad_codes:
            problems.append(
                Finding(
                    path,
                    lineno,
                    col,
                    "RPD000",
                    "pragma must list valid rule codes, e.g. allow[RPD001]"
                    + (f"; unknown: {', '.join(bad_codes)}" if bad_codes else ""),
                    snippet=text.strip(),
                )
            )
            continue
        if not why:
            problems.append(
                Finding(
                    path,
                    lineno,
                    col,
                    "RPD000",
                    "pragma is missing its mandatory justification "
                    "(allow[RPDxxx] -- why this is safe)",
                    snippet=text.strip(),
                )
            )
            continue
        pragmas[lineno] = (codes, why)
    return pragmas, problems


class _ImportTracker:
    """Resolve local names to the dotted module paths they were imported as."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = target

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an attribute chain, through import aliases."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.aliases.get(current.id, current.id)
        parts.append(base)
        return ".".join(reversed(parts))


def _is_simulation_module(path: str) -> bool:
    posix = path.replace("\\", "/")
    return any(fragment in posix for fragment in SIMULATION_FRAGMENTS)


def _is_rng_factory(path: str) -> bool:
    return path.replace("\\", "/").endswith(RNG_FACTORY_SUFFIX)


@dataclass
class FileLintResult:
    """Per-file outcome: findings plus the stream-consumption record."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    #: Stream names this file consumes via ``.stream(...)``/``.fresh_stream``.
    consumed_streams: Set[str] = field(default_factory=set)


class FileLinter(ast.NodeVisitor):
    """One-pass AST linter for a single file."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.imports = _ImportTracker()
        self.result = FileLintResult(self.path)
        self._constant_map = streams.constant_map()
        self._registered = streams.registered_names()

    # -- public entry ----------------------------------------------------------

    def run(self) -> FileLintResult:
        try:
            tree = ast.parse(self.source, filename=self.path)
        except SyntaxError as error:
            self.result.findings.append(
                Finding(
                    self.path,
                    error.lineno or 1,
                    (error.offset or 1),
                    "RPD000",
                    f"file does not parse: {error.msg}",
                )
            )
            return self.result
        pragmas, pragma_problems = parse_pragmas(self.path, self.lines)
        self.visit(tree)
        self._check_functions(tree)
        findings = pragma_problems + self.result.findings
        self.result.findings = [
            self._apply_pragma(finding, pragmas) for finding in findings
        ]
        return self.result

    def _apply_pragma(
        self, finding: Finding, pragmas: Dict[int, Tuple[Set[str], str]]
    ) -> Finding:
        entry = pragmas.get(finding.line)
        if entry is None or finding.code == "RPD000":
            return finding
        codes, why = entry
        if finding.code in codes:
            return replace(finding, suppressed=True, justification=why)
        return finding

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        snippet = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        self.result.findings.append(
            Finding(self.path, line, col, code, message, snippet=snippet)
        )

    # -- imports ---------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.visit_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.visit_import_from(node)
        for alias in node.names:
            if node.module == "random" and alias.name in _STDLIB_RANDOM:
                if not _is_rng_factory(self.path):
                    self._add(
                        node,
                        "RPD001",
                        f"importing random.{alias.name} bypasses the named-stream "
                        f"discipline; draw from a RandomSource stream instead",
                    )
            if alias.name.endswith(_DEPRECATED_SUFFIX):
                self._add(
                    node,
                    "RPD005",
                    f"deprecated *_kb spelling {alias.name!r}; use the *_kbit field",
                )
        self.generic_visit(node)

    # -- RPD001 / RPD002 / RPD004: calls ---------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.imports.resolve(node.func)
        if resolved is not None:
            self._check_rng_construction(node, resolved)
            self._check_wall_clock(node, resolved)
        self._check_stream_call(node)
        self.generic_visit(node)

    def _check_rng_construction(self, node: ast.Call, resolved: str) -> None:
        if _is_rng_factory(self.path):
            return
        if resolved == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                self._add(
                    node,
                    "RPD001",
                    "seedless np.random.default_rng() -- every generator must "
                    "be seeded from a named RandomSource stream (or an "
                    "explicit seed at an experiment boundary)",
                )
            return
        parts = resolved.split(".")
        if (
            len(parts) == 3
            and parts[0] == "numpy"
            and parts[1] == "random"
            and parts[2] in _NUMPY_LEGACY
        ):
            self._add(
                node,
                "RPD001",
                f"np.random.{parts[2]} uses numpy's hidden global RNG state; "
                f"draw from a named RandomSource stream instead",
            )
        elif len(parts) == 2 and parts[0] == "random" and parts[1] in _STDLIB_RANDOM:
            self._add(
                node,
                "RPD001",
                f"random.{parts[1]} uses the stdlib's hidden global RNG state; "
                f"draw from a named RandomSource stream instead",
            )

    def _check_wall_clock(self, node: ast.Call, resolved: str) -> None:
        if resolved in _WALL_CLOCK and _is_simulation_module(self.path):
            self._add(
                node,
                "RPD004",
                f"{resolved}() reads the wall clock inside a simulation module; "
                f"simulated time must come from the simulation clock / round "
                f"counter so runs replay bit-identically",
            )

    def _check_stream_call(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in ("stream", "fresh_stream"):
            return
        if not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
            self.result.consumed_streams.add(name)
            if name not in self._registered:
                self._add(
                    arg,
                    "RPD002",
                    f"stream name {name!r} is not declared in the "
                    f"repro.sim.streams registry",
                )
            else:
                self._add(
                    arg,
                    "RPD002",
                    f"stream name {name!r} is a bare literal; use the registry "
                    f"constant streams.{self._constant_for(name)} so consumers "
                    f"stay statically traceable",
                )
        elif isinstance(arg, ast.Name) and arg.id in self._constant_map:
            self.result.consumed_streams.add(self._constant_map[arg.id])
        elif isinstance(arg, ast.Attribute) and arg.attr in self._constant_map:
            self.result.consumed_streams.add(self._constant_map[arg.attr])
        # Anything else is a dynamic stream name; the registry cannot vouch
        # for it statically, and runtime strict mode covers it instead.

    def _constant_for(self, name: str) -> str:
        for const, value in self._constant_map.items():
            if value == name:
                return const
        return "<unregistered>"

    # -- RPD005: deprecated *_kb identifiers -----------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        self._check_unit_suffix(node, node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_unit_suffix(node, node.attr)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        self._check_unit_suffix(node, node.arg)
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg is not None:
            self._check_unit_suffix(node, node.arg)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_unit_suffix(node, node.name)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_unit_suffix(node, node.name)
        self.generic_visit(node)

    def _check_unit_suffix(self, node: ast.AST, identifier: str) -> None:
        if identifier.endswith(_DEPRECATED_SUFFIX):
            self._add(
                node,
                "RPD005",
                f"deprecated *_kb spelling {identifier!r}; the unit was renamed "
                f"to *_kbit (kilobits) -- use the new field",
            )

    # -- RPD003: hash-order iteration in rng-touching functions ----------------

    def _check_functions(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_one_function(node)

    def _function_body_nodes(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> List[ast.AST]:
        """All descendant nodes of ``func`` excluding nested function bodies."""
        collected: List[ast.AST] = []

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                collected.append(child)
                walk(child)

        walk(func)
        return collected

    def _check_one_function(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        nodes = self._function_body_nodes(func)
        if not self._touches_rng(func, nodes):
            return
        hashy = self._hash_ordered_locals(nodes)
        for node in nodes:
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for iter_node in iters:
                kind = self._bare_hash_iteration(iter_node, hashy)
                if kind is not None:
                    self._add(
                        iter_node,
                        "RPD003",
                        f"iterating a bare {kind} in function {func.name!r}, "
                        f"which also touches an rng/stream: the iteration order "
                        f"is hash/insertion-order dependent and leaks into the "
                        f"draw sequence -- iterate sorted(...) or a list",
                    )

    def _touches_rng(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, nodes: Sequence[ast.AST]
    ) -> bool:
        def rng_name(identifier: str) -> bool:
            return identifier == "rng" or identifier.endswith("_rng")

        for arg in list(func.args.args) + list(func.args.kwonlyargs) + list(
            func.args.posonlyargs
        ):
            if rng_name(arg.arg):
                return True
        for node in nodes:
            if isinstance(node, ast.Name) and rng_name(node.id):
                return True
            if isinstance(node, ast.Attribute) and node.attr in (
                "stream",
                "fresh_stream",
            ):
                return True
        return False

    def _hash_ordered_locals(self, nodes: Sequence[ast.AST]) -> Dict[str, str]:
        """Local names assigned a set/dict within the function body."""
        hashy: Dict[str, str] = {}
        for node in nodes:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            kind = self._set_or_dict_expr(value)
            if kind is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    hashy[target.id] = kind
        return hashy

    @staticmethod
    def _set_or_dict_expr(value: ast.expr) -> Optional[str]:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in ("set", "frozenset"):
                return "set"
            if value.func.id == "dict":
                return "dict"
        return None

    def _bare_hash_iteration(
        self, iter_node: ast.expr, hashy: Dict[str, str]
    ) -> Optional[str]:
        kind = self._set_or_dict_expr(iter_node)
        if kind is not None:
            return kind
        if isinstance(iter_node, ast.Name):
            return hashy.get(iter_node.id)
        if isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Attribute):
            method = iter_node.func.attr
            base = iter_node.func.value
            if method in ("keys", "values", "items") and isinstance(base, ast.Name):
                if hashy.get(base.id) == "dict":
                    return "dict"
        return None


def lint_source(path: str, source: str) -> FileLintResult:
    """Lint one file's source text (the unit the fixtures exercise)."""
    return FileLinter(path, source).run()
