"""The invariant-lint engine: rules, file walking, reporters.

The codebase rests on invariants that neither ruff nor mypy can see:

- simulation results must be a pure function of the seed (no wall clock,
  no ambient entropy) so fault campaigns stay byte-identical per seed;
- the :mod:`repro.net` asyncio layer must never block the event loop;
- the OSD target maps internal failures to T10 sense codes (paper
  Table III) instead of leaking exceptions onto the wire;
- anything in ``faults/`` or ``sim/`` that consumes randomness must be
  handed its seed explicitly.

This module is the project-specific checker that enforces them. It is a
thin AST pipeline: every rule is an :class:`ast.NodeVisitor` subclass
registered with an id, each Python file is parsed once and handed to every
rule whose scope covers it, and the resulting :class:`Finding` list is
sorted and reported. There is no waiver comment and no baseline file: a
finding is fixed, or the rule is.

Design points:

- **Scoping is by dotted module path**, derived from the file path (the
  part at and below the last ``repro`` directory), so rules read like
  the invariants they encode: "no wall clock under ``repro.sim``".
- **Reports are deterministic**: files are walked in sorted order,
  findings are sorted, and the JSON reporter emits sorted keys, so CI
  output is stable across runs and machines.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "AnalysisReport",
    "Finding",
    "Rule",
    "RuleVisitor",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "module_of",
    "render_json",
    "render_text",
]

_REPORT_VERSION = 1


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: Dotted name of the enclosing class/function, or "" at module level.
    symbol: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "symbol": self.symbol,
            "message": self.message,
        }


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id`, :attr:`description`, and optionally
    :attr:`scope`/:attr:`exempt` (dotted-module prefixes), then implement
    :meth:`check`.
    """

    rule_id: str = ""
    description: str = ""
    #: Dotted-module prefixes the rule applies to. Empty = every module.
    scope: Tuple[str, ...] = ()
    #: Dotted modules exempt from the rule (exact match or subpackage).
    exempt: Tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if _matches_any(module, self.exempt):
            return False
        return not self.scope or _matches_any(module, self.scope)

    def check(self, module: str, tree: ast.Module, path: str) -> List[Finding]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rule_id!r})"


def _matches_any(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class RuleVisitor(ast.NodeVisitor):
    """Shared visitor base: symbol stack, import-alias map, reporting.

    Tracks the enclosing class/function stack so findings carry a stable
    ``symbol``, and resolves ``import x as y`` / ``from x import y``
    aliases so rules can match calls by their canonical dotted name
    regardless of local spelling.
    """

    def __init__(self, rule: Rule, module: str, path: str) -> None:
        self.rule = rule
        self.module = module
        self.path = path
        self.findings: List[Finding] = []
        self._symbols: List[str] = []
        #: local name -> canonical dotted origin ("np" -> "numpy",
        #: "Random" -> "random.Random").
        self.aliases: Dict[str, str] = {}

    # -- alias collection ------------------------------------------------
    def collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = item.asname or item.name.split(".")[0]
                    origin = item.name if item.asname else item.name.split(".")[0]
                    self.aliases[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for item in node.names:
                    if item.name == "*":
                        continue
                    local = item.asname or item.name
                    self.aliases[local] = f"{node.module}.{item.name}"

    def canonical(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to its canonical dotted name."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    # -- symbol stack ----------------------------------------------------
    def _push(self, name: str) -> None:
        self._symbols.append(name)

    def _pop(self) -> None:
        self._symbols.pop()

    @property
    def symbol(self) -> str:
        return ".".join(self._symbols)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._push(node.name)
        self.generic_visit(node)
        self._pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._push(node.name)
        self.generic_visit(node)
        self._pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._push(node.name)
        self.generic_visit(node)
        self._pop()

    # -- reporting -------------------------------------------------------
    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                rule_id=self.rule.rule_id,
                message=message,
                symbol=self.symbol,
            )
        )


# ----------------------------------------------------------------------
# File discovery and module naming
# ----------------------------------------------------------------------
def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    files: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in candidate.parts
                ):
                    continue
                files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def module_of(path: Path) -> str:
    """Dotted module name for scoping: the path at and below ``repro``.

    ``src/repro/sim/clock.py`` -> ``repro.sim.clock``. Files outside any
    ``repro`` directory get their bare stem, which scoped rules ignore.
    """
    parts = list(Path(path).parts)
    stem = Path(path).stem
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = list(parts[anchor:-1])
        if stem != "__init__":
            dotted.append(stem)
        return ".".join(dotted)
    return stem


def _display_path(path: Path, root: Optional[Path]) -> str:
    path = Path(path)
    if root is not None:
        try:
            return path.resolve().relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def analyze_source(
    source: str,
    path: Path,
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> List[Finding]:
    """Run every in-scope rule over one file's source text."""
    display = _display_path(path, root)
    module = module_of(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                path=display,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule_id="parse-error",
                message=f"cannot parse file: {exc.msg}",
            )
        ]
    findings: List[Finding] = []
    for rule in rules:
        if rule.applies_to(module):
            findings.extend(rule.check(module, tree, display))
    return findings


@dataclass
class AnalysisReport:
    """Outcome of one engine run."""

    findings: List[Finding]
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def analyze_paths(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> AnalysisReport:
    """Analyze files/directories; every file is parsed exactly once."""
    files = iter_python_files(paths)
    findings: List[Finding] = []
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        findings.extend(analyze_source(source, file_path, rules, root))
    findings.sort()
    return AnalysisReport(findings=findings, files_checked=len(files))


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def render_text(report: AnalysisReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule_id}: {f.message}"
        + (f" [{f.symbol}]" if f.symbol else "")
        for f in report.findings
    ]
    lines.append(
        f"{len(report.findings)} finding(s) in {report.files_checked} file(s)"
    )
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable report; byte-stable across runs for identical input."""
    payload = {
        "version": _REPORT_VERSION,
        "files_checked": report.files_checked,
        "findings": [f.to_dict() for f in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
