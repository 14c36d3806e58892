"""Exception-policy rules: no broad excepts, no raises past the sense map.

Two related invariants:

- **broad-except** — ``except:`` / ``except Exception`` swallows
  programming errors (the reason :class:`repro.errors.ReproError` exists
  is so library failures can be caught *without* catching ``TypeError``).
  The only legitimate broad catches are rollback sites that re-raise
  after undoing partial state; those are named in an explicit allowlist.

- **sense-policy** — the OSD target's command handlers are the last stop
  before the wire: every internal failure must be converted into a T10
  sense code on an :class:`~repro.osd.target.OsdResponse` (paper
  Table III), never raised to the server loop, where it would tear down
  the connection instead of reporting ``0x63``. Concretely: a method of
  ``repro.osd.target`` whose return annotation is ``OsdResponse`` must
  not contain a ``raise`` statement.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from repro.analysis.engine import Finding, Rule, RuleVisitor

__all__ = ["BroadExceptRule", "SensePolicyRule"]

_BROAD = {"Exception", "BaseException", "builtins.Exception", "builtins.BaseException"}


class BroadExceptRule(Rule):
    rule_id = "broad-except"
    description = (
        "no bare or Exception-wide except clauses outside allowlisted "
        "rollback sites; catch the narrowest ReproError subclass"
    )
    scope = ()  # repo-wide

    #: ``"module:symbol"`` sites permitted to catch broadly (rollback code
    #: that re-raises). Currently empty — narrow catches everywhere.
    allowed_sites: Tuple[str, ...] = ()

    def check(self, module: str, tree: ast.Module, path: str) -> List[Finding]:
        visitor = _BroadExceptVisitor(self, module, path)
        visitor.collect_imports(tree)
        visitor.visit(tree)
        return visitor.findings


class _BroadExceptVisitor(RuleVisitor):
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = self._broad_name(node.type)
        if broad is not None:
            site = f"{self.module}:{self.symbol}"
            if site not in self.rule.allowed_sites:  # type: ignore[attr-defined]
                self.report(
                    node,
                    f"{broad} swallows programming errors; catch the "
                    "narrowest ReproError subclass (or allowlist this "
                    "rollback site)",
                )
        self.generic_visit(node)

    def _broad_name(self, type_node: Optional[ast.expr]) -> Optional[str]:
        if type_node is None:
            return "bare except:"
        candidates = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for candidate in candidates:
            name = self.canonical(candidate)
            if name in _BROAD:
                return f"except {name.rsplit('.', 1)[-1]}"
        return None


class SensePolicyRule(Rule):
    rule_id = "sense-policy"
    description = (
        "OsdTarget command handlers (methods returning OsdResponse) must "
        "map internal errors to sense codes, never raise to the wire loop"
    )
    scope = ("repro.osd.target",)

    def check(self, module: str, tree: ast.Module, path: str) -> List[Finding]:
        findings: List[Finding] = []
        for class_node in tree.body:
            if not isinstance(class_node, ast.ClassDef):
                continue
            for item in class_node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _returns_osd_response(item):
                        findings.extend(
                            _raises_in(item, class_node.name, self, path)
                        )
        return findings


def _returns_osd_response(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    annotation = node.returns
    if isinstance(annotation, ast.Name):
        return annotation.id == "OsdResponse"
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value == "OsdResponse"
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "OsdResponse"
    return False


def _raises_in(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
    class_name: str,
    rule: Rule,
    path: str,
) -> List[Finding]:
    """Raise statements lexically inside ``func`` but not in nested defs."""
    findings: List[Finding] = []
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested scope: not this handler's control flow
        if isinstance(node, ast.Raise):
            findings.append(
                Finding(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id=rule.rule_id,
                    message=(
                        "command handler raises instead of returning an "
                        "OsdResponse with a sense code (paper Table III)"
                    ),
                    symbol=f"{class_name}.{func.name}",
                )
            )
        stack.extend(ast.iter_child_nodes(node))
    return findings
