"""Async-blocking rule: the event loop must never be blocked.

The :mod:`repro.net` service layer serves every client connection on one
asyncio event loop; a single synchronous sleep or socket call inside an
``async def`` stalls *all* connections (and the chaos tests' timing).
The :mod:`repro.cluster` layer (router, health probes, supervisor loop)
shares that loop, so it is in scope too — a blocked supervisor cannot
condemn a failing shard, which is exactly the outage the detector exists
to end.
Likewise a coroutine called but never awaited silently does nothing —
the classic "the retry never ran" bug.

Inside ``async def`` bodies in scope this rule flags:

- ``time.sleep()`` — use ``await asyncio.sleep()``;
- synchronous ``socket.*`` calls — use asyncio streams;
- the ``open()`` builtin and ``os.*`` / ``subprocess.*`` process or file
  calls — move blocking I/O off the loop (``run_in_executor``);
- ``asyncio.run()`` — a nested event loop, always a bug in server code;
- bare coroutine calls that are never awaited: statement-level calls of
  ``async def`` functions defined in the same module (either by name or
  as ``self.<method>()``), without ``await`` or a task wrapper;
- ``await <stream>.drain()`` inside a ``for``/``while`` loop — a drain
  per command defeats write coalescing (each one can yield to the
  scheduler and flush a single PDU). Responses belong on the connection's
  :class:`~repro.net.flush.StreamFlusher`, which ships one ``writelines``
  per event-loop tick and awaits nothing.

Nested *synchronous* ``def`` bodies are skipped: they only run when
called, and flagging them here would double-report helper functions.

Synchronous methods of :class:`asyncio.Protocol` /
:class:`asyncio.BufferedProtocol` subclasses are **in scope** despite not
being ``async def``: the event loop invokes ``data_received`` /
``buffer_updated`` / ``connection_made`` and friends directly as
callbacks, so a ``time.sleep`` there stalls the loop exactly like one
inside a coroutine. The rule detects protocol subclasses by their base
class names (resolved through the module's imports) and applies the same
blocking-call and unawaited-coroutine checks to their sync methods.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.engine import Finding, Rule, RuleVisitor

__all__ = ["AsyncBlockingRule"]

#: Canonical dotted prefixes of blocking calls banned inside async defs.
_BLOCKING_PREFIXES = (
    "socket.",
    "subprocess.",
    "urllib.request.",
    "requests.",
)
_BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.popen",
    "os.waitpid",
    "asyncio.run",
}

#: Base classes whose sync methods are event-loop callbacks.
_PROTOCOL_BASES = {
    "asyncio.BaseProtocol",
    "asyncio.Protocol",
    "asyncio.BufferedProtocol",
    "asyncio.DatagramProtocol",
    "asyncio.SubprocessProtocol",
}


class AsyncBlockingRule(Rule):
    rule_id = "async-blocking"
    description = (
        "no blocking calls (time.sleep, sync sockets, file/process I/O) and "
        "no unawaited coroutines inside async def bodies"
    )
    scope = ("repro.net", "repro.osd.transport", "repro.cluster")

    def check(self, module: str, tree: ast.Module, path: str) -> List[Finding]:
        async_defs = _collect_async_defs(tree)
        visitor = _AsyncVisitor(self, module, path, async_defs)
        visitor.collect_imports(tree)
        visitor.visit(tree)
        return visitor.findings


def _collect_async_defs(tree: ast.Module) -> Dict[Optional[str], Set[str]]:
    """Map class name (None = module level) -> names of its async defs."""
    table: Dict[Optional[str], Set[str]] = {None: set()}
    for node in tree.body:
        if isinstance(node, ast.AsyncFunctionDef):
            table[None].add(node.name)
        elif isinstance(node, ast.ClassDef):
            methods = {
                item.name
                for item in node.body
                if isinstance(item, ast.AsyncFunctionDef)
            }
            if methods:
                table[node.name] = methods
    return table


class _AsyncVisitor(RuleVisitor):
    def __init__(
        self,
        rule: Rule,
        module: str,
        path: str,
        async_defs: Dict[Optional[str], Set[str]],
    ) -> None:
        super().__init__(rule, module, path)
        self._async_defs = async_defs
        self._async_depth = 0
        #: How findings name the enclosing context: a coroutine body, or a
        #: protocol class's sync method that the loop calls directly.
        self._where = "async def"
        self._loop_depth = 0
        self._function_depth = 0
        self._class_stack: List[str] = []
        #: Parallel to the class stack: True for asyncio protocol classes,
        #: whose *sync* methods are event-loop callbacks.
        self._protocol_stack: List[bool] = []

    # -- context tracking ------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self._protocol_stack.append(
            any(self.canonical(base) in _PROTOCOL_BASES for base in node.bases)
        )
        super().visit_ClassDef(node)
        self._class_stack.pop()
        self._protocol_stack.pop()

    def _is_protocol_callback(self) -> bool:
        """True when entering a sync method the event loop calls directly."""
        return (
            self._function_depth == 0
            and bool(self._protocol_stack)
            and self._protocol_stack[-1]
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested sync def's body runs outside the awaiting context —
        # except a protocol subclass's methods, which the event loop
        # invokes directly as callbacks.
        depth, self._async_depth = (
            self._async_depth,
            1 if self._is_protocol_callback() else 0,
        )
        where, self._where = self._where, "event-loop callback"
        loops, self._loop_depth = self._loop_depth, 0
        self._function_depth += 1
        super().visit_FunctionDef(node)
        self._function_depth -= 1
        self._async_depth = depth
        self._where = where
        self._loop_depth = loops

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        # A nested def's body runs per *call*, not per iteration of any
        # loop that lexically encloses its definition.
        loops, self._loop_depth = self._loop_depth, 0
        where, self._where = self._where, "async def"
        self._async_depth += 1
        self._function_depth += 1
        super().visit_AsyncFunctionDef(node)
        self._function_depth -= 1
        self._async_depth -= 1
        self._where = where
        self._loop_depth = loops

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    # -- checks ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._async_depth:
            self._check_blocking(node)
        self.generic_visit(node)

    def _check_blocking(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            self.report(
                node,
                f"blocking open() inside {self._where}; move file I/O off the "
                "event loop (run_in_executor)",
            )
            return
        name = self.canonical(node.func)
        if name is None:
            return
        if name == "asyncio.run":
            self.report(node, f"asyncio.run() inside {self._where} nests event loops")
            return
        if name in _BLOCKING_CALLS or any(
            name.startswith(prefix) for prefix in _BLOCKING_PREFIXES
        ):
            hint = " (use asyncio.sleep)" if name == "time.sleep" else ""
            self.report(
                node,
                f"blocking call {name}() inside {self._where} stalls the event "
                f"loop{hint}",
            )

    def visit_Await(self, node: ast.Await) -> None:
        if (
            self._async_depth
            and self._loop_depth
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "drain"
        ):
            self.report(
                node,
                "await drain() inside a per-command loop defeats write "
                "coalescing; enqueue on the connection's StreamFlusher, or "
                "drain once per batch",
            )
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        if self._async_depth and isinstance(node.value, ast.Call):
            coro = self._coroutine_name(node.value.func)
            if coro is not None:
                self.report(
                    node,
                    f"coroutine {coro}() is called but never awaited; "
                    "await it or wrap it in asyncio.create_task",
                )
        self.generic_visit(node)

    def _coroutine_name(self, func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name) and func.id in self._async_defs[None]:
            return func.id
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and self._class_stack
        ):
            methods = self._async_defs.get(self._class_stack[-1], set())
            if func.attr in methods:
                return f"self.{func.attr}"
        return None
