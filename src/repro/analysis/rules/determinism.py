"""Determinism rule: no wall clock, no ambient entropy.

PR 3's fault campaigns promise byte-identical durability ledgers per seed,
and every simulator result is supposed to be a pure function of
``(workload seed, fault-plan seed, config)``. That only holds if nothing
in the simulated world consults the host: the sanctioned time source is
:class:`repro.sim.clock.SimClock` and the sanctioned randomness is a
seeded ``random.Random`` / ``numpy.random.default_rng(seed)`` object
threaded in from the outside.

Repo-wide, this rule bans the *always-wrong* sources:

- ``time.time()`` / ``time.time_ns()`` — non-monotonic wall clock;
- ``datetime.now()`` / ``utcnow()`` / ``today()`` — wall clock again;
- module-level ``random.*`` functions (``random.random()``,
  ``random.randint()``, ...) — hidden global RNG state;
- ``random.Random()`` / ``numpy.random.default_rng()`` (and the numpy bit
  generators, ``SeedSequence``, ``Generator``) with no seed or an explicit
  ``None`` seed, and ``random.SystemRandom`` — ambient entropy;
- ``os.urandom()``, ``uuid.uuid1()`` / ``uuid.uuid4()`` and anything in
  ``secrets`` — the operating system's entropy pool, by another name;
- ``numpy.random.seed()`` and the legacy ``numpy.random.<dist>()``
  global-state API.

Inside the simulation core (``repro.sim``, ``repro.core``,
``repro.faults``, ``repro.cache``, ``repro.erasure``, ``repro.flash``,
``repro.backend``, ``repro.workload``) it additionally bans
the monotonic host clocks (``time.monotonic``, ``time.perf_counter``,
``time.process_time``, ``time.thread_time``): simulated code must take
time from the :class:`~repro.sim.clock.SimClock` it is handed, full stop.
``repro.sim.clock`` itself is exempt — it *is* the sanctioned source.

``time.perf_counter`` stays legal outside the core because the socket
layer and experiment drivers genuinely measure host elapsed time.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.engine import Finding, Rule, RuleVisitor, _matches_any

__all__ = ["DeterminismRule"]

#: Non-monotonic wall clock: banned everywhere.
_WALL_CLOCK = {"time", "time_ns"}
#: Host clocks banned only inside the simulation core.
_HOST_CLOCKS = {
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "thread_time",
    "thread_time_ns",
}
_DATETIME_CLASSES = {"datetime.datetime", "datetime.date"}
_DATETIME_FNS = {"now", "utcnow", "today"}
#: The operating system's entropy pool: banned everywhere, like
#: ``random.SystemRandom`` (every ``secrets.*`` function draws from it too).
_OS_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}

#: numpy.random constructors that hold their own state: deterministic when
#: given a seed (or, for ``Generator``, a bit generator), ambient entropy
#: when called bare.
_NUMPY_OWN_STATE = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: Subtrees where the strict (host-clock) checks also apply.
_STRICT_PREFIXES = (
    "repro.sim",
    "repro.core",
    "repro.faults",
    "repro.cache",
    "repro.erasure",
    "repro.flash",
    "repro.backend",
    "repro.workload",
)


class DeterminismRule(Rule):
    rule_id = "determinism"
    description = (
        "no wall clock or ambient entropy; simulated code takes time from "
        "SimClock and randomness from an explicitly seeded RNG object"
    )
    scope = ()  # repo-wide; the strict extras apply within _STRICT_PREFIXES
    exempt = ("repro.sim.clock",)

    def check(self, module: str, tree: ast.Module, path: str) -> List[Finding]:
        visitor = _DeterminismVisitor(self, module, path)
        visitor.collect_imports(tree)
        visitor.visit(tree)
        return visitor.findings


class _DeterminismVisitor(RuleVisitor):
    def __init__(self, rule: Rule, module: str, path: str) -> None:
        super().__init__(rule, module, path)
        self.strict = _matches_any(module, _STRICT_PREFIXES)

    def visit_Call(self, node: ast.Call) -> None:
        name = self.canonical(node.func)
        if name is not None:
            self._check_call(node, name)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str) -> None:
        if name.startswith("time."):
            fn = name[len("time.") :]
            if fn in _WALL_CLOCK:
                self.report(
                    node,
                    f"wall-clock call {name}() is non-deterministic; use the "
                    "SimClock (simulated code) or time.perf_counter (host timing)",
                )
            elif fn in _HOST_CLOCKS and self.strict:
                self.report(
                    node,
                    f"host-clock call {name}() inside the simulation core; "
                    "take time from the SimClock that is passed in",
                )
            return
        if self._is_datetime_call(name):
            self.report(
                node,
                f"{name}() reads the wall clock; simulated timestamps must "
                "come from the SimClock",
            )
            return
        if name in _OS_ENTROPY or name.startswith("secrets."):
            self.report(
                node,
                f"{name}() draws ambient entropy from the operating system; "
                "derive the value from an explicitly seeded RNG object",
            )
            return
        if name.startswith("random."):
            self._check_random(node, name[len("random.") :])
            return
        if name.startswith("numpy.random."):
            self._check_numpy_random(node, name[len("numpy.random.") :])

    @staticmethod
    def _is_datetime_call(name: str) -> bool:
        for cls in _DATETIME_CLASSES:
            prefix = cls + "."
            if name.startswith(prefix) and name[len(prefix) :] in _DATETIME_FNS:
                return True
        # `from datetime import datetime` resolves to "datetime.datetime",
        # so calls arrive as "datetime.datetime.now" either way; a bare
        # `import datetime` spelling gives "datetime.date.today" too.
        return False

    def _check_random(self, node: ast.Call, fn: str) -> None:
        if fn == "Random":
            if _unseeded(node):
                self.report(
                    node,
                    "random.Random() without a seed draws ambient entropy; "
                    "pass an explicit seed",
                )
            return
        if fn == "SystemRandom" or fn.startswith("SystemRandom."):
            self.report(
                node, "random.SystemRandom is ambient entropy; use a seeded Random"
            )
            return
        self.report(
            node,
            f"module-level random.{fn}() uses hidden global RNG state; "
            "use a seeded random.Random object instead",
        )

    def _check_numpy_random(self, node: ast.Call, fn: str) -> None:
        if fn in _NUMPY_OWN_STATE:
            if _unseeded(node):
                self.report(
                    node,
                    f"numpy.random.{fn}() without a seed draws ambient "
                    "entropy; pass an explicit seed",
                )
            return
        self.report(
            node,
            f"numpy.random.{fn}() touches numpy's global RNG state; use a "
            "seeded numpy.random.default_rng(seed) generator",
        )


def _unseeded(node: ast.Call) -> bool:
    """True for ``Random()`` and for ``Random(None)`` / ``default_rng(seed=None)``:
    a literal ``None`` seed asks for ambient entropy just like no seed."""
    values = node.args + [keyword.value for keyword in node.keywords]
    return all(
        isinstance(value, ast.Constant) and value.value is None for value in values
    )
