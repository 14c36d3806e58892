"""The project's own invariants, checked over every module of ``src/repro``.

Neither ruff nor mypy knows these rules, and the results rest on them:

- **determinism**: a seeded run is byte-identical (the fault campaign,
  Fig. 8, the recovery timeline), so nothing reads the wall clock or
  ambient entropy, and the simulation core takes time only from the
  :class:`~repro.sim.clock.SimClock` it is handed;
- **async-blocking**: nothing blocks the event loop that :mod:`repro.net`
  and :mod:`repro.cluster` serve on, and no coroutine goes unawaited;
- **broad-except**: no bare, ``Exception`` or ``BaseException`` catch;
- **sense-policy**: the OSD target answers a failure with a sense code
  on its ``OsdResponse`` (paper Table III), never a raise to the wire loop;
- **seed-plumbing**: RNG state enters the fault, simulation, cluster and
  workload layers as an explicit parameter, never a ``None`` default.

Each checker is a function ``(dotted module, tree) -> [(line, message)]``
that returns nothing for a module outside its scope. Every file is parsed
once, and one test per invariant runs its checker over the whole tree.
There is no waiver comment and no baseline: a finding is fixed, or the
checker is. The cases that show each checker catching its violation, and
staying quiet on the sanctioned form, are in ``tests/analysis/``.
"""

import ast
import functools
import textwrap
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

import repro

SRC = Path(repro.__file__).parent

Found = List[Tuple[int, str]]


def within(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin: ``np`` -> ``numpy``, ``Random`` -> ``random.Random``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                root = item.name.split(".")[0]
                aliases[item.asname or root] = item.name if item.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name != "*":
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def canonical(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The dotted name a Name/Attribute chain resolves to through the imports."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
#: Non-monotonic wall clock: banned everywhere.
WALL_CLOCK = {"time", "time_ns"}
#: Host clocks, banned only inside the simulation core. Outside it the
#: socket layer and the experiment drivers measure host time with them.
HOST_CLOCKS = {
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "thread_time",
    "thread_time_ns",
}
DATETIME_CLASSES = {"datetime.datetime", "datetime.date"}
DATETIME_FNS = {"now", "utcnow", "today"}
#: The operating system's entropy pool, like every ``secrets.*`` function.
OS_ENTROPY = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
#: numpy.random constructors that hold their own state: deterministic with
#: a seed (or, for ``Generator``, a bit generator), ambient entropy bare.
NUMPY_OWN_STATE = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}
#: The simulation core, where the host clocks are banned too. GOLDEN pins
#: the engine's and the trace generator's output bit for bit.
STRICT_PREFIXES = (
    "repro.sim",
    "repro.core",
    "repro.faults",
    "repro.cache",
    "repro.erasure",
    "repro.flash",
    "repro.backend",
    "repro.workload",
)


def determinism(module: str, tree: ast.Module) -> Found:
    """No wall clock or ambient entropy; in the core, no host clock either."""
    if within(module, ("repro.sim.clock",)):  # the sanctioned time source
        return []
    strict = within(module, STRICT_PREFIXES)
    aliases = import_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = canonical(node.func, aliases)
            message = name and _nondeterministic(name, node, strict)
            if message:
                found.append((node.lineno, message))
    return found


def _nondeterministic(name: str, call: ast.Call, strict: bool) -> Optional[str]:
    owner, _, fn = name.rpartition(".")
    if owner == "time":
        if fn in WALL_CLOCK:
            return (
                f"wall-clock call {name}() is non-deterministic; use the "
                "SimClock (simulated code) or time.perf_counter (host timing)"
            )
        if fn in HOST_CLOCKS and strict:
            return (
                f"host-clock call {name}() inside the simulation core; "
                "take time from the SimClock that is passed in"
            )
        return None
    if owner in DATETIME_CLASSES and fn in DATETIME_FNS:
        return (
            f"{name}() reads the wall clock; simulated timestamps must come "
            "from the SimClock"
        )
    if name in OS_ENTROPY or name.startswith("secrets."):
        return (
            f"{name}() draws ambient entropy from the operating system; "
            "derive the value from an explicitly seeded RNG object"
        )
    if name.startswith("random."):
        fn = name[len("random.") :]
        if fn == "Random":
            if not _unseeded(call):
                return None
            return "random.Random() without a seed draws ambient entropy; pass an explicit seed"
        if fn == "SystemRandom" or fn.startswith("SystemRandom."):
            return "random.SystemRandom is ambient entropy; use a seeded Random"
        return (
            f"module-level random.{fn}() uses hidden global RNG state; "
            "use a seeded random.Random object instead"
        )
    if name.startswith("numpy.random."):
        fn = name[len("numpy.random.") :]
        if fn in NUMPY_OWN_STATE:
            if not _unseeded(call):
                return None
            return (
                f"numpy.random.{fn}() without a seed draws ambient entropy; "
                "pass an explicit seed"
            )
        return (
            f"numpy.random.{fn}() touches numpy's global RNG state; use a "
            "seeded numpy.random.default_rng(seed) generator"
        )
    return None


def _unseeded(call: ast.Call) -> bool:
    """``Random()``, and ``Random(None)`` or ``default_rng(seed=None)``:
    a literal ``None`` seed asks for ambient entropy just like no seed."""
    values = call.args + [keyword.value for keyword in call.keywords]
    return all(isinstance(v, ast.Constant) and v.value is None for v in values)


# ----------------------------------------------------------------------
# async-blocking
# ----------------------------------------------------------------------
BLOCKING_PREFIXES = ("socket.", "subprocess.", "urllib.request.", "requests.")
BLOCKING_CALLS = {"time.sleep", "os.system", "os.popen", "os.waitpid", "asyncio.run"}
#: Base classes whose sync methods the event loop calls directly.
PROTOCOL_BASES = {
    "asyncio.BaseProtocol",
    "asyncio.Protocol",
    "asyncio.BufferedProtocol",
    "asyncio.DatagramProtocol",
    "asyncio.SubprocessProtocol",
}


def async_blocking(module: str, tree: ast.Module) -> Found:
    """Nothing blocks the event loop, and no coroutine goes unawaited.

    On the loop means inside an ``async def``, or inside a sync method of an
    asyncio protocol class, which the loop calls as a callback. A nested
    sync ``def`` runs only when called, so its body is off the loop.
    Flagged there: ``time.sleep``, sync sockets, ``open()``, process calls,
    ``asyncio.run``, a statement-level call of a coroutine the module
    defines (by name, or as ``self.<method>()``), and ``await <x>.drain()``
    inside a loop, which defeats the StreamFlusher's write coalescing.
    """
    if not within(module, ("repro.net", "repro.osd.transport", "repro.cluster")):
        return []
    visitor = _EventLoopVisitor(tree)
    visitor.visit(tree)
    return visitor.found


class _EventLoopVisitor(ast.NodeVisitor):
    def __init__(self, tree: ast.Module) -> None:
        self.aliases = import_aliases(tree)
        #: Class name (None: module level) -> the names of its async defs.
        self.coroutines: Dict[Optional[str], set] = {
            None: {n.name for n in tree.body if isinstance(n, ast.AsyncFunctionDef)}
        }
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self.coroutines[node.name] = {
                    n.name for n in node.body if isinstance(n, ast.AsyncFunctionDef)
                }
        self.found: Found = []
        #: "async def" or "event-loop callback" on the loop, None off it.
        self.where: Optional[str] = None
        self.loops = 0
        self.functions = 0
        #: Enclosing classes, innermost last, and whether each is a protocol.
        self.classes: List[Tuple[str, bool]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        protocol = any(canonical(b, self.aliases) in PROTOCOL_BASES for b in node.bases)
        self.classes.append((node.name, protocol))
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        callback = self.functions == 0 and bool(self.classes) and self.classes[-1][1]
        self._visit_function(node, "event-loop callback" if callback else None)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, "async def")

    def _visit_function(self, node: ast.AST, where: Optional[str]) -> None:
        # A nested def runs per call, not per iteration of a loop around it.
        saved = self.where, self.loops
        self.where, self.loops = where, 0
        self.functions += 1
        self.generic_visit(node)
        self.functions -= 1
        self.where, self.loops = saved

    def visit_For(self, node: ast.AST) -> None:
        self.loops += 1
        self.generic_visit(node)
        self.loops -= 1

    visit_AsyncFor = visit_While = visit_For

    def visit_Call(self, node: ast.Call) -> None:
        if self.where:
            message = self._blocking(node)
            if message:
                self.found.append((node.lineno, message))
        self.generic_visit(node)

    def _blocking(self, node: ast.Call) -> Optional[str]:
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            return (
                f"blocking open() inside {self.where}; move file I/O off the "
                "event loop (run_in_executor)"
            )
        name = canonical(node.func, self.aliases)
        if name == "asyncio.run":
            return f"asyncio.run() inside {self.where} nests event loops"
        if name in BLOCKING_CALLS or (name or "").startswith(BLOCKING_PREFIXES):
            hint = " (use asyncio.sleep)" if name == "time.sleep" else ""
            return f"blocking call {name}() inside {self.where} stalls the event loop{hint}"
        return None

    def visit_Await(self, node: ast.Await) -> None:
        call = node.value
        if (
            self.where
            and self.loops
            and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "drain"
        ):
            self.found.append(
                (
                    node.lineno,
                    "await drain() inside a per-command loop defeats write "
                    "coalescing; enqueue on the connection's StreamFlusher, or "
                    "drain once per batch",
                )
            )
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        if self.where and isinstance(node.value, ast.Call):
            func = node.value.func
            coro = None
            if isinstance(func, ast.Name) and func.id in self.coroutines[None]:
                coro = func.id
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and self.classes
                and func.attr in self.coroutines.get(self.classes[-1][0], ())
            ):
                coro = f"self.{func.attr}"
            if coro:
                self.found.append(
                    (
                        node.lineno,
                        f"coroutine {coro}() is called but never awaited; "
                        "await it or wrap it in asyncio.create_task",
                    )
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# broad-except and sense-policy
# ----------------------------------------------------------------------
BROAD = {"Exception", "BaseException", "builtins.Exception", "builtins.BaseException"}


def broad_except(module: str, tree: ast.Module) -> Found:
    """No bare, ``Exception`` or ``BaseException`` catch, alone or in a tuple.

    Such a catch swallows programming errors; ``repro.errors.ReproError``
    exists so that library failures can be caught without ``TypeError``.
    """
    aliases = import_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            caught = ["bare except:"]
        else:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = (canonical(t, aliases) for t in types)
            caught = [f"except {n.rsplit('.', 1)[-1]}" for n in names if n in BROAD]
        if caught:
            found.append(
                (
                    node.lineno,
                    f"{caught[0]} swallows programming errors; catch the "
                    "narrowest ReproError subclass",
                )
            )
    return found


def sense_policy(module: str, tree: ast.Module) -> Found:
    """A method of ``repro.osd.target`` annotated ``-> OsdResponse`` never raises.

    Those methods are the last stop before the wire: a raise there would
    tear down the connection instead of reporting a sense code. Raises in
    nested defs and classes are not the handler's own control flow.
    """
    if not within(module, ("repro.osd.target",)):
        return []
    found = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _returns_osd_response(method.returns):
                continue
            stack: List[ast.AST] = list(method.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if isinstance(node, ast.Raise):
                    found.append(
                        (
                            node.lineno,
                            f"command handler {cls.name}.{method.name} raises "
                            "instead of returning an OsdResponse with a sense "
                            "code (paper Table III)",
                        )
                    )
                stack.extend(ast.iter_child_nodes(node))
    return found


def _returns_osd_response(annotation: Optional[ast.expr]) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id == "OsdResponse"
    if isinstance(annotation, ast.Constant):
        return annotation.value == "OsdResponse"
    return isinstance(annotation, ast.Attribute) and annotation.attr == "OsdResponse"


# ----------------------------------------------------------------------
# seed-plumbing
# ----------------------------------------------------------------------
RNG_PARAMS = {"seed", "rng", "random_state"}


def seed_plumbing(module: str, tree: ast.Module) -> Found:
    """A public function in the seeded layers never defaults its RNG to None.

    ``seed=None`` falls through to ``Random(None)``: every caller that
    forgets the argument runs on ambient entropy, and nothing fails until a
    campaign stops replaying byte for byte. Public means no enclosing class
    or def, nor the def itself, has a leading underscore (``__init__``
    aside). A required parameter or a concrete default is fine.
    """
    if not within(
        module, ("repro.faults", "repro.sim", "repro.cluster", "repro.workload")
    ):
        return []
    found: Found = []

    def visit(node: ast.AST, public: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_public = public
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                child_public = public and (
                    not child.name.startswith("_") or child.name == "__init__"
                )
                if child_public and not isinstance(child, ast.ClassDef):
                    found.extend(_none_rng_defaults(child))
            visit(child, child_public)

    visit(tree, True)
    return found


def _none_rng_defaults(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> Found:
    args = func.args
    positional = args.posonlyargs + args.args
    defaulted = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
    defaulted += zip(args.kwonlyargs, args.kw_defaults)
    return [
        (
            arg.lineno,
            f"parameter {arg.arg!r} of {func.name}() defaults to None "
            "(ambient entropy); require it or default to a concrete seed",
        )
        for arg, default in defaulted
        if arg.arg in RNG_PARAMS
        and isinstance(default, ast.Constant)
        and default.value is None
    ]


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
#: Every checker, by the invariant's name.
CHECKERS = {
    "determinism": determinism,
    "async-blocking": async_blocking,
    "broad-except": broad_except,
    "sense-policy": sense_policy,
    "seed-plumbing": seed_plumbing,
}


def check(module: str, source: str) -> List[Tuple[int, str, str]]:
    """``(line, invariant, message)`` for ``source`` read as the module ``module``."""
    tree = ast.parse(textwrap.dedent(source))
    return sorted(
        (line, name, message)
        for name, checker in CHECKERS.items()
        for line, message in checker(module, tree)
    )


def flagged(module: str, source: str) -> List[Tuple[int, str]]:
    return [(line, name) for line, name, _ in check(module, source)]


@functools.lru_cache(maxsize=None)
def source_tree() -> Tuple[Tuple[str, Path, ast.Module], ...]:
    """``(dotted module, path, tree)`` for every module of ``src/repro``, parsed once."""
    entries = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        entries.append((module, path, ast.parse(path.read_text(encoding="utf-8"), str(path))))
    return tuple(entries)


def test_modules_are_named_by_their_dotted_path():
    # Every scope is a dotted-name prefix: a misnamed module would leave a
    # scoped checker nothing to check, and its test green for nothing.
    named = {module: path for module, path, _ in source_tree()}
    assert named["repro.sim.clock"] == SRC / "sim" / "clock.py"
    assert named["repro.erasure"] == SRC / "erasure" / "__init__.py"
    assert {"repro.osd.target", "repro.osd.transport", "repro.net.server"} <= set(named)


@pytest.mark.parametrize("name", CHECKERS)
def test_src_repro_holds(name):
    root = SRC.parent.parent
    found = [
        f"{path.relative_to(root).as_posix()}:{line}: {message}"
        for module, path, tree in source_tree()
        for line, message in sorted(CHECKERS[name](module, tree))
    ]
    assert found == [], "\n".join(found)
