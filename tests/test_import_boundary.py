"""One import path per name, and a served process that loads only the serving stack.

Every package ``__init__.py`` is its docstring alone: a name is imported
from the module that defines it, and importing any ``repro`` module runs no
other package's code.

So the served tier (``python -m repro.net``, a cluster shard) never loads
the in-process simulator: no cache manager, no ``ReoCache``, no recovery,
supervisors, health monitor or simulation reporters.
"""

import ast
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: The modules a server or shard process imports.
SERVED = ("repro.net.server", "repro.cluster.service", "repro.osd.wire")

#: Packages whose every module belongs to the in-process simulator.
SIM_PACKAGES = ("repro.cache", "repro.backend", "repro.experiments")

#: Single modules of the simulator, next to packages the server does use.
SIM_MODULES = (
    "repro.core.reo",
    "repro.core.recovery",
    "repro.core.supervisor",
    "repro.core.health",
    "repro.core.hotness",
    "repro.sim.metrics",
    "repro.sim.report",
    "repro.sim.plotting",
    "repro.sim.runner",
)


def test_served_modules_load_no_simulator_module():
    script = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in SERVED)
        + "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        cwd=SRC.parent,
    ).stdout.split()
    assert set(SERVED) <= set(loaded)
    simulator = [
        name
        for name in loaded
        if name in SIM_MODULES or ".".join(name.split(".")[:2]) in SIM_PACKAGES
    ]
    assert simulator == []


def test_package_inits_hold_only_their_docstring():
    inits = sorted(SRC.rglob("__init__.py"))
    assert len(inits) > 10
    extra = {}
    for path in inits:
        tree = ast.parse(path.read_text())
        if ast.get_docstring(tree) is None or len(tree.body) != 1:
            extra[path.relative_to(SRC).as_posix()] = len(tree.body)
    assert extra == {}
