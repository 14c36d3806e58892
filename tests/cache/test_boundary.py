"""The cache manager reaches storage only through its OSD initiator."""

import ast
from pathlib import Path

import repro.cache

from tests.conftest import build_cache

FORBIDDEN = ("repro.flash", "repro.osd.target")


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_cache_manager_holds_only_its_initiator():
    package = Path(repro.cache.__file__).parent
    reaches = [
        (path.name, module)
        for path in sorted(package.glob("*.py"))
        for module in imported_modules(path)
        if any(module == name or module.startswith(name + ".") for name in FORBIDDEN)
    ]
    assert reaches == []
    manager = build_cache().manager
    assert not hasattr(manager, "target")
    assert not hasattr(manager, "array")
