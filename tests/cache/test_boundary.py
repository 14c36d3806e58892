"""The cache manager reaches storage only through its OSD initiator."""

import ast
import importlib
from pathlib import Path

import repro.cache
from repro.errors import FlashError

from tests.conftest import build_cache

FORBIDDEN = ("repro.flash", "repro.osd.target")


PACKAGE = Path(repro.cache.__file__).parent


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def imported_names(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = importlib.import_module(node.module)
            yield from (getattr(module, alias.name, None) for alias in node.names)


def test_cache_manager_holds_only_its_initiator():
    reaches = [
        (path.name, module)
        for path in sorted(PACKAGE.glob("*.py"))
        for module in imported_modules(path)
        if any(module == name or module.startswith(name + ".") for name in FORBIDDEN)
    ]
    assert reaches == []
    manager = build_cache().manager
    assert not hasattr(manager, "target")
    assert not hasattr(manager, "array")


def test_cache_never_sees_a_flash_error():
    """A full device reaches the manager as sense 0x64, not as an exception."""
    flash_errors = [
        (path.name, name.__name__)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in imported_names(path)
        if isinstance(name, type) and issubclass(name, FlashError)
    ]
    assert flash_errors == []
