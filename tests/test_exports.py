"""Every name a package lists in ``__all__`` resolves, so a class deleted
from a module cannot linger in an export list, and no module imports a name
it never uses."""

import ast
import importlib
import pathlib

import pytest

PACKAGES = [
    "toricnet.exactcore",
    "toricnet.ncsf",
    "toricnet.hopfdiff",
    "toricnet.freeprob",
    "toricnet.crn",
    "toricnet.torictop",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_crn_exports_tree_constant_texts():
    # the text path crn trees prints sits beside tree_constants
    crn = importlib.import_module("toricnet.crn")
    assert {"tree_constant_texts", "tree_constants"} <= set(crn.__all__)


def _unused_imports(path: pathlib.Path, root: pathlib.Path) -> list[str]:
    """Module-level imports of ``path`` whose bound name is never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(root).as_posix()
    return [f"{rel}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_unused_module_imports():
    # package __init__ modules import to re-export, so they are left out
    root = pathlib.Path(importlib.import_module("toricnet").__file__).parent
    modules = sorted(p for p in root.rglob("*.py") if p.name != "__init__.py")
    assert modules
    assert [hit for p in modules for hit in _unused_imports(p, root)] == []
