"""Every module of the package uses every name it imports and every
private name it defines, and only laurent.py reads its private helpers.

No linter is part of the toolchain, so this parses each module with the
standard library's ast and fails on an import left behind by a change, on
a private function, class or constant that nothing in its module reads any
more, or on a module that reaches into laurent's packed kernel.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clustermut"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    # an attribute chain such as os.path.join starts with the Name os
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_import_detector_bites():
    tree = ast.parse("from typing import Sequence\nimport os.path\nos.path.join('a')\n")
    assert unused_imports(tree) == ["Sequence"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert unused_imports(tree) == []


def dead_private_names(tree: ast.Module) -> list[str]:
    """Single-underscore functions, classes and constants defined at the
    top level of a module that no expression of the module reads."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(name for name in defined - read if name.startswith("_") and not name.startswith("__"))


def test_dead_private_name_detector_bites():
    tree = ast.parse(
        "__all__ = []\n_used, _dead = 1, 2\n_typed: int = 3\n"
        "def _called():\n    return _used + _typed\n"
        "def _never():\n    pass\n"
        "class _Base:\n    _attr = 4\n"
        "class _Unread(_Base):\n    pass\n"
        "@_called\ndef public():\n    _local = 5\n"
    )
    assert dead_private_names(tree) == ["_Unread", "_dead", "_never"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_private_name_it_defines(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert dead_private_names(tree) == []


def laurent_internals(tree: ast.Module) -> list[str]:
    """The _-prefixed names imported from the laurent module, which belong
    to it alone."""
    return sorted(
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "laurent"
        for a in node.names
        if a.name.startswith("_")
    )


def test_laurent_internals_detector_bites():
    tree = ast.parse(
        "from .laurent import LaurentPolynomial, _pack\n"
        "from clustermut.laurent import _divide\n"
        "from .seeds import _private\n"
    )
    assert laurent_internals(tree) == ["_divide", "_pack"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "laurent.py"))
def test_only_laurent_reads_its_packing_internals(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert laurent_internals(tree) == []
