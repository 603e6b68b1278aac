"""Every module of the package uses every name it imports, and only
laurent.py reads its packing threshold and private helpers.

No linter is part of the toolchain, so this parses each module with the
standard library's ast and fails on an import left behind by a change,
or on a module that decides for laurent when to pack.
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


def laurent_internals(tree: ast.Module) -> list[str]:
    """Names imported from the laurent module that belong to it alone:
    PACK_MIN_TERMS, which decides when to pack, and any _-prefixed name."""
    return sorted(
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "laurent"
        for a in node.names
        if a.name == "PACK_MIN_TERMS" or a.name.startswith("_")
    )


def test_laurent_internals_detector_bites():
    tree = ast.parse(
        "from .laurent import PACK_MIN_TERMS, LaurentPolynomial, _pack\n"
        "from clustermut.laurent import _divide\n"
        "from .seeds import _private\n"
    )
    assert laurent_internals(tree) == ["PACK_MIN_TERMS", "_divide", "_pack"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "laurent.py"))
def test_only_laurent_reads_its_packing_internals(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert laurent_internals(tree) == []
