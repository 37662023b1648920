"""Import hygiene of the package source, read with the stdlib ``ast`` only.

Every module reads each name it imports, and the package ``__init__``
imports exactly the names of its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import hallharem

SRC = Path(__file__).resolve().parents[1] / "src" / "hallharem"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def parse(stem):
    return ast.parse((SRC / f"{stem}.py").read_text(), filename=f"{stem}.py")


def imported_names(tree):
    """Names bound by the module's imports; a dotted ``import a.b`` binds
    ``a``.  ``from __future__`` binds nothing."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("stem", MODULES)
def test_module_reads_every_import(stem):
    tree = parse(stem)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert [n for n in imported_names(tree) if n not in read] == []


def test_init_imports_exactly_all():
    tree = parse("__init__")
    names = imported_names(tree)
    assert len(names) == len(set(names))
    assert len(hallharem.__all__) == len(set(hallharem.__all__))
    assert set(names) == set(hallharem.__all__)
    assert [n for n in hallharem.__all__ if not hasattr(hallharem, n)] == []
