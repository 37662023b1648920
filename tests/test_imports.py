"""Import hygiene and grammar of the package source and the tests, read
with the stdlib ``ast`` only.

Every module, and every test module but the acceptance gate, reads each
name it imports; the package ``__init__`` imports exactly the names of its
``__all__``; and every package and test module parses with the Python 3.10
grammar that ``requires-python`` promises.  The grammar check cannot see a
stdlib API that is newer than 3.10.
"""

import ast
from pathlib import Path

import pytest

import hallharem

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hallharem"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
TEST_DIR = ROOT / "tests"
ALL_TESTS = sorted(p.stem for p in TEST_DIR.glob("*.py"))
TESTS = [s for s in ALL_TESTS if s != "test_acceptance"]


def parse(stem, folder=SRC):
    return ast.parse((folder / f"{stem}.py").read_text(), filename=f"{stem}.py")


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


@pytest.mark.parametrize(
    "folder, stem",
    [(SRC, s) for s in MODULES] + [(TEST_DIR, s) for s in TESTS],
    ids=MODULES + [f"tests.{s}" for s in TESTS],
)
def test_module_reads_every_import(folder, stem):
    tree = parse(stem, folder)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert [n for n in imported_names(tree) if n not in read] == []


@pytest.mark.parametrize(
    "folder, stem",
    [(SRC, s) for s in ["__init__"] + MODULES] + [(TEST_DIR, s) for s in ALL_TESTS],
    ids=["__init__"] + MODULES + [f"tests.{s}" for s in ALL_TESTS],
)
def test_module_parses_with_python_3_10_grammar(folder, stem):
    ast.parse((folder / f"{stem}.py").read_text(), feature_version=(3, 10))


def test_init_imports_exactly_all():
    tree = parse("__init__")
    names = imported_names(tree)
    assert len(names) == len(set(names))
    assert len(hallharem.__all__) == len(set(hallharem.__all__))
    assert set(names) == set(hallharem.__all__)
    assert [n for n in hallharem.__all__ if not hasattr(hallharem, n)] == []
