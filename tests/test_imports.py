"""numpy is the only runtime dependency: every module of the package imports
nothing but numpy, the standard library and the package itself."""

import ast
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import nextevent

ALLOWED = {"numpy", "nextevent"} | set(sys.stdlib_module_names)
SOURCES = [
    Path(importlib.util.find_spec(m.name).origin)
    for m in sorted(pkgutil.iter_modules(nextevent.__path__, "nextevent."), key=lambda m: m.name)
]


def _imported_roots(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level name) of every absolute import in ``tree``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_every_source_is_found():
    assert {p.name for p in SOURCES} >= {"model.py", "tensor.py", "events.py"}


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import numpy as np\nfrom scipy import special\nfrom . import tensor\n")
    assert [r for r in _imported_roots(tree) if r[1] not in ALLOWED] == [(2, "scipy")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_numpy_and_the_standard_library(path):
    roots = _imported_roots(ast.parse(path.read_text(), filename=str(path)))
    bad = [f"{path.name}:{line}: {name}" for line, name in roots if name not in ALLOWED]
    assert not bad, f"imports outside numpy and the standard library: {bad}"
