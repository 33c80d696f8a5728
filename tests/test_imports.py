"""numpy is the only runtime dependency: every module of the package imports
nothing but numpy, the standard library and the package itself. Only
``errors`` imports ``numbers``, so the scalar input rules have one home. And
every name ``tensor`` exports has a caller in the package."""

import ast
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import nextevent
from nextevent import tensor

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_errors_imports_numbers(path):
    roots = _imported_roots(ast.parse(path.read_text(), filename=str(path)))
    lines = [line for line, name in roots if name == "numbers"]
    assert path.name == "errors.py" or not lines, (
        f"{path.name}:{lines}: imports numbers; check scalars with the helpers in errors.py")


def _tensor_names_used(tree: ast.AST) -> set[str]:
    """Names of ``nextevent.tensor`` a module reaches through ``from . import
    tensor as T`` (as ``T.<name>``) or ``from .tensor import <name>``."""
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == "tensor"}
            elif node.module == "tensor":
                used |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_every_tensor_export_is_used_by_the_package():
    used = set()
    for path in SOURCES:
        if path.name != "tensor.py":
            used |= _tensor_names_used(ast.parse(path.read_text(), filename=str(path)))
    unused = set(tensor.__all__) - used
    assert not unused, f"tensor.__all__ names nothing in the package uses: {sorted(unused)}"
