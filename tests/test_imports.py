"""numpy is the only runtime dependency: every module of the package imports
nothing but numpy, the standard library and the package itself. Only
``errors`` imports ``numbers``, so the scalar input rules have one home. And
every name ``tensor``, ``hierarchy`` or ``encoding`` exports has a caller in
the package, and every name ``events`` exports one in the package, ``bench/``
or ``tools/``, so a helper that only tests call is not public API."""

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
# The benchmark and the tools, less the benchmark's tests.
ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(p for d in ("bench", "tools") for p in (ROOT / d).glob("*.py")
                 if not p.name.startswith("test_"))


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


def _names_used(tree: ast.AST, module: str) -> set[str]:
    """Names of ``nextevent.<module>`` a module reaches through ``from . import
    <module> as X`` or ``from nextevent import <module> as X`` (as
    ``X.<name>``), or ``from .<module> import <name>``."""
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, None), (0, "nextevent")):
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
            elif (node.level, node.module) == (1, module):
                used |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_the_check_sees_the_absolute_import_form():
    tree = ast.parse("from nextevent import events as E\nE.make_examples(s, 2)\n")
    assert _names_used(tree, "events") == {"make_examples"}


@pytest.mark.parametrize("module", ["tensor", "hierarchy", "encoding", "events", "errors"])
def test_every_export_is_used_by_the_package(module):
    used = set()
    for path in SOURCES + (CALLERS if module == "events" else []):
        if path.name != f"{module}.py":
            used |= _names_used(ast.parse(path.read_text(), filename=str(path)), module)
    unused = set(importlib.import_module(f"nextevent.{module}").__all__) - used
    assert not unused, f"{module}.__all__ names what only tests use: {sorted(unused)}"
