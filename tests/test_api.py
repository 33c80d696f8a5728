"""Every module's ``__all__`` (where it has one) names only what the module
defines, once each, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import nextevent

MODULES = sorted(m.name for m in pkgutil.iter_modules(nextevent.__path__, "nextevent."))


def test_every_module_is_found():
    assert "nextevent.tensor" in MODULES and "nextevent.model" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_repeats(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
