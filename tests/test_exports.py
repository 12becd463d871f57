"""Every exported name resolves, so ``from bondkit import *`` (or from any
of its modules) cannot meet a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import bondkit

MODULES = [bondkit] + [importlib.import_module(f"bondkit.{m.name}")
                       for m in pkgutil.iter_modules(bondkit.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
