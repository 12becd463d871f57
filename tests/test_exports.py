"""Every exported name resolves, so ``from bondkit import *`` (or from any
of its modules) cannot meet a stale ``__all__`` entry, and the pricer
signatures stay as they are."""

import importlib
import inspect
import pkgutil

import pytest

import bondkit
from bondkit import approximation

MODULES = [bondkit] + [importlib.import_module(f"bondkit.{m.name}")
                       for m in pkgutil.iter_modules(bondkit.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


#: The pricer and coefficient signatures.  The power table a call shares
#: between its monomial tables is private to the call: no knob, no cache.
SIGNATURES = {
    "q_factor": "(p: 'ModelParams', r)",
    "cw_log_price": "(p: 'ModelParams', tau: 'float', r)",
    "cw_partials": "(p: 'ModelParams', tau: 'float', r)",
    "k4": "(p: 'ModelParams', r)",
    "k5": "(p: 'ModelParams', r)",
    "c5": "(p: 'ModelParams', r)",
    "c5_derivatives": "(p: 'ModelParams', r)",
    "c6": "(p: 'ModelParams', r)",
    "improved_log_price": "(p: 'ModelParams', tau: 'float', r)",
}


@pytest.mark.parametrize("name", list(SIGNATURES))
def test_pricer_signatures_unchanged(name):
    assert str(inspect.signature(getattr(approximation, name))) == SIGNATURES[name]
