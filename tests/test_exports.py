"""Every exported name resolves, so ``from bondkit import *`` (or from any
of its modules) cannot meet a stale ``__all__`` entry, the package exports
exactly its modules' ``__all__`` lists, the pricer signatures stay as they
are, the error taxonomy stays at five types, the maturity rule has one
home, the closed-form core keeps one beta threshold, each approximation
function is written once, every pricer keeps the one call contract of
``approximation._call``, the float overflow rule has one home and each
pricer's name is written once, in ``__all__``."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

from pathlib import Path

import pytest

import bondkit
from bondkit import approximation, closed_form, errors

MODULES = [bondkit] + [importlib.import_module(f"bondkit.{m.name}")
                       for m in pkgutil.iter_modules(bondkit.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_exports_every_module_list():
    # each module's __all__ is the one list of its public names
    joined = [n for module in MODULES[1:] for n in getattr(module, "__all__", ())]
    assert sorted(bondkit.__all__) == sorted(joined)
    assert bondkit.UnstableSolve is errors.UnstableSolve


#: The pricer and coefficient signatures.  The power table a call shares
#: between its monomial tables is private to the call, and the powers a
#: repeated rate array keeps across calls need no argument: no knob.
SIGNATURES = {
    "b_factor": "(beta: 'float', tau: 'float') -> 'float'",
    "q_factor": "(p: 'ModelParams', r)",
    "cw_log_price": "(p: 'ModelParams', tau: 'float', r)",
    "cw_partials": "(p: 'ModelParams', tau: 'float', r)",
    "k4": "(p: 'ModelParams', r)",
    "k5": "(p: 'ModelParams', r)",
    "c5": "(p: 'ModelParams', r)",
    "c5_derivatives": "(p: 'ModelParams', r)",
    "c6": "(p: 'ModelParams', r)",
    "improved_log_price": "(p: 'ModelParams', tau: 'float', r)",
    "pde_residual": "(partials, p: 'ModelParams', tau: 'float', r: 'float')",
}


@pytest.mark.parametrize("name", list(SIGNATURES))
def test_pricer_signatures_unchanged(name):
    assert str(inspect.signature(getattr(approximation, name))) == SIGNATURES[name]


def import_alone(module: str, then: str = "") -> None:
    """Import ``bondkit.<module>`` first in a fresh interpreter, with the
    package's ``__init__`` not run (so its import order decides nothing),
    then run the statement ``then``."""
    code = (
        "import importlib, sys, types\n"
        "pkg = types.ModuleType('bondkit')\n"
        f"pkg.__path__ = [{os.path.dirname(bondkit.__file__)!r}]\n"
        "sys.modules['bondkit'] = pkg\n"
        f"importlib.import_module('bondkit.{module}')\n"
        f"{then}\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(bondkit.__path__)])
def test_each_module_imports_first(module):
    # a module cycle fails whichever of its modules is imported first
    import_alone(module)


def test_approximation_does_not_load_closed_form():
    # the closed forms build on the approximation, not the other way round
    import_alone("approximation", "assert 'bondkit.closed_form' not in sys.modules, sorted(sys.modules)")


#: The error types, one per way a caller (``bondkit.cli.main``) reacts.
ERROR_TYPES = {"BondkitError", "ValidationError", "DomainError", "GammaMismatch", "UnstableSolve"}
SOURCES = sorted(Path(bondkit.__file__).parent.glob("*.py"))


def test_errors_defines_the_five_types():
    tree = ast.parse(Path(errors.__file__).read_text())
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == ERROR_TYPES


def test_approximation_module_constants():
    # one rate floor and one beta threshold (the series switch); B is
    # exact through expm1, so it needs no threshold of its own
    tree = ast.parse(Path(approximation.__file__).read_text())
    names = {ast.unparse(target) for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])}
    assert names == {"__all__", "R_FLOOR", "_SERIES_SWITCH"}


def test_approximation_module_functions():
    # a composite passes its power table to the public functions it is
    # built from, and a caller that keeps the contract itself calls a
    # body (``fn.__wrapped__``), so no public function has a private twin
    tree = ast.parse(Path(approximation.__file__).read_text())
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    public = {n for n in approximation.__all__ if inspect.isfunction(getattr(approximation, n))}
    assert names == public | {"_call", "_beta_brackets", "_q_terms", "_q_and_r2g",
                              "_c5_terms", "_k5_terms", "_c6_terms"}


@pytest.mark.parametrize("module", [approximation, closed_form], ids=lambda m: m.__name__)
def test_every_public_function_is_built_by_call(module):
    # one home for the call contract: the table, the maturity rule and the
    # float rule; so no function opens a table of its own
    tree = ast.parse(Path(module.__file__).read_text())
    decorated = {node.name: [ast.unparse(d) for d in node.decorator_list]
                 for node in tree.body if isinstance(node, ast.FunctionDef) and node.decorator_list}
    public = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
    assert decorated == {name: ["_call"] for name in public}
    for name in public:  # the wrapper _call returns, wherever it is looked up
        assert getattr(module, name).__code__ is approximation.b_factor.__code__
    constructing = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "_Powers"}
    assert constructing == ({"_call"} if module is approximation else set())


def test_overflow_rule_has_one_home():
    # _call, the wrapper of every public function, turns a Python float
    # overflow or zero division into a ValidationError; no function catches
    # either on its own
    named = sorted((source.name, node.id) for source in map(Path, (approximation.__file__, closed_form.__file__))
                   for node in ast.walk(ast.parse(source.read_text()))
                   if isinstance(node, ast.Name) and node.id in ("OverflowError", "ZeroDivisionError"))
    assert named == [("approximation.py", "OverflowError"), ("approximation.py", "ZeroDivisionError")]


@pytest.mark.parametrize("module", [approximation, closed_form], ids=lambda m: m.__name__)
def test_each_pricer_name_is_written_once(module):
    # a refusal takes its name from the power table _call builds, named
    # after the function, so a public name is a string only in __all__
    tree = ast.parse(Path(module.__file__).read_text())
    counts = {name: 0 for name in module.__all__}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in counts:
            counts[node.value] += 1
    assert counts == {name: 1 for name in module.__all__}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_raise_names_an_error_type(source):
    # KeyError is the documented miss of PdeSolution.log_price_at; a bare
    # ``raise`` re-raises what was caught and names nothing new
    raised = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(ast.unparse(exc))
    assert raised <= ERROR_TYPES | {"KeyError"}


def test_maturity_rule_defined_only_in_model():
    # every entry point taking a maturity imports the one rule from model
    defined = {source.name for source in SOURCES
               for node in ast.walk(ast.parse(source.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "_check_maturity"}
    assert defined == {"model.py"}


def _traced_names():
    """The ENTRY_POINTS and METHODS tuples of ``perfbench/spans.py``, read
    from its source without importing it."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    found = {}
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] in (["ENTRY_POINTS"], ["METHODS"]):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    return found["ENTRY_POINTS"], found["METHODS"]


def test_every_traced_name_exists():
    # the benchmark's tracer wraps these names by lookup; a refactor that
    # renames or drops one would break every traced benchmark run
    entry_points, methods = _traced_names()
    assert ("approximation", "approximation", "c6") in entry_points
    for _, module, name in entry_points:
        assert callable(getattr(importlib.import_module(f"bondkit.{module}"), name, None)), (module, name)
    for _, module, cls, name in methods:
        assert callable(getattr(getattr(importlib.import_module(f"bondkit.{module}"), cls, None), name, None)), \
            (module, cls, name)
    assert isinstance(importlib.import_module("bondkit.analysis").METHODS, dict)  # the tracer patches it too
