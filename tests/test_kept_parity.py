"""Cold/warm parity of the values kept across calls.

A sweep of every public pricer, partials and coefficient function, and of
``pde_residual`` with each partials, over a few parameter sets, maturities
and rates (scalar, NaN and negative rates, and 1501-node arrays from 0,
from 1e-6 and with one NaN or negative rate).  With NumPy's
warnings ignored (what default filters do to a call: they only print them),
raised as errors (``-W error``) and under ``np.errstate(all="raise")``, every
call must give the outcome of a call on an empty ``_Powers._kept``, its
parameter sets' monomial tables included (value bits, type, shape and
writeable flag, or refusal type and message), also when the store was filled
under another mode: a value kept while warnings are ignored must not let a
call pass that ``-W error`` refuses, nor the other way round.  A warm
improved curve makes no term, so it skips the terms' rate checks, which
pass on a grid whose bundle was kept; a kept bundle met at a maturity where
cw overflows must still give the cold refusal.

``_parity_sweep.py`` writes the same kind of record for a whole tree, to
compare two trees.
"""

import warnings

import numpy as np
import pytest

from bondkit import (
    ModelParams,
    ValidationError,
    b_factor,
    c5,
    c5_derivatives,
    c6,
    cir_log_price,
    cir_partials,
    cw_log_price,
    cw_partials,
    improved_log_price,
    k4,
    k5,
    pde_residual,
    q_factor,
    vasicek_log_price,
    vasicek_partials,
)
from bondkit.approximation import _Powers

TAU_FREE = (q_factor, k4, k5, c5, c5_derivatives, c6)
WITH_TAU = (cw_log_price, cw_partials, improved_log_price, vasicek_log_price, vasicek_partials,
            cir_log_price, cir_partials)
PARAMS = [ModelParams(0.00315, beta, sigma, gamma)
          for sigma, beta in ((0.0894, -0.0555), (1e100, -0.0555), (0.0894, 0.0))
          for gamma in (0.0, 0.5, 0.75, 1.32)]
PARAMS.append(ModelParams(0.00315, -0.0555, 1e160, 0.75))  # q, the first nested term, overflows
TAUS = (1.0, 1e52)


def _grid(low=0.0, bad=None):
    r = np.linspace(low, 0.15, 1501)
    if bad is not None:
        r[700] = bad
    return r


RATES = (0.05, float("nan"), -0.01, _grid(), _grid(1e-6), _grid(bad=np.nan), _grid(bad=-0.01))
#: The functions that keep tau-free terms for a repeated rate array.
BUNDLED = ("cw_log_price", "cw_partials", "improved_log_price")


def _calls(params):
    """(label, call) for every case of the sweep over ``params``."""
    for p in params:
        for tau in TAUS:
            yield ("b_factor", p, tau), lambda p=p, tau=tau: b_factor(p.beta, tau)
        for k, r in enumerate(RATES):
            for fn in TAU_FREE:
                yield (fn.__name__, p, k), lambda fn=fn, p=p, r=r: fn(p, r)
            for tau in TAUS:
                for fn in WITH_TAU:
                    yield (fn.__name__, p, tau, k), lambda fn=fn, p=p, tau=tau, r=r: fn(p, tau, r)
                for partials in (cw_partials, cir_partials, vasicek_partials):
                    yield (("pde_residual", partials.__name__, p, tau, k),
                           lambda partials=partials, p=p, tau=tau, r=r: pde_residual(partials, p, tau, r))


CALLS = list(_calls(PARAMS))
#: The same calls with each parameter a NumPy float64.
CALLS_NP = list(_calls([ModelParams(*map(np.float64, (p.alpha, p.beta, p.sigma, p.gamma))) for p in PARAMS]))


def _outcome(call, action):
    """The outcome of ``call`` with NumPy's warnings ignored (``ignore``), raised
    as errors (``error``) or under ``np.errstate(all="raise")`` (``raise``)."""
    with warnings.catch_warnings(), np.errstate(all="raise" if action == "raise" else None):
        warnings.simplefilter("error" if action == "error" else "ignore")
        try:
            out = call()
        except Exception as e:  # noqa: BLE001 - a refusal is an outcome too
            return type(e), str(e)
    return tuple((type(v), np.shape(v), np.asarray(v).tobytes(), getattr(v, "flags", None) and v.flags.writeable)
                 for v in (out if isinstance(out, tuple) else (out,)))


def _kept():
    """(key, array) for every value _Powers._kept holds: a power under its
    exponent, each term of a bundle under p's bits."""
    for _, _, entries in _Powers._kept._arrays.values():
        for key, value in entries.items():
            for v in value.values() if type(value) is dict else (value,):
                yield key, v


@pytest.mark.parametrize("action, other", [("ignore", "error"), ("error", "ignore"), ("raise", "ignore")])
def test_warm_store_gives_the_cold_outcome(action, other):
    cold, warm, hits, tables = [], [], 0, 0
    for label, call in CALLS:
        _Powers._kept.cache_clear()
        assert not _Powers._kept._params  # a cold call builds its tables
        cold.append(_outcome(call, action))
        _Powers._kept.cache_clear()
        for _ in range(2):  # the first call sights an array, the second keeps values
            filled = _outcome(call, other)
        kept = list(_kept())
        assert all(np.isfinite(v).all() for _, v in kept)  # only what passed its checks
        # a bundle is kept exactly where a call of a BUNDLED function (alone
        # or as pde_residual's partials) on an array at gamma != 0 passed
        keeps = (label[0] in BUNDLED or label[1:2] == ("cw_partials",)) and label[-1] >= 3 \
            and next(q for q in label if isinstance(q, ModelParams)).gamma != 0 and type(filled[0]) is tuple
        assert any(type(key) is bytes for key, _ in kept) == keeps, label
        hits += keeps
        tables += any(_Powers._kept._params.values())
        warm.append(_outcome(call, action))
    assert [label for (label, _), c, w in zip(CALLS, cold, warm) if c != w] == []
    # the sweep gives values and refusals of each kind, and takes kept results
    refused = {o[0].__name__ for o in cold if type(o[0]) is not tuple}
    assert {"DomainError", "ValidationError", "GammaMismatch"} <= refused
    assert sum(type(o[0]) is tuple for o in cold) > 600 and hits >= 70 and tables > 500


def test_numpy_float_parameters_give_the_python_floats_outcome():
    # np.float64 subclasses float and has a Python float's bits: such
    # parameters key the store like the Python floats, and under -W error
    # (where a NumPy float's overflow warns and a Python float's does not)
    # they give the Python floats' outcome, cold and warm, where the warm
    # call reads what two calls with the Python floats kept
    kept, hits = _Powers._kept, 0
    for (label, call), (_, call_np) in zip(CALLS, CALLS_NP):
        kept.cache_clear()
        want = _outcome(call, "error")
        kept.cache_clear()
        assert _outcome(call_np, "error") == want, label
        kept.cache_clear()
        for _ in range(2):
            _outcome(call, "error")
        hits += any(type(key) is bytes for _, _, entries in kept._arrays.values() for key in entries)
        assert _outcome(call_np, "error") == want, label
    assert hits >= 70


def test_sweep_covers_every_public_function():
    assert {label[0] for label, _ in CALLS} == {fn.__name__ for fn in (b_factor, pde_residual, *TAU_FREE, *WITH_TAU)}


FLOOR_GRID = np.linspace(1e-6, 0.15, 1501)


@pytest.mark.parametrize("gamma", [0.75, 1.32])
@pytest.mark.parametrize("form", ["curve", "point"])
def test_a_calibration_loop_gives_the_cold_outcome(gamma, form):
    # alpha, beta and sigma redrawn on every call, as a calibration does:
    # no parameter set repeats, so every call misses the tau-free terms
    # and tables, fills the store and must still give a cold call's outcome
    rng = np.random.default_rng(int(gamma * 100))
    calls = []
    for _ in range(100):
        a, b, s = (float(v * rng.uniform(0.5, 1.5)) for v in (0.00315, -0.0555, 0.0894))
        p = ModelParams(a, b, s, gamma)
        r = FLOOR_GRID if form == "curve" else float(rng.uniform(0.0, 0.15))
        tau = float(10.0 * (1.0 - rng.random()))
        calls += [lambda fn=fn, p=p, tau=tau, r=r: fn(p, tau, r) for fn in (improved_log_price, cw_log_price)]
    cold = []
    for call in calls:
        _Powers._kept.cache_clear()
        cold.append(_outcome(call, "error"))
    _Powers._kept.cache_clear()
    assert [_outcome(call, "error") for call in calls] == cold
    assert any(type(o[0]) is tuple for o in cold)
    kept = _Powers._kept
    assert len(kept._arrays) <= kept.ARRAYS and len(kept._params) <= kept.PARAMS
    assert all(len(entries) <= kept.ENTRIES for _, _, entries in kept._arrays.values())
    assert len(kept._arrays) == (form == "curve") and len(kept._params) == kept.PARAMS


@pytest.mark.parametrize("gamma", [0.75, 1.32])
@pytest.mark.parametrize("tau", [354.0, 400.0], ids=["B^2 overflows", "expm1 overflows"])
@pytest.mark.parametrize("action", ["ignore", "always", "error", "raise"])
def test_a_bundle_kept_at_another_maturity_gives_the_cold_refusal(gamma, tau, action):
    # at beta = 2, cw's brackets overflow at these maturities: B^2 as a
    # Python float (silently) at 354, np.expm1 at 400.  The bundle kept at
    # tau = 1 makes the warm call skip c5 and c6 and with them their rate
    # checks: the call's one result check must refuse it with the cold
    # call's type and message, and with default filters (``always``
    # counts every warning) the same warnings
    p, r = ModelParams(0.00315, 2.0, 0.0894, gamma), FLOOR_GRID

    def outcome():
        if action != "always":
            return _outcome(lambda: improved_log_price(p, tau, r), action)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                improved_log_price(p, tau, r)
            except Exception as e:  # noqa: BLE001 - a refusal is an outcome too
                return type(e), str(e), len(seen)
        return "priced", len(seen)

    _Powers._kept.cache_clear()
    cold = outcome()
    assert cold[:2] == (ValidationError, f"improved_log_price: out of float range at tau={tau!r}")
    _Powers._kept.cache_clear()
    for _ in range(3):  # sight, keep, hit
        improved_log_price(p, 1.0, r)
    assert any(type(key) is bytes for _, _, entries in _Powers._kept._arrays.values() for key in entries)
    assert outcome() == cold


@pytest.mark.parametrize("action", ["ignore", "error", "raise"])
def test_the_store_keeps_only_finite_values(action):
    # on admitted grids, terms that overflow: q at sigma 1e160, c5 and c6 at
    # sigma 1e100, and cw's brackets at tau 1e52 (next to calls that pass,
    # whose bundles are kept); no term is checked as it is made, so a call
    # keeps its new terms only once its result passed its check
    params = [ModelParams(0.00315, -0.0555, sigma, gamma)
              for sigma, gamma in ((0.0894, 0.75), (1e160, 0.75), (1e100, 0.75), (1e100, 1.32), (0.0894, 1.32))]
    bundles = 0
    _Powers._kept.cache_clear()
    for p in params:
        for tau in (1.0, 1e52):
            for r in (_grid(), FLOOR_GRID):
                for fn in (cw_log_price, cw_partials, improved_log_price):
                    for _ in range(3):  # cold, sight and keep, then warm
                        _outcome(lambda: fn(p, tau, r), action)
                        assert all(np.isfinite(v).all() for _, v in _kept())
                        bundles = max(bundles, sum(type(key) is bytes for key, _ in _kept()))
    assert bundles >= 2


@pytest.mark.parametrize("gamma", [0.75, 1.32])
def test_an_improved_curve_checks_its_value_once(monkeypatch, gamma):
    # no term is checked as it is made, cold or warm: the call's result
    # check is the one finiteness pass
    checked = []
    result = _Powers.result
    monkeypatch.setattr(_Powers, "result", lambda table, out: checked.append(out) or result(table, out))
    p = ModelParams(0.00315, -0.0555, 0.0894, gamma)
    _Powers._kept.cache_clear()
    for tau in (1.0, 2.0, 3.0, 4.0):  # sight and keep make the terms, then two hits
        checked.clear()
        out = improved_log_price(p, tau, FLOOR_GRID)
        assert len(checked) == 1 and checked[0] is out


@pytest.mark.parametrize("gamma", [0.75, 1.32])
@pytest.mark.parametrize("form", ["curve", "point"])
def test_a_warm_call_looks_up_once(monkeypatch, gamma, form):
    # the outermost call packs p's bits and admits its rate array at most
    # once, and its nested terms (q, cw, c5, c5', c5'', k5, c6) read them
    # from its table
    kept = _Powers._kept
    seen = []
    for name in ("key", "admit"):
        monkeypatch.setattr(kept, name, lambda *args, fn=getattr(kept, name), name=name: seen.append(name) or fn(*args))
    p = ModelParams(0.00315, -0.0555, 0.0894, gamma)
    r = FLOOR_GRID if form == "curve" else 0.0731
    for call in (lambda tau: improved_log_price(p, tau, r), lambda tau: pde_residual(cw_partials, p, tau, r)):
        kept.cache_clear()
        for tau in (1.0, 2.0, 3.0):  # cold, sight, keep
            call(tau)
        seen.clear()
        call(4.0)
        assert sorted(seen) == (["admit", "key"] if form == "curve" else ["key"])


def test_a_wrapped_term_is_kept_once(monkeypatch):
    # a tracer replaces a module's public names with wrappers that set
    # __wrapped__ to the function they wrap: the terms still run, and the
    # grid keeps one bundle under p's bits, with the unwrapped terms' bits
    from bondkit import approximation

    p = ModelParams(0.00315, -0.0555, 0.0894, 1.32)

    def bundle():
        (value,) = [v for key, v in _Powers._kept._arrays[next(iter(_Powers._kept._arrays))][2].items()
                    if type(key) is bytes]
        return sorted(v.tobytes() for v in value.values())

    _Powers._kept.cache_clear()
    for _ in range(3):  # sight, keep, hit
        want = improved_log_price(p, 1.0, FLOOR_GRID).tobytes()
    terms = bundle()
    for name in ("cw_log_price", "q_factor", "c5", "c6"):
        original = getattr(approximation, name)

        def traced(*args, fn=original):
            return fn(*args)

        traced.__wrapped__ = original
        monkeypatch.setattr(approximation, name, traced)
    _Powers._kept.cache_clear()
    for _ in range(3):  # sight, keep, hit
        assert improved_log_price(p, 1.0, FLOOR_GRID).tobytes() == want
    assert len(_Powers._kept._arrays) == 1 and len(terms) == 4 and bundle() == terms  # q, c5, c6, r^{2 gamma}
