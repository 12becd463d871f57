"""Cold/warm parity of the values kept across calls.

A sweep of every public pricer, partials and coefficient function, and of
``pde_residual`` with each partials, over a few parameter sets, maturities
and rates (scalar, NaN and negative rates, and 1501-node arrays from 0,
from 1e-6 and with one NaN or negative rate).  With NumPy's
warnings ignored (what default filters do to a call: they only print them)
and raised as errors (``-W error``), every call must give the outcome of
a call on an empty ``_Powers._kept``, its parameter sets' monomial tables
included (value bits, type, shape and writeable flag, or refusal type and
message), also when the store was filled under
the other filter: a value kept while warnings are ignored must not let a call
pass that ``-W error`` refuses, nor the other way round.
"""

import warnings

import numpy as np
import pytest

from bondkit import (
    ModelParams,
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


def _calls():
    """(label, call) for every case of the sweep."""
    for p in PARAMS:
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


CALLS = list(_calls())


def _outcome(call, action):
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        try:
            out = call()
        except Exception as e:  # noqa: BLE001 - a refusal is an outcome too
            return type(e), str(e)
    return tuple((type(v), np.shape(v), np.asarray(v).tobytes(), getattr(v, "flags", None) and v.flags.writeable)
                 for v in (out if isinstance(out, tuple) else (out,)))


def _kept():
    """(key, array) for every value _Powers._kept holds."""
    for _, _, entries in _Powers._kept._arrays.values():
        for key, value in entries.items():
            for v in value if type(value) is tuple else (value,):
                yield key, v


@pytest.mark.parametrize("action, other", [("ignore", "error"), ("error", "ignore")])
def test_warm_store_gives_the_cold_outcome(action, other):
    cold, warm, hits, tables = [], [], 0, 0
    for _, call in CALLS:
        _Powers._kept.cache_clear()
        assert not _Powers._kept._params  # a cold call builds its tables
        cold.append(_outcome(call, action))
        _Powers._kept.cache_clear()
        for _ in range(2):  # the first call sights an array, the second keeps values
            _outcome(call, other)
        kept = list(_kept())
        assert all(np.isfinite(v).all() for _, v in kept)  # only what passed its checks
        hits += any(type(key) is tuple for key, _ in kept)
        tables += any(_Powers._kept._params.values())
        warm.append(_outcome(call, action))
    assert [label for (label, _), c, w in zip(CALLS, cold, warm) if c != w] == []
    # the sweep gives values and refusals of each kind, and takes kept results
    refused = {o[0].__name__ for o in cold if type(o[0]) is not tuple}
    assert {"DomainError", "ValidationError", "GammaMismatch"} <= refused
    assert sum(type(o[0]) is tuple for o in cold) > 600 and hits > 140 and tables > 500


def test_sweep_covers_every_public_function():
    assert {label[0] for label, _ in CALLS} == {fn.__name__ for fn in (b_factor, pde_residual, *TAU_FREE, *WITH_TAU)}
