"""Property tests over maturity, rate and gamma, including negative, NaN and
infinite values and maturities up to 1e308, at volatilities from 1e-170 to
5e153 and drift slopes of either sign: every closed-form pricer, every
analytic-partials function and the PDE residual of those partials, fed
parameters that passed ``validate_params`` as the CLI feeds them, return
finite values or raise a ``BondkitError``, and every pricer prices par at
zero maturity.  Each example draws NumPy's error mode (warnings ignored,
raised as errors as ``-W error`` does, or floating-point errors raised by
``np.errstate(all="raise")``) and whether the rate is a scalar or a
one-element array too, which must give the scalar's outcome; and in every
mode a call must give its outcome with NumPy's warnings ignored: no NumPy
flag decides one."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bondkit import (DEFAULT_PARAMS, BondkitError, ModelParams, ValidationError, c5, c6,
                     cir_partials, cw_log_price, cw_partials, pde_residual, validate_params,
                     vasicek_log_price, vasicek_partials)
from bondkit.analysis import METHODS

NAN = st.just(math.nan)
GAMMAS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.32]), st.floats(-1.0, 3.0), NAN)
TAUS = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(-1.0, 50.0), st.floats(-1.0, 1e308), NAN,
                 st.just(math.inf))
RATES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-6, 0.05]), st.floats(-1.0, 1.0), NAN,
                  st.sampled_from([math.inf, -math.inf]))
#: sigma squared underflows at 1e-170 and is still finite at 5e153, where
#: products with it overflow; the defaults come first, where draws shrink.
SIGMAS = st.sampled_from([DEFAULT_PARAMS.sigma, 1e-170, 1e60, 1e100, 5e153])
BETAS = st.sampled_from([DEFAULT_PARAMS.beta, 0.0, 2.0])
#: An example's parameters at the defaults, and a scalar rate with warnings
#: raised as errors, as the test configuration raises them.
AT_DEFAULT = {"sigma": DEFAULT_PARAMS.sigma, "beta": DEFAULT_PARAMS.beta, "mode": "error", "form": "scalar"}
MODES = st.sampled_from(["ignore", "error", "raise"])
FORMS = st.sampled_from(["scalar", "array"])


#: Analytic (f_tau, f_r, f_rr) functions and the gamma each requires (None: any).
PARTIALS = {"cw": (cw_partials, None), "cir": (cir_partials, 0.5), "vasicek": (vasicek_partials, 0.0)}


def params(sigma, beta, gamma):
    return ModelParams(DEFAULT_PARAMS.alpha, beta, sigma, gamma)


@contextlib.contextmanager
def error_mode(mode):
    """NumPy's warnings ignored or raised as errors, or its floating-point
    errors raised."""
    with warnings.catch_warnings():
        if mode != "raise":
            warnings.simplefilter(mode)
        with np.errstate(all="raise") if mode == "raise" else contextlib.nullcontext():
            yield


def _floats(out):
    """A result as Python floats, item by item for a tuple."""
    if isinstance(out, tuple):
        return tuple(map(_floats, out))
    return float(np.reshape(out, -1)[0])


def attempt(fn, p, tau, r, mode="ignore", form="scalar"):
    """fn's value as Python floats, or None if a typed error refused the
    input, for the rate and, if ``form`` is "array", for the rate as a
    one-element array, in ``mode`` and with warnings ignored: all give one
    outcome."""
    outcomes = []
    for rate in (r, np.array([r])) if form == "array" else (r,):
        for m in (mode, "ignore"):
            with error_mode(m):
                try:
                    outcomes.append((None, _floats(fn(validate_params(p), tau, rate))))
                except BondkitError as e:
                    outcomes.append((type(e), str(e)))
    assert len(set(map(repr, outcomes))) == 1, outcomes
    refused, value = outcomes[-1]
    return None if refused else value


@settings(max_examples=400, deadline=None, database=None)
@given(method=st.sampled_from(sorted(METHODS)), sigma=SIGMAS, beta=BETAS, gamma=GAMMAS, tau=TAUS,
       r=RATES, mode=MODES, form=FORMS)
@example(method="cw", gamma=0.5, tau=-1.0, r=0.05, **AT_DEFAULT)
@example(method="improved", gamma=0.75, tau=math.nan, r=0.05, **AT_DEFAULT)
@example(method="vasicek", gamma=0.0, tau=1.0, r=math.nan, **AT_DEFAULT)
@example(method="cw", gamma=0.25, tau=1.0, r=1e-300, **AT_DEFAULT)
@example(method="vasicek", gamma=0.0, tau=math.inf, r=0.05, **AT_DEFAULT)
@example(method="cw", gamma=0.75, tau=math.inf, r=0.05, **AT_DEFAULT)
@example(method="improved", gamma=0.5, tau=math.inf, r=0.05, **AT_DEFAULT)
@example(method="improved", gamma=0.5, tau=1e52, r=0.05, **AT_DEFAULT)
@example(method="improved", gamma=0.0, tau=2.375668978229577e+51, r=0.0, **AT_DEFAULT)
@example(method="cw", gamma=1.0, tau=1.0, r=math.inf, **dict(AT_DEFAULT, mode="raise", form="array"))
@example(method="cw", gamma=1.0, tau=1.0, r=math.inf, **dict(AT_DEFAULT, mode="ignore", form="array"))
@example(method="improved", gamma=0.5, tau=1e52, r=0.05, **dict(AT_DEFAULT, mode="ignore", form="array"))
@example(method="cw", gamma=0.5, tau=1.0, r=5e-324, **dict(AT_DEFAULT, mode="raise", form="array"))
def test_finite_or_typed_error(method, sigma, beta, gamma, tau, r, mode, form):
    p = params(sigma, beta, gamma)
    value = attempt(METHODS[method], p, tau, r, mode, form)
    assert value is None or math.isfinite(value)
    at_zero = attempt(METHODS[method], p, 0.0, r, mode, form)
    assert at_zero is None or at_zero == 0.0
    if value is not None:
        # the rate domain does not depend on the maturity
        assert at_zero == 0.0
        if method == "improved":
            # each public function builds its own power table; the improved
            # pricer shares one, and no bit of the composition moves
            expected = cw_log_price(p, tau, r)
            if gamma != 0:  # at gamma = 0 it is cw alone, and tau**6 may overflow
                expected = expected - c5(p, r) * tau**5 - c6(p, r) * tau**6
            assert value == expected


@settings(max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(sorted(PARTIALS)), sigma=SIGMAS, beta=BETAS, gamma=GAMMAS, tau=TAUS,
       r=RATES, mode=MODES, form=FORMS)
@example(name="cw", gamma=0.5, tau=math.nan, r=0.1, **AT_DEFAULT)
@example(name="cir", gamma=0.5, tau=math.nan, r=0.1, **AT_DEFAULT)
@example(name="cir", gamma=0.5, tau=1.0, r=-0.5, **AT_DEFAULT)
@example(name="cw", gamma=0.0, tau=1.0, r=math.nan, **AT_DEFAULT)
@example(name="vasicek", gamma=0.0, tau=-1.0, r=0.05, **AT_DEFAULT)
@example(name="vasicek", gamma=0.0, tau=math.inf, r=0.05, **AT_DEFAULT)
@example(name="cir", gamma=0.5, tau=math.inf, r=0.05, **AT_DEFAULT)
@example(name="cw", sigma=DEFAULT_PARAMS.sigma, beta=0.0, gamma=0.25, tau=1e52, r=0.05, mode="error",
         form="scalar")
@example(name="cw", gamma=0.0, tau=1e52, r=0.05, **dict(AT_DEFAULT, mode="raise", form="array"))
@example(name="cw", sigma=DEFAULT_PARAMS.sigma, beta=0.0, gamma=0.25, tau=1e52, r=0.05, mode="ignore",
         form="array")
def test_partials_finite_or_typed_error(name, sigma, beta, gamma, tau, r, mode, form):
    fn, fixed_gamma = PARTIALS[name]
    p = params(sigma, beta, gamma if fixed_gamma is None else fixed_gamma)
    values = attempt(fn, p, tau, r, mode, form)
    assert values is None or all(math.isfinite(v) for v in values)
    residual = attempt(lambda p, tau, r: pde_residual(fn, p, tau, r), p, tau, r, mode, form)
    assert residual is None or math.isfinite(residual)


@pytest.mark.parametrize("fn", [vasicek_log_price, vasicek_partials])
def test_vasicek_without_drift_slope_refuses_infinite_maturity(fn):
    # at beta = 0 the tau = inf limit divided alpha by beta
    p = validate_params(ModelParams(DEFAULT_PARAMS.alpha, 0.0, DEFAULT_PARAMS.sigma, 0.0))
    with pytest.raises(ValidationError, match="maturity"):
        fn(p, math.inf, 0.05)
