"""Property tests over maturity, rate and gamma, including negative, NaN and
infinite values and maturities up to 1e308: every closed-form pricer and every
analytic-partials function, fed parameters that passed ``validate_params``
as the CLI feeds them, returns finite values or raises a ``BondkitError``,
and every pricer prices par at zero maturity."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bondkit import (DEFAULT_PARAMS, BondkitError, ModelParams, ValidationError, c5, c6,
                     cir_partials, cw_log_price, cw_partials, validate_params, vasicek_log_price,
                     vasicek_partials)
from bondkit.analysis import METHODS

NAN = st.just(math.nan)
GAMMAS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.32]), st.floats(-1.0, 3.0), NAN)
TAUS = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(-1.0, 50.0), st.floats(-1.0, 1e308), NAN,
                 st.just(math.inf))
RATES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-6, 0.05]), st.floats(-1.0, 1.0), NAN,
                  st.sampled_from([math.inf, -math.inf]))


#: Analytic (f_tau, f_r, f_rr) functions and the gamma each requires (None: any).
PARTIALS = {"cw": (cw_partials, None), "cir": (cir_partials, 0.5), "vasicek": (vasicek_partials, 0.0)}


def attempt(fn, p, tau, r):
    """fn's value, or None if a typed error refused the input."""
    try:
        return fn(validate_params(p), tau, r)
    except BondkitError:
        return None


@settings(max_examples=400, deadline=None, database=None)
@given(method=st.sampled_from(sorted(METHODS)), gamma=GAMMAS, tau=TAUS, r=RATES)
@example(method="cw", gamma=0.5, tau=-1.0, r=0.05)
@example(method="improved", gamma=0.75, tau=math.nan, r=0.05)
@example(method="vasicek", gamma=0.0, tau=1.0, r=math.nan)
@example(method="cw", gamma=0.25, tau=1.0, r=1e-300)
@example(method="vasicek", gamma=0.0, tau=math.inf, r=0.05)
@example(method="cw", gamma=0.75, tau=math.inf, r=0.05)
@example(method="improved", gamma=0.5, tau=math.inf, r=0.05)
@example(method="improved", gamma=0.5, tau=1e52, r=0.05)
@example(method="improved", gamma=0.0, tau=2.375668978229577e+51, r=0.0)
def test_finite_or_typed_error(method, gamma, tau, r):
    p = DEFAULT_PARAMS.with_gamma(gamma)
    value = attempt(METHODS[method], p, tau, r)
    assert value is None or math.isfinite(value)
    at_zero = attempt(METHODS[method], p, 0.0, r)
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
@given(name=st.sampled_from(sorted(PARTIALS)), gamma=GAMMAS, tau=TAUS, r=RATES)
@example(name="cw", gamma=0.5, tau=math.nan, r=0.1)
@example(name="cir", gamma=0.5, tau=math.nan, r=0.1)
@example(name="cir", gamma=0.5, tau=1.0, r=-0.5)
@example(name="cw", gamma=0.0, tau=1.0, r=math.nan)
@example(name="vasicek", gamma=0.0, tau=-1.0, r=0.05)
@example(name="vasicek", gamma=0.0, tau=math.inf, r=0.05)
@example(name="cir", gamma=0.5, tau=math.inf, r=0.05)
def test_partials_finite_or_typed_error(name, gamma, tau, r):
    fn, fixed_gamma = PARTIALS[name]
    g = gamma if fixed_gamma is None else fixed_gamma
    values = attempt(fn, DEFAULT_PARAMS.with_gamma(g), tau, r)
    assert values is None or all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("fn", [vasicek_log_price, vasicek_partials])
def test_vasicek_without_drift_slope_refuses_infinite_maturity(fn):
    # at beta = 0 the tau = inf limit divided alpha by beta
    p = validate_params(ModelParams(DEFAULT_PARAMS.alpha, 0.0, DEFAULT_PARAMS.sigma, 0.0))
    with pytest.raises(ValidationError, match="maturity"):
        fn(p, math.inf, 0.05)
