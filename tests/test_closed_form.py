import math
import warnings

import numpy as np
import pytest

from _reference import mp_cir, mp_cw
from bondkit import (
    ModelParams,
    b_factor,
    cir_log_price,
    cir_partials,
    cw_log_price,
    cw_partials,
    pde_residual,
    vasicek_log_price,
    vasicek_partials,
)
from bondkit.errors import DomainError, GammaMismatch, ValidationError


class TestBFactor:
    def test_zero_maturity(self):
        for beta in (-0.5, -1e-6, 0.0, 0.2):
            assert b_factor(beta, 0.0) == 0.0

    def test_beta_zero_limit(self):
        assert b_factor(0.0, 2.0) == 2.0
        assert b_factor(1e-12, 2.0) == pytest.approx(2.0, rel=1e-11)

    def test_against_taylor_series(self):
        # (e^x - 1)/x = sum_{k>=0} x^k/(k+1)!; 20 terms at x = -0.0555 are
        # far below double rounding
        x = -0.0555
        expected = sum(x**k / math.factorial(k + 1) for k in range(20))
        assert b_factor(-0.0555, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_exact_for_tiny_nonzero_beta(self):
        # no switch near 1e-10: expm1 keeps B exact however small beta is
        for beta in (0.9999e-10, -0.9999e-10, 1.0001e-10, -1.0001e-10):
            assert b_factor(beta, 3.0) == pytest.approx(math.expm1(beta * 3.0) / beta, rel=1e-15)

    def test_subnormal_product_gives_the_limit(self):
        # e^x - 1 = x to every digit once x = beta*tau is subnormal, but the
        # rounded product divided by beta would not give tau back
        for beta, tau in ((5e-324, 0.3), (-1e-320, 3.0), (1e-310, 0.3)):
            assert b_factor(beta, tau) == tau

    @pytest.mark.parametrize("action", ["ignore", "error"])
    def test_overflow_is_refused_under_either_warning_filter(self, action):
        # e^{beta tau} overflows for beta > 0; for beta < 0 it underflows and
        # B is the finite limit -1/beta, a Python float like every B
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            for beta in (0.0555, 2.0):
                with pytest.raises(ValidationError, match=r"^b_factor: out of float range at tau=1e\+308$"):
                    b_factor(beta, 1e308)
            B = b_factor(-0.0555, 1e308)
        assert type(B) is float and B == -1.0 / -0.0555


class TestVasicek:
    def test_zero_maturity(self, vas_params):
        assert vasicek_log_price(vas_params, 0.0, 0.07) == 0.0

    def test_gamma_guard(self, params):
        for gamma in (0.5, 1e-9, 1.0):
            for fn in (vasicek_log_price, vasicek_partials):
                with pytest.raises(GammaMismatch, match=fn.__name__):
                    fn(params.with_gamma(gamma), 1.0, 0.05)

    def test_frozen_value(self, vas_params):
        # independently evaluated in 60-digit arithmetic
        assert vasicek_log_price(vas_params, 1.0, 0.05) == pytest.approx(
            -0.0489060577750193, rel=1e-13
        )
        assert -0.06 < vasicek_log_price(vas_params, 1.0, 0.05) < -0.04

    def test_pde_residual_vanishes(self, vas_params):
        for tau in (0.1, 0.5, 1.0, 4.0, 10.0, 30.0):
            for r in (0.01, 0.05, 0.2):
                assert abs(pde_residual(vasicek_partials, vas_params, tau, r)) < 1e-12

    def test_bitwise_equal_to_general_formula(self, vas_params):
        # price and partials; Gaussian rates go negative, so the grid does too
        r = np.linspace(-0.1, 0.3, 41)
        for tau in (0.0, 0.25, 1.0, 5.0, 30.0):
            assert np.all(vasicek_log_price(vas_params, tau, r) == cw_log_price(vas_params, tau, r))
            for rate in (r, -0.05, 0.07):
                for got, want in zip(vasicek_partials(vas_params, tau, rate),
                                     cw_partials(vas_params, tau, rate)):
                    assert np.all(got == want)

    def test_continuous_in_beta_at_zero(self, vas_params):
        # no jump through beta = 0 beyond the genuine beta-sensitivity
        vals = [
            vasicek_log_price(ModelParams(vas_params.alpha, b, vas_params.sigma, 0.0), 2.0, 0.05)
            for b in (-1e-12, 0.0, 1e-12)
        ]
        assert max(vals) - min(vals) < 1e-11
        for b, tol in [(0.0, 1e-15), (1e-12, 5e-13), (-1e-8, 1e-15), (1e-7, 1e-15)]:
            # |beta| below 1e-10 collapses B to tau, truncating an O(beta)
            # term; the tolerance reflects that documented cutoff
            p = ModelParams(vas_params.alpha, b, vas_params.sigma, 0.0)
            assert vasicek_log_price(p, 2.0, 0.05) == pytest.approx(float(mp_cw(p, 2.0, 0.05)), abs=tol)


class TestCir:
    def test_zero_maturity(self, params):
        for r in (0.0, 0.05, 0.2):
            assert cir_log_price(params, 0.0, r) == 0.0

    def test_gamma_guard(self, params):
        for fn in (cir_log_price, cir_partials):
            with pytest.raises(GammaMismatch, match=fn.__name__):
                fn(params.with_gamma(1.0), 1.0, 0.05)

    def test_negative_or_nan_rate_rejected(self, params):
        # P > 1 would come out of the formula for a negative rate
        for r in (-0.1, float("nan"), np.array([0.1, -1e-9])):
            with pytest.raises(DomainError):
                cir_log_price(params, 1.0, r)
            with pytest.raises(DomainError):
                cir_partials(params, 1.0, r)

    @pytest.mark.parametrize("fn", [cir_log_price, cir_partials], ids=lambda fn: fn.__name__)
    def test_underflowing_sigma_is_typed(self, fn):
        # sigma * sigma underflows to 0 under 2 alpha / sigma^2
        with pytest.raises(ValidationError, match=rf"^{fn.__name__}: out of float range at tau=1\.0$"):
            fn(ModelParams(0.00315, -0.0555, 1e-170, 0.5), 1.0, 0.05)

    def test_pde_residual_grid(self, params):
        # theta * tau = 1 falls at tau ~ 7.24: 10 and 30 check the factored form
        for tau in (0.1, 0.5, 1.0, 3.0, 10.0, 30.0):
            for r in (0.005, 0.05, 0.1, 0.25):
                assert abs(pde_residual(cir_partials, params, tau, r)) < 1e-10

    def test_small_tau_series(self, params):
        # ln P = -r tau + O(tau^2)
        r = 0.1
        for tau in (1e-3, 1e-5):
            rem = cir_log_price(params, tau, r) + r * tau
            assert abs(rem) < 0.05 * tau**2 + 1e-18

    def test_matches_reference_oracle(self, params):
        for tau, r in [(0.25, 0.0), (1.0, 0.1), (5.0, 0.03), (10.0, 0.25)]:
            assert cir_log_price(params, tau, r) == pytest.approx(
                float(mp_cir(params, tau, r)), rel=1e-13, abs=1e-16
            )

    def test_close_to_approximation_at_benchmark(self, params):
        # published L-infinity bound over r in [0, 0.15] at tau = 1
        d = cw_log_price(params, 1.0, 0.08) - cir_log_price(params, 1.0, 0.08)
        assert abs(d) <= 2.774e-7

    def test_long_maturity_no_overflow(self, params):
        v = cir_log_price(params, 300.0, 0.1)
        assert np.isfinite(v)
        assert v == pytest.approx(float(mp_cir(params, 300.0, 0.1)), rel=1e-12)
        # both sides of the exp-factoring switch (theta*tau = 30) match the
        # high-precision oracle
        th = math.sqrt(params.beta**2 + 2 * params.sigma**2)
        for tau in (0.99 / th, 1.01 / th, 29.9 / th, 30.1 / th):
            assert cir_log_price(params, tau, 0.1) == pytest.approx(
                float(mp_cir(params, tau, 0.1)), rel=1e-13
            )

    @pytest.mark.parametrize("beta", [2.0, -2.0])
    def test_partials_at_overflowing_theta_tau(self, beta):
        # theta*tau overflows, e^{-theta tau} = 0 keeps the partials finite,
        # and turning NumPy's warnings into errors must not refuse them
        p = ModelParams(0.00315, beta, 0.0894, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = cir_partials(p, 1e308, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loud = cir_partials(p, 1e308, 0.05)
            with pytest.raises(ValidationError, match=r"^cir_log_price: out of float range at tau=1e\+308$"):
                cir_log_price(p, 1e308, 0.05)
        assert all(math.isfinite(v) for v in loud)
        assert np.array(loud).tobytes() == np.array(quiet).tobytes()
        assert loud[1] == pytest.approx(-2.0 / (math.sqrt(beta**2 + 2 * p.sigma**2) - beta))

    def test_price_in_unit_interval_and_monotone(self, params):
        r = np.linspace(0.001, 0.3, 50)
        for tau in (0.5, 1.0, 10.0):
            lnp = cir_log_price(params, tau, r)
            assert np.all(np.isfinite(lnp))
            p = np.exp(lnp)
            assert np.all((p > 0) & (p <= 1.0))
            assert np.all(np.diff(lnp) < 0)  # strictly decreasing in r

    def test_vasicek_finite_but_can_exceed_par(self, vas_params):
        # Gaussian rates go negative, so the beta < 0, r > 0 price is NOT
        # capped at 1 for long maturities at this volatility: P(10, 0.001)
        # is about 2.13.  Finiteness and monotonicity in r still hold.
        r = np.linspace(0.001, 0.3, 50)
        for tau in (0.5, 1.0, 10.0):
            lnp = vasicek_log_price(vas_params, tau, r)
            assert np.all(np.isfinite(lnp))
            assert np.all(np.exp(lnp) > 0)
            assert np.all(np.diff(lnp) < 0)
        assert np.exp(vasicek_log_price(vas_params, 10.0, 0.001)) > 2.0

    def test_partials_match_finite_differences(self, params):
        tau, r, h = 0.8, 0.12, 1e-6
        f_tau, f_r, f_rr = cir_partials(params, tau, r)
        fd_tau = (cir_log_price(params, tau + h, r) - cir_log_price(params, tau - h, r)) / (2 * h)
        fd_r = (cir_log_price(params, tau, r + h) - cir_log_price(params, tau, r - h)) / (2 * h)
        assert f_tau == pytest.approx(fd_tau, rel=1e-8)
        assert f_r == pytest.approx(fd_r, rel=1e-8)
        assert f_rr == 0.0
