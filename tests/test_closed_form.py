import functools
import math

import numpy as np
import pytest

from _reference import mp_cir, mp_cw
from bondkit import (
    ModelParams,
    b_factor,
    cir_log_price,
    cir_partials,
    cw_log_price,
    pde_residual,
    vasicek_log_price,
    vasicek_partials,
)
from bondkit.errors import DomainError, GammaMismatch


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

    def test_continuity_at_switch(self):
        below, above = b_factor(0.9999e-10, 3.0), b_factor(1.0001e-10, 3.0)
        assert below == pytest.approx(above, rel=1e-9)


class TestVasicek:
    def test_zero_maturity(self, vas_params):
        assert vasicek_log_price(vas_params, 0.0, 0.07) == 0.0

    def test_gamma_guard(self, params):
        with pytest.raises(GammaMismatch):
            vasicek_log_price(params, 1.0, 0.05)

    def test_frozen_value(self, vas_params):
        # independently evaluated in 60-digit arithmetic
        assert vasicek_log_price(vas_params, 1.0, 0.05) == pytest.approx(
            -0.0489060577750193, rel=1e-13
        )
        assert -0.06 < vasicek_log_price(vas_params, 1.0, 0.05) < -0.04

    def test_pde_residual_vanishes(self, vas_params):
        f = functools.partial(vasicek_log_price, vas_params)
        part = functools.partial(vasicek_partials, vas_params)
        for tau in (0.1, 0.5, 1.0, 4.0):
            for r in (0.01, 0.05, 0.2):
                assert abs(pde_residual(f, vas_params, tau, r, partials=part)) < 1e-12

    def test_bitwise_equal_to_general_formula(self, vas_params):
        r = np.linspace(0.0, 0.3, 31)
        for tau in (0.25, 1.0, 5.0):
            assert np.all(vasicek_log_price(vas_params, tau, r) == cw_log_price(vas_params, tau, r))

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
        with pytest.raises(GammaMismatch):
            cir_log_price(params.with_gamma(1.0), 1.0, 0.05)

    def test_negative_or_nan_rate_rejected(self, params):
        # P > 1 would come out of the formula for a negative rate
        for r in (-0.1, float("nan"), np.array([0.1, -1e-9])):
            with pytest.raises(DomainError):
                cir_log_price(params, 1.0, r)
            with pytest.raises(DomainError):
                cir_partials(params, 1.0, r)

    def test_pde_residual_grid(self, params):
        f = functools.partial(cir_log_price, params)
        part = functools.partial(cir_partials, params)
        for tau in (0.1, 0.5, 1.0, 3.0):
            for r in (0.005, 0.05, 0.1, 0.25):
                assert abs(pde_residual(f, params, tau, r, partials=part)) < 1e-10

    def test_pde_residual_fd_mode(self, params):
        f = functools.partial(cir_log_price, params)
        assert abs(pde_residual(f, params, 0.5, 0.1)) < 1e-7

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
