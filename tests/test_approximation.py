import functools

import numpy as np
import pytest

from _reference import mp_cir, mp_cw, mp_improved
from bondkit import (
    ModelParams,
    cir_log_price,
    cw_log_price,
    cir_partials,
    cw_partials,
    improved_log_price,
    k4,
    k5,
    pde_residual,
    q_factor,
    vasicek_log_price,
    vasicek_partials,
)
from bondkit.analysis import METHODS
from bondkit.errors import DomainError, StepTooLarge, ValidationError


class TestQFactor:
    def test_gamma_zero_vanishes(self, params):
        p = params.with_gamma(0.0)
        assert q_factor(p, 0.1) == 0.0
        assert np.all(q_factor(p, np.array([0.0, 0.1, 0.3])) == 0.0)

    def test_gamma_half_is_drift(self, params):
        r = np.array([0.0, 0.02, 0.15])
        assert np.allclose(q_factor(params, r), params.alpha + params.beta * r, rtol=0, atol=0)

    def test_gamma_one_matches_generator_oracle(self, params):
        # q equals the generator applied to r^{2 gamma}; verify by central
        # finite differences of g(x) = x^2 at gamma = 1
        p = params.with_gamma(1.0)
        r, h = 0.1, 1e-6
        g = lambda x: x**2
        g1 = (g(r + h) - g(r - h)) / (2 * h)
        g2 = (g(r + h) - 2 * g(r) + g(r - h)) / h**2
        oracle = 0.5 * p.sigma**2 * r**2 * g2 + (p.alpha + p.beta * r) * g1
        assert q_factor(p, r) == pytest.approx(oracle, rel=1e-6)

    def test_domain_guard(self, params):
        with pytest.raises(DomainError):
            q_factor(params.with_gamma(0.3), 0.0)
        with pytest.raises(DomainError):
            # r^{2 gamma - 1} and r^{4 gamma - 2} overflow near r = 0
            q_factor(params.with_gamma(0.3), 1e-300)
        with pytest.raises(DomainError):
            q_factor(params, -0.01)
        # r = 0 fine for gamma >= 1/2
        assert q_factor(params.with_gamma(0.75), 0.0) == 0.0


class TestCwLogPrice:
    def test_zero_maturity(self, params):
        for g in (0.0, 0.5, 0.75, 1.0, 1.32):
            assert cw_log_price(params.with_gamma(g), 0.0, 0.1) == 0.0

    def test_reduces_to_vasicek(self, vas_params):
        r = np.linspace(0.0, 0.3, 61)
        for tau in (0.5, 2.0, 10.0):
            assert np.all(cw_log_price(vas_params, tau, r) == vasicek_log_price(vas_params, tau, r))

    def test_matches_reference_across_beta_regimes(self, params):
        # exact-bracket path, series path, and exactly zero beta
        for beta in (-0.0555, -0.012, 1e-4, 1e-8, 0.0):
            for gamma in (0.5, 0.75, 1.32):
                p = ModelParams(params.alpha, beta, params.sigma, gamma)
                got = cw_log_price(p, 1.5, 0.11)
                want = float(mp_cw(p, 1.5, 0.11))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_series_switch_is_seamless(self, params):
        # |beta*tau| = 0.01 is the switch; straddle it at fixed tau
        tau = 2.0
        for gamma in (0.5, 1.0):
            lo = ModelParams(params.alpha, 0.00999 / tau, params.sigma, gamma)
            hi = ModelParams(params.alpha, 0.01001 / tau, params.sigma, gamma)
            v_lo, v_hi = cw_log_price(lo, tau, 0.1), cw_log_price(hi, tau, 0.1)
            assert abs(v_lo - float(mp_cw(lo, tau, 0.1))) < 1e-12
            assert abs(v_hi - float(mp_cw(hi, tau, 0.1))) < 1e-12

    def test_scalar_and_array_agree(self, params):
        r = np.array([0.01, 0.1, 0.2])
        arr = cw_log_price(params, 1.0, r)
        for i, ri in enumerate(r):
            assert arr[i] == cw_log_price(params, 1.0, float(ri))


class TestPartials:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.75, 1.0, 1.32])
    def test_match_finite_differences(self, params, gamma):
        p = params.with_gamma(gamma)
        tau, r, h = 0.7, 0.13, 1e-6
        f_tau, f_r, f_rr = cw_partials(p, tau, r)
        fd_tau = (cw_log_price(p, tau + h, r) - cw_log_price(p, tau - h, r)) / (2 * h)
        fd_r = (cw_log_price(p, tau, r + h) - cw_log_price(p, tau, r - h)) / (2 * h)
        h2 = 1e-4
        fd_rr = (cw_log_price(p, tau, r + h2) - 2 * cw_log_price(p, tau, r) + cw_log_price(p, tau, r - h2)) / h2**2
        assert f_tau == pytest.approx(fd_tau, rel=1e-7, abs=1e-12)
        assert f_r == pytest.approx(fd_r, rel=1e-7, abs=1e-12)
        assert f_rr == pytest.approx(fd_rr, rel=1e-5, abs=5e-9)

    def test_partials_beta_series_region(self, params):
        p = ModelParams(params.alpha, 1e-8, params.sigma, 0.75)
        tau, r, h = 1.0, 0.1, 1e-6
        f_tau, f_r, f_rr = cw_partials(p, tau, r)
        fd_tau = (cw_log_price(p, tau + h, r) - cw_log_price(p, tau - h, r)) / (2 * h)
        assert f_tau == pytest.approx(fd_tau, rel=1e-7)


class TestPdeResidual:
    def test_fd_agrees_with_analytic(self, params):
        f = functools.partial(cw_log_price, params)
        part = functools.partial(cw_partials, params)
        exact = pde_residual(f, params, 0.2, 0.1, partials=part)
        fd = pde_residual(f, params, 0.2, 0.1)
        assert fd == pytest.approx(exact, abs=5e-9)

    def test_step_guard(self, params):
        f = functools.partial(cw_log_price, params)
        with pytest.raises(StepTooLarge):
            pde_residual(f, params, 0.02, 0.1, h_fd=1e-2)
        with pytest.raises(StepTooLarge):
            pde_residual(f, params, 1.0, 0.003, h_fd=1e-3)

    def test_residual_expansion_float64(self, params):
        # h(tau, r)/tau^4 = k4 + k5 tau + O(tau^2); resolvable in float64
        # down to tau ~ 0.1
        f = functools.partial(cw_log_price, params)
        part = functools.partial(cw_partials, params)
        r = 0.1
        k4v, k5v = k4(params, r), k5(params, r)
        for tau in (0.2, 0.1):
            h = pde_residual(f, params, tau, r, partials=part)
            rem = h / tau**4 - k4v - k5v * tau
            assert abs(rem) < 5e-9 * tau**2 + 1e-12

    @pytest.mark.parametrize("gamma", [0.75, 1.0, 1.32])
    def test_residual_expansion_other_gammas(self, params, gamma):
        p = params.with_gamma(gamma)
        f = functools.partial(cw_log_price, p)
        part = functools.partial(cw_partials, p)
        r = 0.1
        h = pde_residual(f, p, 0.1, r, partials=part)
        assert h / 0.1**4 == pytest.approx(k4(p, r) + k5(p, r) * 0.1, rel=0.02)


class TestImproved:
    def test_zero_maturity(self, params):
        assert improved_log_price(params, 0.0, 0.1) == 0.0

    def test_matches_reference(self, params):
        for tau, r in [(0.25, 0.05), (1.0, 0.15), (5.0, 0.08)]:
            assert improved_log_price(params, tau, r) == pytest.approx(
                float(mp_improved(params, tau, r)), rel=1e-12, abs=1e-15
            )

    def test_seventh_order_magnitude(self, params):
        # |improved - exact| collapses to the tau^7 scale; at tau = 0.5 the
        # difference is resolvable in float64 and must sit near the
        # asymptotic coefficient times tau^7 (within a factor allowing the
        # O(tau^8) correction)
        a, b, s2 = params.alpha, params.beta, params.sigma**2
        r = 0.1
        coef = abs(-(s2 / 5040) * (11 * a * b**3 + 11 * b**4 * r - 34 * a * b * s2
                                   - 180 * b**2 * r * s2 + 34 * r * s2**2))
        d = abs(improved_log_price(params, 0.5, r) - cir_log_price(params, 0.5, r))
        assert 0.5 * coef * 0.5**7 < d < 2.0 * coef * 0.5**7

    def test_domain_error_near_zero_rate_for_singular_gamma(self, params):
        with pytest.raises(DomainError):
            improved_log_price(params.with_gamma(0.75), 1.0, 0.0)

    def test_small_tau_quintic_remainder_bounded(self, params):
        # |cw - cir - c5 tau^5| / tau^6 stays bounded (by ~|c6|) as tau
        # halves from 0.2 to 0.0125; at the smallest tau the remainder is
        # ~6e-20, so the check runs on the 50-digit oracles
        import mpmath as mp

        from _reference import mp_c5 as ref_c5

        r = 0.1
        c6_scale = 1.53e-8  # |c6(0.1)| for the benchmark set
        ratios = []
        for tau in (0.2, 0.1, 0.05, 0.025, 0.0125):
            t = mp.mpf(tau)
            rem = mp_cw(params, tau, r) - mp_cir(params, tau, r) - ref_c5(params, r) * t**5
            ratios.append(abs(float(rem / t**6)))
        assert all(q < 2 * c6_scale for q in ratios)
        assert max(ratios) / min(ratios) < 1.5  # bounded, not growing


class TestInputGuards:
    @pytest.mark.parametrize("tau", [-1.0, float("nan")])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_negative_or_nan_maturity_rejected(self, params, method, tau):
        p = params.with_gamma(0.0 if method == "vasicek" else 0.5)
        with pytest.raises(ValidationError):
            METHODS[method](p, tau, 0.05)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_nan_rate_rejected(self, params, method):
        p = params.with_gamma(0.0 if method == "vasicek" else 0.5)
        with pytest.raises(DomainError):
            METHODS[method](p, 1.0, float("nan"))
        with pytest.raises(DomainError):
            METHODS[method](p, 1.0, np.array([0.05, np.nan]))

    @pytest.mark.parametrize("fn, gamma", [(cw_partials, 0.0), (cw_partials, 0.5), (cw_partials, 1.32),
                                           (cir_partials, 0.5), (vasicek_partials, 0.0)])
    def test_partials_refuse_what_the_pricers_refuse(self, params, fn, gamma):
        p = params.with_gamma(gamma)
        for tau in (-1.0, float("nan")):
            with pytest.raises(ValidationError):
                fn(p, tau, 0.05)
        for r in (float("nan"), np.array([0.05, np.nan])):
            with pytest.raises(DomainError):
                fn(p, 1.0, r)

    def test_vasicek_keeps_negative_rates(self, vas_params):
        assert np.isfinite(cw_log_price(vas_params, 1.0, -0.05))
        assert np.all(np.isfinite(cw_partials(vas_params, 1.0, -0.05)))
        assert np.all(np.isfinite(vasicek_partials(vas_params, 1.0, -0.05)))
