
import sys
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest

from _reference import mp_cir, mp_cw, mp_improved
from bondkit import (
    ModelParams,
    c5,
    c5_derivatives,
    c6,
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
from bondkit.approximation import _Powers
from bondkit.errors import DomainError, ValidationError


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

    def test_tiny_nonzero_beta_keeps_its_drift(self, params):
        # B = tau at beta = 9e-11 would be off by ~6e-9 here
        p = ModelParams(params.alpha, 9e-11, params.sigma, 0.5)
        assert abs(cw_log_price(p, 30.0, 0.15) - mp_cw(p, 30.0, 0.15)) <= 1e-14

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

    @pytest.mark.parametrize("beta, tau, r", [(-0.0555, 0.18, 0.001), (0.3, 10.0, 0.05)])
    def test_f_tau_matches_reference_derivative(self, params, beta, tau, r):
        # at 50 digits; from 100 digits on, mp.diff misreads mp_cw's
        # 130-digit small-beta branch
        p = ModelParams(params.alpha, beta, params.sigma, 0.5)
        want = mp.diff(lambda t: mp_cw(p, t, r), tau)
        assert abs(cw_partials(p, tau, r)[0] - want) <= 1e-14 * abs(want)


class TestPdeResidual:
    def test_residual_expansion_float64(self, params):
        # h(tau, r)/tau^4 = k4 + k5 tau + O(tau^2); resolvable in float64
        # down to tau ~ 0.1
        r = 0.1
        k4v, k5v = k4(params, r), k5(params, r)
        for tau in (0.2, 0.1):
            h = pde_residual(cw_partials, params, tau, r)
            rem = h / tau**4 - k4v - k5v * tau
            assert abs(rem) < 5e-9 * tau**2 + 1e-12

    @pytest.mark.parametrize("gamma", [0.75, 1.0, 1.32])
    def test_residual_expansion_other_gammas(self, params, gamma):
        p = params.with_gamma(gamma)
        r = 0.1
        h = pde_residual(cw_partials, p, 0.1, r)
        assert h / 0.1**4 == pytest.approx(k4(p, r) + k5(p, r) * 0.1, rel=0.02)

    @pytest.mark.parametrize("r", [0.05, np.linspace(0.0, 0.3, 301)], ids=["scalar", "grid"])
    def test_non_finite_residual_is_refused(self, r):
        # finite partials, but sigma^2 f_r^2 overflows
        p = ModelParams(0.00315, -0.0555, 1e60, 0.5)
        with pytest.raises(ValidationError, match=r"^pde_residual: out of float range at tau=1\.0$"):
            pde_residual(cw_partials, p, 1.0, r)


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

    @pytest.mark.parametrize("action", ["ignore", "error"])
    def test_partials_check_the_rate_before_the_brackets(self, action):
        # the beta-brackets overflow at this maturity; r = 0 is refused first
        # whether NumPy's overflow warning is ignored or raised
        p = ModelParams(0.00315, 2.0, 0.0894, 0.75)
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(DomainError, match=r"^cw_partials: singular as r -> 0"):
                cw_partials(p, 1e52, 0.0)

    @pytest.mark.parametrize("fn, gamma", [(cw_partials, 0.75), (vasicek_partials, 0.0)])
    def test_partials_overflow_is_typed(self, params, fn, gamma):
        p = ModelParams(params.alpha, 0.0, params.sigma, gamma)
        with pytest.raises(ValidationError, match=rf"^{fn.__name__}: out of float range at tau=1e\+80$"):
            fn(p, 1e80, 0.05)

    @pytest.mark.parametrize("fn", [k4, k5, c5, c5_derivatives, c6], ids=lambda fn: fn.__name__)
    def test_coefficient_overflow_is_typed(self, fn):
        # sigma**2 overflows in the prefactor
        p = ModelParams(0.00315, -0.0555, 1e160, 0.75)
        with pytest.raises(ValidationError, match=rf"^{fn.__name__}: out of float range$"):
            fn(p, 0.05)

    def test_nested_overflow_names_the_outer_call(self):
        # the beta -> 0 series overflows inside the cw term, which improved
        # evaluates on its own power table, so improved is the one refusing
        p = ModelParams(0.00315, 0.0, 0.0894, 0.75)
        with pytest.raises(ValidationError, match=r"^improved_log_price: out of float range at tau=1e\+80$"):
            improved_log_price(p, 1e80, 0.05)

    @pytest.mark.parametrize("fn, gamma", [(cw_log_price, 0.75), (vasicek_log_price, 0.0),
                                           (cir_log_price, 0.5), (improved_log_price, 0.75),
                                           (cw_partials, 0.75), (cir_partials, 0.5)],
                             ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_overflowing_sigma_squared_is_typed(self, fn, gamma):
        # sigma * sigma rounds to inf without an OverflowError; the NaN that
        # follows, or its RuntimeWarning under -W error, is refused by name
        p = ModelParams(0.00315, -0.0555, 1e160, gamma)
        for r in (0.05, np.array([0.0, 0.05, 0.15])):
            with pytest.raises(ValidationError, match=rf"^{fn.__name__}: out of float range at tau=1\.0$"):
                fn(p, 1.0, r)

    @pytest.mark.parametrize("fn", [cw_log_price, improved_log_price, cw_partials],
                             ids=lambda fn: fn.__name__)
    def test_overflowing_q_constant_is_typed(self, fn):
        # gamma (2 gamma - 1) sigma^2 is inf at gamma = 1e200
        p = ModelParams(0.00315, -0.0555, 0.0894, 1e200)
        for r in (0.05, np.array([0.0, 0.05, 0.15])):
            with pytest.raises(ValidationError, match=rf"^{fn.__name__}: out of float range at tau=1\.0$"):
                fn(p, 1.0, r)

    @pytest.mark.parametrize("sigma, gamma", [(1e160, 0.75), (1e160, 0.5), (0.0894, 1e200)])
    def test_q_factor_constant_overflow_is_typed(self, sigma, gamma):
        p = ModelParams(0.00315, -0.0555, sigma, gamma)
        with pytest.raises(ValidationError, match=r"^q_factor: out of float range$"):
            q_factor(p, 0.05)

    @pytest.mark.parametrize("fn, sigma, gamma, tau, r", [
        (cw_log_price, 1e100, 0.75, 1.0, 0.05),
        (improved_log_price, 1e100, 0.75, 1.0, 0.05),
        (cw_log_price, 0.0894, 0.5, 1e308, 0.05),
        (cw_log_price, 0.0894, 0.5, 1.0, np.inf),
        (improved_log_price, 0.0894, 0.75, 1.0, np.inf),
        (c5, 0.0894, 0.75, None, np.inf),
        (cir_log_price, 0.0894, 0.5, 1.0, np.inf),
        (vasicek_log_price, 0.0894, 0.0, 1.0, np.inf),
    ], ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_non_finite_result_is_refused(self, params, fn, sigma, gamma, tau, r):
        # finite constants whose products overflow, a huge maturity or an
        # infinite rate: the call's power table refuses the non-finite result
        p = ModelParams(params.alpha, params.beta, sigma, gamma)
        curve = np.linspace(0.01, 0.15, 1501)
        curve[-1] = r
        for rate in (r, curve):
            with pytest.raises(ValidationError, match=rf"^{fn.__name__}: out of float range"):
                fn(p, rate) if tau is None else fn(p, tau, rate)

    def test_vasicek_keeps_negative_rates(self, vas_params):
        assert np.isfinite(cw_log_price(vas_params, 1.0, -0.05))
        assert np.all(np.isfinite(cw_partials(vas_params, 1.0, -0.05)))
        assert np.all(np.isfinite(vasicek_partials(vas_params, 1.0, -0.05)))


class TestCallContract:
    """Every public pricer, partials and coefficient function: a scalar rate
    gives Python floats, and an array rate, read-only here, gives new arrays
    of its shape, empty included; so no call writes into the caller's rates
    or hands them back."""

    TAKES_TAU = (cw_log_price, cw_partials, improved_log_price, vasicek_log_price,
                 vasicek_partials, cir_log_price, cir_partials)
    CASES = ([(fn, g) for fn in (q_factor, k4, k5, c5, c5_derivatives, c6, cw_log_price,
                                 cw_partials, improved_log_price) for g in (0.0, 0.5, 0.75)]
             + [(vasicek_log_price, 0.0), (vasicek_partials, 0.0),
                (cir_log_price, 0.5), (cir_partials, 0.5)])

    def values(self, fn, p, r):
        out = fn(p, 1.0, r) if fn in self.TAKES_TAU else fn(p, r)
        return out if isinstance(out, tuple) else (out,)

    @pytest.mark.parametrize("fn, gamma", CASES, ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_scalar_rate_gives_floats(self, params, fn, gamma):
        for r in (0.05, np.float64(0.05), np.asarray(0.05)):
            for v in self.values(fn, params.with_gamma(gamma), r):
                assert type(v) is float

    @pytest.mark.parametrize("shape", [(7,), (2, 3), (0,), (8, 16)])
    @pytest.mark.parametrize("fn, gamma", CASES, ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_read_only_array_rate_gives_new_arrays_of_its_shape(self, params, fn, gamma, shape):
        r = np.linspace(1e-6, 0.15, int(np.prod(shape))).reshape(shape)
        r.setflags(write=False)
        for v in self.values(fn, params.with_gamma(gamma), r):
            assert type(v) is np.ndarray and v.dtype == float and v.shape == shape
            assert v.flags.writeable and not np.shares_memory(v, r)


class TestKeptPowers:
    """The generic powers of a repeated rate array, kept across calls, give
    the bits a fresh call forms, whatever the caller does with its array and
    however many threads price at once."""

    P = (ModelParams(0.00315, -0.0555, 0.0894, 0.75), ModelParams(0.00315, -0.0555, 0.0894, 1.32))

    @staticmethod
    def fresh(fn, *args):
        _Powers._kept.cache_clear()
        return fn(*args)

    def test_writing_into_the_rates_between_calls(self):
        r = np.linspace(1e-4, 0.15, 1501)
        for p in self.P:
            improved_log_price(p, 1.0, r)
            r[700] = 0.2
            got = improved_log_price(p, 1.0, r)
            assert got.tobytes() == self.fresh(improved_log_price, p, 1.0, r).tobytes()
            r *= 0.5
            got = improved_log_price(p, 1.0, r)
            assert got.tobytes() == self.fresh(improved_log_price, p, 1.0, r).tobytes()

    def test_kept_powers_are_read_only_copies(self):
        r = np.linspace(1e-4, 0.15, 1501)
        _Powers._kept.cache_clear()
        improved_log_price(self.P[1], 1.0, r)
        assert r.flags.writeable
        powers = _Powers._kept(r.shape, r.tobytes())
        assert powers.cache_info().currsize == 14  # the generic powers at gamma = 1.32
        kept = powers(2 * 1.32)
        assert powers.cache_info().misses == 14
        assert not kept.flags.writeable and not np.shares_memory(kept, r)
        assert kept.tobytes() == (r ** (2 * 1.32)).tobytes()

    def test_at_most_the_bound_is_kept(self):
        _Powers._kept.cache_clear()
        grids = [np.linspace(1e-4, 0.15 + k, 1501) for k in range(10)]
        for r in grids:
            improved_log_price(self.P[1], 1.0, r)
        info = _Powers._kept.cache_info()
        assert (info.currsize, info.maxsize, info.misses) == (4, 4, 10)
        powers = _Powers._kept(grids[-1].shape, grids[-1].tobytes())
        for g in np.linspace(0.6, 1.4, 10):
            improved_log_price(self.P[0].with_gamma(float(g)), 1.0, grids[-1])
        assert powers.cache_info().currsize == powers.cache_info().maxsize == 32

    def test_scalars_and_arrays_outside_the_window_keep_nothing(self):
        _Powers._kept.cache_clear()
        r = np.linspace(1e-4, 0.15, 20000)
        for rates in (0.05, r[:63], r, r[::2][:1501], np.asfortranarray(r[:1500].reshape(30, 50))):
            improved_log_price(self.P[1], 1.0, rates)
        assert _Powers._kept.cache_info().currsize == 0

    def test_threads_give_the_serial_bits(self):
        # more threads than cores, more arrays than the bound and a short
        # switch interval: misses and evictions race
        grids = [np.linspace(1e-4, 0.15, 1501 + k) for k in range(6)]
        taus = np.linspace(0.05, 10.0, 200)
        jobs = [(p, float(tau), k % len(grids)) for k, tau in enumerate(taus) for p in self.P]
        _Powers._kept.cache_clear()
        want = [improved_log_price(p, tau, grids[k]).tobytes() for p, tau, k in jobs]
        _Powers._kept.cache_clear()
        got = [[None] * len(jobs) for _ in range(4)]

        def work(out, shift):
            for i in range(len(jobs)):
                j = (i + shift) % len(jobs)
                p, tau, k = jobs[j]
                out[j] = improved_log_price(p, tau, grids[k]).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out, 37 * n)) for n, out in enumerate(got)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(out == want for out in got)
