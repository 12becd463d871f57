
import contextlib
import inspect
import sys
import threading
import warnings

import mpmath as mp
import numpy as np
import pytest

from _reference import mp_cir, mp_cw, mp_improved
from bondkit import (
    ModelParams,
    b_factor,
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
from bondkit.approximation import _c5_terms, _c6_terms, _Powers
from bondkit.errors import DomainError, ValidationError

MODES = ("ignore", "error", "raise")


@contextlib.contextmanager
def error_mode(mode):
    """NumPy's warnings ignored (``ignore``) or raised as errors (``error``),
    or its floating-point errors raised (``raise``)."""
    with warnings.catch_warnings(), np.errstate(all="raise" if mode == "raise" else None):
        warnings.simplefilter("error" if mode == "error" else "ignore")
        yield


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
        # a scalar call gives the bits of the same rate's element of a
        # 1501-node call, with the store cold, at the grid's second sight
        # and with its values kept: a scalar table takes NumPy's powers,
        # which Python's ** misses in the last bit for some rates
        r = np.linspace(1e-6, 0.15, 1501)
        nodes = [0, 1, 2, 3, 500, 750, 1001, 1337, 1499, 1500]
        cases = 0
        for call in scalar_array_calls(params):
            _Powers._kept.cache_clear()
            scalars = np.moveaxis(np.array([call(float(r[i])) for i in nodes]), 0, -1)
            for _ in range(3):
                assert np.asarray(call(r))[..., nodes].tobytes() == scalars.tobytes()
            assert np.moveaxis(np.array([call(float(r[i])) for i in nodes]), 0, -1).tobytes() == scalars.tobytes()
            cases += 1
        assert cases == 166


def scalar_array_calls(params):
    """Every pricer, partials and coefficient function of gamma in {0,
    0.25, 0.5, 0.75, 1, 1.32, 2} at tau in {0, 0.05, 1, 7.3}, as a call of
    the rates alone."""
    taus = (0.0, 0.05, 1.0, 7.3)
    for g in (0.0, 0.25, 0.5, 0.75, 1.0, 1.32, 2.0):
        p = params.with_gamma(g)
        for fn in (q_factor, k4, k5, c5, c5_derivatives, c6):
            yield lambda r, fn=fn, p=p: fn(p, r)
        partials = [cw_partials] + {0.0: [vasicek_partials], 0.5: [cir_partials]}.get(g, [])
        for tau in taus:
            for fn in (cw_log_price, cw_partials, improved_log_price) + ((cir_log_price,) if g == 0.5 else ()):
                yield lambda r, fn=fn, p=p, tau=tau: fn(p, tau, r)
            for f in partials:
                yield lambda r, f=f, p=p, tau=tau: pde_residual(f, p, tau, r)


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

    @pytest.mark.parametrize("partials, gamma", [(cw_partials, 0.75), (cir_partials, 0.5),
                                                 (vasicek_partials, 0.0)],
                             ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_partials_share_the_call_table(self, params, monkeypatch, partials, gamma):
        # one table per call: the maturity, the rate domain and r^{2 gamma}
        # are checked and formed once, and a refusal names pde_residual
        built = []
        init = _Powers.__init__
        monkeypatch.setattr(_Powers, "__init__", lambda self, *args: built.append(args[1]) or init(self, *args))
        p = params.with_gamma(gamma)
        for r in (0.05, np.linspace(1e-6, 0.15, 7)):
            built.clear()
            pde_residual(partials, p, 1.0, r)
            assert built == ["pde_residual"]
        with pytest.raises(DomainError, match=r"^pde_residual: (negative or )?NaN rate$"):
            pde_residual(partials, p, 1.0, np.nan)

    @pytest.mark.parametrize("r", [0.05, np.linspace(1e-6, 0.15, 101)], ids=["scalar", "grid"])
    def test_partials_may_price_other_parameters_on_the_call_table(self, params, r):
        # partials that price another parameter set get a table of that set
        # on the caller's rates and maturity: the bits of its own call
        p, other = params.with_gamma(0.75), ModelParams(0.004, -0.06, 0.1, 1.32)
        seen = []

        def partials(q, tau, table):
            seen.append(cw_partials(other, tau, table))
            return seen[-1]

        got = pde_residual(partials, p, 1.0, r)
        (out,) = seen
        want = cw_partials(other, 1.0, r)
        assert [np.asarray(v).tobytes() for v in out] == [np.asarray(v).tobytes() for v in want]
        assert np.asarray(got).tobytes() == np.asarray(pde_residual(lambda *_: want, p, 1.0, r)).tobytes()

    @pytest.mark.parametrize("partials", [cw_partials, cir_partials], ids=lambda fn: fn.__name__)
    def test_negative_rate_is_refused_in_its_name(self, params, partials):
        p = params.with_gamma(0.75 if partials is cw_partials else 0.5)
        with pytest.raises(DomainError, match=r"^pde_residual: negative or NaN rate$"):
            pde_residual(partials, p, 1.0, -0.1)


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

    @pytest.mark.parametrize("action, other", [("ignore", "error"), ("error", "ignore"), ("raise", "ignore")])
    def test_partials_refuse_the_grids_zero_before_an_overflowing_r2g(self, action, other):
        # at r = 1e250 r^{2 gamma} = r**1.5 overflows where q (beta = 0) is
        # finite; the sums of its derivatives refuse the grid's 0 as singular
        # before the result check could refuse the overflow, whichever
        # error mode formed or kept r**1.5
        p = ModelParams(0.00315, 0.0, 0.0894, 0.75)
        r = np.r_[np.linspace(0.0, 0.15, 1500), 1e250]
        _Powers._kept.cache_clear()
        for mode in (other, other, action, action):  # the grid is kept from its second call
            with error_mode(mode):
                with pytest.raises(DomainError, match=r"^cw_partials: singular as r -> 0"):
                    cw_partials(p, 1.0, r)
                with pytest.raises(DomainError, match=r"^pde_residual: singular as r -> 0"):
                    pde_residual(cw_partials, p, 1.0, r)

    @pytest.mark.parametrize("under", ["raise", "warn"])
    def test_numpy_underflow_decides_no_outcome(self, under):
        # a subnormal rate underflows in an array's NumPy arithmetic but not
        # in a scalar's Python floats: raised or warned as an error, the
        # underflow changes no outcome, cold or warm
        grid = np.linspace(1e-6, 0.15, 1501)
        grid[1] = 5e-324
        calls = [lambda: cw_log_price(ModelParams(0.00315, -0.0555, 0.0894, 0.5), 1.0, np.array([5e-324])),
                 lambda: c6(ModelParams(0.00315, -0.0555, 0.0894, 1.0), grid)]
        for call in calls:
            _Powers._kept.cache_clear()
            want = call().tobytes()
            _Powers._kept.cache_clear()
            for _ in range(4):  # cold, sight, keep, warm
                with warnings.catch_warnings(), np.errstate(all="raise", under=under):
                    warnings.simplefilter("error")
                    assert call().tobytes() == want
        scalar = cw_log_price(ModelParams(0.00315, -0.0555, 0.0894, 0.5), 1.0, 5e-324)
        assert np.frombuffer(calls[0]().tobytes()).tolist() == [scalar] == [-0.001545247529501971]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("r", [0.0, np.array([0.0])], ids=["scalar", "array"])
    def test_infinite_coefficient_times_zero_power_leaves_the_domain_check(self, mode, r):
        # sigma^2 is finite but q''s first table has an infinite coefficient,
        # whose product with r^2.5 = 0 is NaN; as for a scalar's Python floats,
        # no NumPy warning refuses it before q'''s sum refuses r = 0
        p = ModelParams(0.00315, -0.0555, 5e153, 1.375)
        with error_mode(mode), pytest.raises(DomainError, match=r"^cw_partials: singular as r -> 0"):
            cw_partials(p, 0.0, r)

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

    @pytest.mark.parametrize("r", [0.0, 1e-7, 0.05])
    @pytest.mark.parametrize("fn", [c5, k4, k5, c6], ids=lambda fn: fn.__name__)
    def test_vanishing_gamma_factor_drops_its_monomial(self, fn, r):
        # gamma = 1/2 has no singular term: a monomial with the factor
        # 2 gamma - 1 = 0 vanishes even where sigma^4 overflows, and
        # inf * 0 = NaN must not keep its negative power live.  At r = 0
        # the coefficients are their analytic limits; elsewhere sigma^2 r
        # overflows, as at r = 0.05
        a, b, s2 = 0.00315, -0.0555, 1e100**2
        limit = {c5: -s2 * a * b / 120, k4: s2 * a * b / 24, k5: s2 * a * b * b / 40}
        p = ModelParams(a, b, 1e100, 0.5)
        if r == 0 and fn in limit:
            assert fn(p, r) == pytest.approx(limit[fn], rel=1e-14)
        else:
            with pytest.raises(ValidationError, match=rf"^{fn.__name__}: out of float range$"):
                fn(p, r)

    @pytest.mark.parametrize("fn", [c5, k4, k5, c6], ids=lambda fn: fn.__name__)
    def test_nan_parameter_is_refused_not_dropped(self, fn):
        # at gamma = 1/2 and beta = 0 every alpha monomial has a zero factor,
        # but NaN * 0 is the parameter's NaN, not the formula's zero: it stays
        # live, with its negative power at r = 0
        p = ModelParams(float("nan"), 0.0, 0.0894, 0.5)
        with pytest.raises(DomainError, match=rf"^{fn.__name__}: singular as r -> 0"):
            fn(p, 0.0)
        with pytest.raises(ValidationError, match=rf"^{fn.__name__}: out of float range$"):
            fn(p, 0.05)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sigma, gamma, tau, r", [
        (0.0894, 0.75, 1e308, 1e-7),
        (1e100, 0.75, 1.0, 1e-7),
        (1e100, 1.32, 0.25, np.linspace(0.0, 0.15, 101)),
    ])
    def test_a_terms_rate_check_comes_before_the_result_check(self, mode, sigma, gamma, tau, r):
        # the cw term is not finite and the c5 or c6 term refuses
        # r < R_FLOOR: the term's rate check, where its sum meets the rate,
        # comes before the call's one result check, in every error mode
        p = ModelParams(0.00315, -0.0555, sigma, gamma)
        with error_mode(mode):
            with pytest.raises(DomainError, match=r"^improved_log_price: singular as r -> 0"):
                improved_log_price(p, tau, r)

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
        # follows is refused by name in every error mode, unless a sum of
        # cw_partials refuses the array's 0 first
        p = ModelParams(0.00315, -0.0555, 1e160, gamma)
        for r in (0.05, np.array([0.0, 0.05, 0.15])):
            singular = fn is cw_partials and np.ndim(r)
            want, match = (DomainError, "singular as r -> 0") if singular else \
                (ValidationError, r"out of float range at tau=1\.0$")
            for mode in MODES:
                with error_mode(mode), pytest.raises(want, match=rf"^{fn.__name__}: {match}"):
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
        if gamma == 0.5:
            # sigma * sigma = inf times 2 gamma - 1 = 0 is the formula's zero,
            # as in the monomial tables, so q is alpha + beta r
            assert q_factor(p, 0.05).hex() == (p.alpha + p.beta * 0.05).hex()
            return
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

    @pytest.mark.parametrize("fn", [b_factor, q_factor, k4, k5, c5, c5_derivatives, c6, pde_residual,
                                    *TAKES_TAU], ids=lambda fn: fn.__name__)
    def test_keyword_call_gives_the_positional_bits(self, params, fn):
        gamma = {vasicek_log_price: 0.0, vasicek_partials: 0.0, cir_log_price: 0.5, cir_partials: 0.5}
        p = params.with_gamma(gamma.get(fn, 0.75))
        r = np.linspace(1e-6, 0.15, 7)
        args = ((p.beta, 1.0) if fn is b_factor else (cw_partials, p, 1.0, r) if fn is pde_residual
                else (p, 1.0, r) if fn in self.TAKES_TAU else (p, r))
        names = list(inspect.signature(fn).parameters)
        want = fn(*args)
        for head in range(len(args)):
            got = fn(*args[:head], **dict(zip(names[head:], args[head:])))
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        with pytest.raises(TypeError, match="missing"):
            fn(*args[:-1])

    @pytest.mark.parametrize("fn, gamma", CASES, ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_scalar_rate_gives_floats(self, params, fn, gamma):
        for r in (0.05, np.float64(0.05), np.asarray(0.05)):
            for v in self.values(fn, params.with_gamma(gamma), r):
                assert type(v) is float

    @pytest.mark.parametrize("shape", [(7,), (2, 3), (0,), (8, 16)])
    @pytest.mark.parametrize("fn, gamma", CASES, ids=lambda v: getattr(v, "__name__", repr(v)))
    def test_read_only_array_rate_gives_new_arrays_of_its_shape(self, params, fn, gamma, shape):
        # (8, 16) is in the window of _Powers._kept: its first call sights
        # the array, the second keeps values and the third takes them, and
        # no call hands out what is kept
        r = np.linspace(1e-6, 0.15, int(np.prod(shape))).reshape(shape)
        r.setflags(write=False)
        _Powers._kept.cache_clear()
        for _ in range(3):
            for v in self.values(fn, params.with_gamma(gamma), r):
                assert type(v) is np.ndarray and v.dtype == float and v.shape == shape
                assert v.flags.writeable and not np.shares_memory(v, r)
                assert not any(np.shares_memory(v, k) for k in kept_arrays())


def kept_arrays():
    """Every array _Powers._kept holds: the rates and each value."""
    for _, rates, entries in _Powers._kept._arrays.values():
        yield rates
        for value in entries.values():
            yield from value.values() if type(value) is dict else (value,)


class _ReadLog(dict):
    """A grid's kept entries that log each lookup in ``reads`` as (key, hit)."""

    def __init__(self, entries, reads):
        super().__init__(entries)
        self.reads = reads

    def get(self, key, default=None):
        out = super().get(key, default)
        self.reads.append((key, out is not None))
        return out


def log_reads(r, reads):
    """Have the entries kept for the rates ``r`` log their lookups in ``reads``."""
    arrays = _Powers._kept._arrays
    (slot,) = [slot for slot, (data, _, _) in arrays.items() if data == r.tobytes()]
    data, rates, entries = arrays[slot]
    arrays[slot] = data, rates, _ReadLog(entries, reads)


def kept_entries(r):
    """The entries _Powers._kept holds for the rates ``r``, or None."""
    for data, rates, entries in _Powers._kept._arrays.values():
        if data == r.tobytes() and rates.shape == r.shape:
            return entries
    return None


class TestKeptPowers:
    """The generic powers of a repeated rate array, kept across calls, give
    the bits a fresh call forms, whatever the caller does with its array and
    however many threads price at once.  An array is kept from its second
    sight on, so each case prices its array at least twice."""

    P = (ModelParams(0.00315, -0.0555, 0.0894, 0.75), ModelParams(0.00315, -0.0555, 0.0894, 1.32))

    @staticmethod
    def fresh(fn, *args):
        _Powers._kept.cache_clear()
        return fn(*args)

    @pytest.mark.parametrize("fn", [improved_log_price, cw_log_price], ids=lambda fn: fn.__name__)
    def test_writing_into_the_rates_between_calls(self, fn):
        r = np.linspace(1e-4, 0.15, 1501)
        for p in self.P:
            for _ in range(2):
                fn(p, 1.0, r)
            r[700] = 0.2
            got = fn(p, 1.0, r)
            assert got.tobytes() == self.fresh(fn, p, 1.0, r).tobytes()
            r *= 0.5
            got = fn(p, 1.0, r)
            assert got.tobytes() == self.fresh(fn, p, 1.0, r).tobytes()

    def test_kept_powers_are_read_only_copies(self):
        r = np.linspace(1e-4, 0.15, 1501)
        _Powers._kept.cache_clear()
        improved_log_price(self.P[1], 1.0, r)
        assert kept_entries(r) is None  # first sight: nothing kept
        improved_log_price(self.P[1], 1.0, r)
        assert r.flags.writeable
        entries = kept_entries(r)
        powers = {pw: v for pw, v in entries.items() if type(pw) is float}
        assert len(powers) == 12  # the generic powers at gamma = 1.32
        kept = powers[2 * 1.32]
        # another alpha: no kept result serves, the kept powers do
        improved_log_price(ModelParams(0.004, -0.0555, 0.0894, 1.32), 2.0, r)
        assert kept_entries(r) is entries and entries[2 * 1.32] is kept  # taken, not formed again
        assert len([pw for pw in entries if type(pw) is float]) == 12
        assert not kept.flags.writeable and not np.shares_memory(kept, r)
        assert kept.tobytes() == (r ** (2 * 1.32)).tobytes()

    def test_at_most_the_bound_is_kept(self):
        _Powers._kept.cache_clear()
        grids = [np.linspace(1e-4, 0.15 + k, 1501) for k in range(10)]
        for r in grids:
            for _ in range(2):
                improved_log_price(self.P[1], 1.0, r)
        kept = _Powers._kept
        assert len(kept._arrays) == kept.ARRAYS == 4 and not kept._sights  # each grid admitted once
        assert [kept_entries(r) is not None for r in grids] == [False] * 6 + [True] * 4
        entries = kept_entries(grids[-1])
        for g in np.linspace(0.6, 1.4, 10):
            improved_log_price(self.P[0].with_gamma(float(g)), 1.0, grids[-1])
        assert len(entries) == kept.ENTRIES == 32

    def test_the_oldest_entry_goes_first(self, monkeypatch):
        # a lookup never reorders a grid's entries, so past ENTRIES the
        # first kept goes first, though a warm call has just read it
        kept = _Powers._kept
        r = np.linspace(1e-4, 0.15, 1501)
        ps = [self.P[0].with_gamma(g) for g in (0.75, 1.32, 0.6, 0.9, 1.1)]
        want = []
        for p in ps:
            kept.cache_clear()
            want.append(improved_log_price(p, 1.0, r).tobytes())
        kept.cache_clear()
        added = []
        put = kept.put
        monkeypatch.setattr(kept, "put", lambda entries, key, value: added.append(key) or put(entries, key, value))
        for _ in range(2):  # sight, keep
            improved_log_price(ps[0], 1.0, r)
        entries = kept_entries(r)
        order = list(entries)
        assert order == added and len(order) < kept.ENTRIES
        assert improved_log_price(ps[0], 1.0, r).tobytes() == want[0]  # reads its bundle, r^{2 gamma} with it
        assert list(entries) == order == added
        for p, value in zip(ps[1:], want[1:]):
            assert improved_log_price(p, 1.0, r).tobytes() == value
            assert list(entries) == added[-kept.ENTRIES:]
        assert len(added) > kept.ENTRIES and order[0] not in entries
        assert [improved_log_price(p, 1.0, r).tobytes() for p in ps] == want

    def test_curves_traffic_fills_no_map_to_its_bound(self):
        # the closed-form traffic of the curves benchmark (cw, improved, cir
        # and vasicek curves and points at five gammas, on the grids from 0
        # and from 1e-6) leaves every map of the store short of its bound:
        # there oldest-out keeps what least-recently-used would
        kept = _Powers._kept
        kept.cache_clear()
        grids = np.linspace(0.0, 0.15, 1501), np.linspace(1e-6, 0.15, 1501)
        rng = np.random.default_rng(7)
        pricers = {"cw": cw_log_price, "improved": improved_log_price, "cir": cir_log_price,
                   "vasicek": vasicek_log_price}
        for _ in range(3):
            for g in (0.0, 0.5, 0.75, 1.0, 1.32):
                p = self.P[0].with_gamma(g)
                for name, fn in pricers.items():
                    if {"cir": 0.5, "vasicek": 0.0}.get(name, g) != g:
                        continue
                    floor = name == "improved" and g not in (0.0, 0.5)
                    for r in (grids[floor], float(floor * 1e-6 + 0.15 * rng.random())):
                        fn(p, float(rng.uniform(0.01, 10.0)), r)
        assert len(kept._arrays) == 2 < kept.ARRAYS and len(kept._sights) < kept.SIGHTS
        assert all(len(entries) < kept.ENTRIES for _, _, entries in kept._arrays.values())
        assert 0 < len(kept._params) < kept.PARAMS

    def test_scalars_and_arrays_outside_the_window_keep_nothing(self):
        _Powers._kept.cache_clear()
        r = np.linspace(1e-4, 0.15, 20000)
        for rates in (0.05, r[:63], r, r[::2][:1501], np.asfortranarray(r[:1500].reshape(30, 50))):
            for _ in range(2):
                improved_log_price(self.P[1], 1.0, rates)
        assert not _Powers._kept._arrays and not _Powers._kept._sights

    def test_threads_give_the_serial_bits(self):
        # more threads than cores, more arrays than the bound and a short
        # switch interval: misses and evictions race
        grids = [np.linspace(1e-4, 0.15, 1501 + k) for k in range(6)]
        taus = np.linspace(0.05, 10.0, 200)
        pricers = (improved_log_price, cw_log_price, lambda p, tau, r: c6(p, r))
        jobs = [(fn, p, float(tau), k % len(grids)) for k, tau in enumerate(taus)
                for p in self.P for fn in pricers]
        _Powers._kept.cache_clear()
        want = [fn(p, tau, grids[k]).tobytes() for fn, p, tau, k in jobs]
        _Powers._kept.cache_clear()
        got = [[None] * len(jobs) for _ in range(4)]

        def work(out, shift):
            for i in range(len(jobs)):
                j = (i + shift) % len(jobs)
                fn, p, tau, k = jobs[j]
                out[j] = fn(p, tau, grids[k]).tobytes()

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


class TestKeptResults:
    """The tau-free terms (q, c5 and c6) cw and improved take from their
    one bundle in _Powers._kept for a repeated rate array give a fresh
    call's bits, are read-only and are never handed out."""

    GRIDS = {"zero": np.linspace(0.0, 0.15, 1501), "floor": np.linspace(1e-6, 0.15, 1501)}

    @staticmethod
    def outcome(fn, *args):
        try:
            out = fn(*args)
        except Exception as e:  # noqa: BLE001 - a refusal is an outcome too
            return type(e), str(e)
        return type(out), out.tobytes(), out.flags.writeable

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.75, 1.0, 1.32])
    def test_warm_call_gives_the_cold_bits(self, params, gamma, grid):
        p, r = params.with_gamma(gamma), self.GRIDS[grid]
        for fn in (cw_log_price, improved_log_price):
            for tau in (0.05, 1.0, 7.0):
                _Powers._kept.cache_clear()
                cold = self.outcome(fn, p, tau, r)
                for _ in range(2):  # sight, then keep
                    self.outcome(fn, p, tau, r)
                # at gamma = 0 cw forms no power and calls no tau-free function
                assert (kept_entries(r) is None) == (gamma == 0)
                assert self.outcome(fn, p, tau, r) == cold

    def test_kept_results_are_read_only(self, params):
        p, r = params.with_gamma(1.32), self.GRIDS["floor"]
        _Powers._kept.cache_clear()
        for _ in range(2):
            improved_log_price(p, 1.0, r)
        bundles = [v for key, v in kept_entries(r).items() if type(key) is bytes]
        assert len(bundles) == 1  # one bundle, under p's bits
        # lone calls on the admitted grid sum their own tables, with the bundle's bits
        want = {"q_factor": q_factor(p, r), "c5": c5(p, r), "c6": c6(p, r)}
        bundle = dict(bundles[0])
        r2g = kept_entries(r)[2 * 1.32]  # r^{2 gamma} is a kept power, which the bundle holds too
        assert bundle.pop(2 * 1.32) is r2g and r2g.tobytes() == (r ** (2 * 1.32)).tobytes()
        assert {make.__name__: v.tobytes() for make, v in bundle.items()} == \
            {name: v.tobytes() for name, v in want.items()}
        for v in (*bundles[0].values(), r2g):
            assert not v.flags.writeable and not np.shares_memory(v, r)

    @pytest.mark.parametrize("other", [
        ModelParams(0.00315, -0.0, 0.0894, 0.75),
        ModelParams(0.00315, 0.0, float(np.nextafter(0.0894, 1.0)), 0.75),
    ], ids=["beta -0.0", "sigma one ulp up"])
    def test_parameters_with_other_bits_share_no_entry(self, other):
        p = ModelParams(0.00315, 0.0, 0.0894, 0.75)
        r = self.GRIDS["floor"]
        want = []
        for q in (p, other):
            _Powers._kept.cache_clear()
            want.append(self.outcome(improved_log_price, q, 1.0, r))
        _Powers._kept.cache_clear()
        for _ in range(2):
            improved_log_price(p, 1.0, r)
        mine = {key for key in kept_entries(r) if type(key) is bytes}
        for _ in range(2):
            improved_log_price(other, 1.0, r)
        theirs = {key for key in kept_entries(r) if type(key) is bytes} - mine
        assert len(mine) == len(theirs) == 1
        # q, c5, c6 and r^{2 gamma}
        assert len(kept_entries(r)[next(iter(mine))]) == len(kept_entries(r)[next(iter(theirs))]) == 4
        assert [self.outcome(improved_log_price, q, 1.0, r) for q in (p, other)] == want

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("gamma", [0.5, 0.75, 1.0, 1.32])
    @pytest.mark.parametrize("fn", [cw_log_price, improved_log_price], ids=lambda fn: fn.__name__)
    def test_a_warm_call_reads_one_bundle(self, monkeypatch, params, fn, gamma, grid):
        # from the third call on (sight, keep, then warm) a call admits its
        # grid and packs p's bits once each, reads its bundle, r^{2 gamma}
        # with it, in one lookup and no other entry, forms and keeps nothing,
        # and returns a new writable array with a fresh call's bits
        p, r = params.with_gamma(gamma), self.GRIDS[grid]
        kept = _Powers._kept
        bits, want = kept.key(p), {}
        for n in range(5):
            kept.cache_clear()
            want[n] = self.outcome(fn, p, 1.0 + n, r)
        kept.cache_clear()
        looked, seen, reads = [], [], []
        missing = _Powers.__missing__
        monkeypatch.setattr(_Powers, "__missing__", lambda table, pw: looked.append(pw) or missing(table, pw))
        for name in ("key", "admit", "put"):
            monkeypatch.setattr(kept, name, lambda *args, f=getattr(kept, name), name=name: seen.append(name) or f(*args))
        for n in range(5):
            for log in (looked, seen, reads):
                log.clear()
            if want[n][0] is not np.ndarray or n < 2:
                assert self.outcome(fn, p, 1.0 + n, r) == want[n]
                continue
            if n == 2:
                log_reads(r, reads)
            out = fn(p, 1.0 + n, r)
            assert reads == [(bits, True)] and looked == []
            assert sorted(seen) == ["admit", "key"]
            assert (type(out), out.tobytes(), out.flags.writeable) == want[n]
            assert not any(np.shares_memory(out, v) for v in kept_arrays())
        # a refusal keeps no bundle
        assert (want[0][0] is np.ndarray) == any(type(key) is bytes for key in kept_entries(r) or ())

    def test_numpy_float_parameters_read_the_bundle(self, monkeypatch, params):
        # np.float64 parameters key the store by their bits: from the third
        # call on, their improved curve reads its bundle in one lookup and
        # forms no power, whether NumPy or Python floats kept it
        p = params.with_gamma(1.32)
        p_np = ModelParams(*map(np.float64, (p.alpha, p.beta, p.sigma, p.gamma)))
        r, kept = self.GRIDS["floor"], _Powers._kept
        kept.cache_clear()
        want = self.outcome(improved_log_price, p, 1.0, r)
        looked, reads = [], []
        missing = _Powers.__missing__
        monkeypatch.setattr(_Powers, "__missing__", lambda table, pw: looked.append(pw) or missing(table, pw))
        for keeper in (p_np, p):
            kept.cache_clear()
            for _ in range(2):  # sight, keep
                improved_log_price(keeper, 1.0, r)
            log_reads(r, reads)
            looked.clear()
            assert self.outcome(improved_log_price, p_np, 1.0, r) == want
            assert reads == [(kept.key(p), True)] and looked == []
            reads.clear()

    def test_writing_into_the_rates_gives_a_fresh_result(self, params):
        p = params.with_gamma(1.32)
        r = self.GRIDS["floor"].copy()
        for change in ("interior", "order"):
            for _ in range(3):
                improved_log_price(p, 1.0, r)
            if change == "interior":
                r[700] = 0.2  # the same slot in _kept (shape, ends), other bytes
            else:
                r[:] = r[::-1].copy()  # the same rates, other bytes
            got = [improved_log_price(p, 1.0, r).tobytes() for _ in range(3)]
            _Powers._kept.cache_clear()
            assert got == [improved_log_price(p, 1.0, r).tobytes()] * 3


class TestKeptTables:
    """Each parameter set of Python floats keeps its filtered monomial
    tables in _Powers._kept, for scalar and array calls alike: bounded,
    emptied by cache_clear, keyed by the bits of its four floats, shared
    by threads, and never a reason for other bits or a missed refusal."""

    P = ModelParams(0.00315, -0.0555, 0.0894, 1.32)
    GRID = np.linspace(1e-6, 0.15, 1501)

    @staticmethod
    def records():
        return _Powers._kept._params

    def test_calls_keep_and_reuse_the_tables(self):
        _Powers._kept.cache_clear()
        want = improved_log_price(self.P, 1.0, 0.05)
        (record,) = self.records().values()
        tables = dict(record)
        # c5's table, c6's one merged table of 12 monomials, and the point's batch
        assert [k[0] for k in tables if type(k) is tuple] == [_c5_terms, _c6_terms]
        assert len(record[_c6_terms, None, None][0]) == 12 and "improved_log_price" in tables
        for r in (0.05, self.GRID, 0.05):
            improved_log_price(self.P, 1.0, r)
        assert list(self.records().values()) == [record]
        assert record.keys() == tables.keys() and all(record[k] is v for k, v in tables.items())
        assert improved_log_price(self.P, 1.0, 0.05).hex() == want.hex()

    def test_at_most_the_bound_is_kept(self):
        kept = _Powers._kept
        kept.cache_clear()
        ps = [self.P.with_gamma(0.6 + 0.01 * k) for k in range(kept.PARAMS + 8)]
        for p in ps:
            c5(p, 0.05)
        assert list(self.records()) == [kept.key(p) for p in ps[-kept.PARAMS:]]
        kept.cache_clear()
        assert not self.records()

    def test_the_oldest_record_goes_first(self):
        # a lookup never reorders the records, so past PARAMS the first
        # kept goes first, though a call has just read it
        kept = _Powers._kept
        ps = [self.P.with_gamma(0.6 + 0.01 * k) for k in range(kept.PARAMS + 8)]
        want = []
        for p in ps:
            kept.cache_clear()
            want.append(c5(p, 0.05).hex())
        kept.cache_clear()
        for k, p in enumerate(ps):
            assert c5(p, 0.05).hex() == want[k]
            first = max(0, k + 1 - kept.PARAMS)
            assert c5(ps[first], 0.05).hex() == want[first]  # the oldest record, read
            assert list(self.records()) == [kept.key(q) for q in ps[first:k + 1]]
        assert [c5(p, 0.05).hex() for p in ps] == want

    def test_beta_minus_zero_is_its_own_key(self):
        ps = ModelParams(0.00315, 0.0, 0.0894, 0.75), ModelParams(0.00315, -0.0, 0.0894, 0.75)

        def outcomes(p):
            return [np.asarray(fn(p, 1.0, r)).tobytes() for fn in (improved_log_price, cw_partials)
                    for r in (0.05, self.GRID)]

        want = []
        for p in ps:
            _Powers._kept.cache_clear()
            want.append(outcomes(p))
        _Powers._kept.cache_clear()
        assert [outcomes(p) for p in ps] == want
        assert len(self.records()) == 2

    def test_numpy_float_parameters_keep_python_float_tables(self):
        # np.float64 subclasses float and has a Python float's bits: such
        # parameters, all four or some, keep their record under the bits
        # of the Python floats, whose tables hold Python floats only
        p64 = ModelParams(*map(np.float64, (self.P.alpha, self.P.beta, self.P.sigma, self.P.gamma)))
        mixed = ModelParams(self.P.alpha, np.float64(self.P.beta), self.P.sigma, self.P.gamma)
        for q in (p64, mixed):
            for r in (0.05, self.GRID):
                for fn in (improved_log_price, cw_partials):
                    _Powers._kept.cache_clear()
                    want = np.asarray(fn(self.P, 1.0, r)).tobytes()
                    _Powers._kept.cache_clear()
                    assert [np.asarray(fn(q, 1.0, r)).tobytes() for _ in range(3)] == [want] * 3
                    assert list(self.records()) == [_Powers._kept.key(self.P)]
                    (record,) = self.records().values()
                    tables = [v for key, v in record.items() if type(key) is tuple]
                    assert tables and all(type(c) is type(pw) is float for live, *_ in tables for c, pw in live)
                    assert all(type(pref) is float for *_, pref in tables if pref is not None)

    @pytest.mark.parametrize("p", [ModelParams(np.nan, -0.0555, 0.0894, 0.75),
                                   ModelParams(0.00315, -0.0555, np.nan, 1.32)], ids=["alpha", "sigma"])
    def test_a_nan_parameter_refuses_on_every_call(self, p):
        _Powers._kept.cache_clear()
        for r in (0.05, self.GRID):
            for fn in (c5, c6):
                for _ in range(3):
                    with pytest.raises(ValidationError, match=rf"^{fn.__name__}: out of float range$"):
                        fn(p, r)
            for _ in range(3):
                with pytest.raises(ValidationError, match=r"^improved_log_price: out of float range at tau=1\.0$"):
                    improved_log_price(p, 1.0, r)
        assert len(self.records()) == 1

    def test_threads_give_the_serial_bits(self):
        # more parameter sets than the bound and more threads than cores,
        # with a short switch interval: misses and evictions race
        ps = [self.P.with_gamma(0.5 + 0.02 * k) for k in range(_Powers._kept.PARAMS + 16)]
        jobs = [(p, tau, r) for p in ps for tau in (0.5, 3.0) for r in (1e-3, 0.05)]
        _Powers._kept.cache_clear()
        want = [improved_log_price(*job) for job in jobs]
        _Powers._kept.cache_clear()
        got = [[None] * len(jobs) for _ in range(4)]

        def work(out, shift):
            for i in range(len(jobs)):
                j = (i + shift) % len(jobs)
                out[j] = improved_log_price(*jobs[j])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out, 29 * n)) for n, out in enumerate(got)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all([v.hex() for v in out] == [v.hex() for v in want] for out in got)
        assert len(self.records()) == _Powers._kept.PARAMS
