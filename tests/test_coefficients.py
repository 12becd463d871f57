"""Correction-coefficient identities and their gamma = 1/2 specializations.

The gamma = 1/2 polynomial forms asserted here are transcribed independently
of the production code and act as frozen oracles:

    k4 = (s^2/24) (a b + r (b^2 - 4 s^2))
    k5 = (b s^2/40) (a b + (b^2 - 10 s^2) r)
    c5 = -(s^2/120) (a b + r (b^2 - 4 s^2))
    c6 = (s^2/360) (-2 a b^2 + 17 b s^2 r - 2 b^3 r + 2 a s^2)
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from _reference import mp_c5, mp_c6, mp_improved, mp_k4, mp_k5
from bondkit import (ModelParams, c5, c5_derivatives, c6, cw_log_price, cw_partials,
                     improved_log_price, k4, k5, q_factor, vasicek_log_price)
from bondkit.approximation import R_FLOOR, _beta_brackets, _c5_terms, _c6_terms, _k5_terms
from bondkit.errors import DomainError, ValidationError


def cir_k4(p, r):
    s2 = p.sigma**2
    return (s2 / 24) * (p.alpha * p.beta + r * (p.beta**2 - 4 * s2))


def cir_k5(p, r):
    s2 = p.sigma**2
    return (p.beta * s2 / 40) * (p.alpha * p.beta + (p.beta**2 - 10 * s2) * r)


def cir_c5(p, r):
    s2 = p.sigma**2
    return -(s2 / 120) * (p.alpha * p.beta + r * (p.beta**2 - 4 * s2))


def cir_c6(p, r):
    s2 = p.sigma**2
    return (s2 / 360) * (-2 * p.alpha * p.beta**2 + 17 * p.beta * s2 * r - 2 * p.beta**3 * r + 2 * p.alpha * s2)


def random_points(rng, n, gamma_lo=0.0, gamma_hi=1.5):
    gammas = rng.uniform(gamma_lo, gamma_hi, n)
    rates = rng.uniform(0.01, 0.3, n)
    return gammas, rates


class TestIdentities:
    def test_c5_is_minus_k4_over_5(self, params, rng):
        gammas, rates = random_points(rng, 200)
        for g, r in zip(gammas, rates):
            p = params.with_gamma(float(g))
            lhs, rhs = c5(p, r), -k4(p, r) / 5
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1e-300)

    def test_c6_recurrence(self, params, rng):
        # -6 c6 + (1/2) s^2 r^{2g} c5'' + (a + b r) c5' - k5 = 0
        gammas, rates = random_points(rng, 200)
        for g, r in zip(gammas, rates):
            p = params.with_gamma(float(g))
            d1, d2 = c5_derivatives(p, r)
            terms = [
                -6 * c6(p, r),
                0.5 * p.sigma**2 * r ** (2 * float(g)) * d2,
                (p.alpha + p.beta * r) * d1,
                -k5(p, r),
            ]
            scale = max(abs(t) for t in terms) or 1.0
            assert abs(sum(terms)) <= 1e-13 * scale

    def test_gamma_zero_all_vanish(self, params):
        p = params.with_gamma(0.0)
        for r in (0.01, 0.1, 0.5):
            assert k4(p, r) == 0.0
            assert k5(p, r) == 0.0
            assert c5(p, r) == 0.0
            assert c6(p, r) == 0.0
            assert c5_derivatives(p, r) == (0.0, 0.0)


class TestCirSpecializations:
    def test_all_four_match_printed_forms(self, params):
        rates = np.linspace(0.002, 0.3, 50)
        for r in rates:
            r = float(r)
            for got, want in [
                (k4(params, r), cir_k4(params, r)),
                (k5(params, r), cir_k5(params, r)),
                (c5(params, r), cir_c5(params, r)),
                (c6(params, r), cir_c6(params, r)),
            ]:
                assert abs(got - want) <= 1e-13 * max(abs(got), abs(want))

    def test_c5_limit_at_zero_rate(self, params):
        # lim_{r -> 0} c5 = -s^2 a b / 120 for gamma = 1/2
        limit = -params.sigma**2 * params.alpha * params.beta / 120
        assert c5(params, 0.0) == pytest.approx(limit, rel=1e-15)
        assert c5(params, 1e-9) == pytest.approx(limit, rel=1e-6)

    def test_below_floor_uses_polynomial_forms(self, params):
        r = 1e-8
        assert k4(params, r) == pytest.approx(cir_k4(params, r), rel=1e-13)
        assert k5(params, r) == pytest.approx(cir_k5(params, r), rel=1e-13)

    def test_c5_derivatives_affine_case(self, params):
        d1, d2 = c5_derivatives(params, 0.07)
        assert d1 == pytest.approx(-(params.sigma**2 / 120) * (params.beta**2 - 4 * params.sigma**2), rel=1e-13)
        assert d2 == 0.0


class TestDomainGuards:
    def test_singular_gammas_rejected_near_zero(self, params):
        for g in (0.3, 0.6, 0.75, 0.9):
            p = params.with_gamma(g)
            with pytest.raises(DomainError):
                c5(p, 1e-8)
            with pytest.raises(DomainError):
                k4(p, 1e-8)

    def test_negative_rates_rejected_zero_allowed_only_for_half(self, params):
        # gamma = 1/2: r = 0 evaluates through the analytic-limit polynomial
        assert k4(params, 0.0) == pytest.approx(cir_k4(params, 0.0), rel=1e-15)
        assert k5(params, 0.0) == pytest.approx(cir_k5(params, 0.0), rel=1e-15)
        assert c6(params, 0.0) == pytest.approx(cir_c6(params, 0.0), rel=1e-13)
        with pytest.raises(DomainError):
            k4(params.with_gamma(0.75), 0.0)
        with pytest.raises(DomainError):
            k5(params, -0.1)
        with pytest.raises(DomainError):
            c5(params.with_gamma(0.75), -1.0)

    def test_gamma_at_least_one_fine_at_small_rates(self, params):
        # no negative powers survive in k4, k5 and c5 for gamma >= 1
        for g in (1.0, 1.32):
            p = params.with_gamma(g)
            for fn, ref in ((k4, mp_k4), (k5, mp_k5), (c5, mp_c5)):
                assert fn(p, 1e-8) == pytest.approx(float(ref(p, 1e-8)), rel=1e-12)
                assert np.isfinite(fn(p, 0.0))

    def test_gamma_one_improved_analytic_at_zero_rate(self, params):
        # c5'' and k5 keep only non-negative powers at gamma = 1 as well
        p = params.with_gamma(1.0)
        assert c5(p, 0.0) == pytest.approx(-p.sigma**2 * p.alpha**2 / 60, rel=1e-15)
        assert np.isfinite(improved_log_price(p, 1.0, 0.0))
        with pytest.raises(DomainError):
            c6(params.with_gamma(1.32), 1e-8)  # c5'' ~ r^{2 gamma - 4}

    @pytest.mark.parametrize("r", [math.nan, -0.1])
    def test_c6_checks_the_rate_where_every_monomial_vanishes(self, r):
        # sigma^2 underflows to 0 and beta = 0, so no monomial of c5', c5''
        # or k5 survives to run the check; c6 still reads the rate itself
        p = ModelParams(0.00315, 0.0, 1e-170, 0.5)
        with pytest.raises(DomainError, match=r"^c6: negative or NaN rate$"):
            c6(p, r)

    def test_c6_scales_a_merged_coefficient_past_the_float_range(self):
        # sigma^6 ~ 1e360 in c6's merged table: its coefficients carry 2^-k
        # and the prefactor 2^k, so r = 0 prices as the recurrence did,
        # while at r = 1e-12 the value itself overflows (sigma^8 r^3 ~ 1e444)
        p = ModelParams(0.00315, -0.0555, 1e60, 1.5)
        assert _c6_terms(p)[2] > 1.0
        # at r = 0 only alpha c5'(0) / 6 is left: c5'(0) = -gamma sigma^2 2 alpha^2 (2 gamma - 1) / 120
        assert c6(p, 0.0) == pytest.approx(-p.gamma * p.sigma**2 * 4 * p.alpha**3 / 720, rel=1e-15)
        assert improved_log_price(p, 1.0, 0.0) == pytest.approx(-c6(p, 0.0), rel=1e-15)
        for fn in (c6, lambda p, r: improved_log_price(p, 1.0, r)):
            with pytest.raises(ValidationError, match="out of float range"):
                fn(p, 1e-12)

    # Every negative or NaN rate is refused, and so are r = 0 and 1e-7 except
    # at these (function, gamma).  Each refusal names the function called,
    # whichever of its tables fails, so sharing one power table across a call
    # must not move or drop a check.
    PRICES_NEAR_ZERO = {("improved_log_price", 1.0), ("c6", 1.0), ("c5_derivatives", 1.0),
                        ("k5", 1.0), ("k5", 1.32), ("cw_partials", 1.0)}
    FUNCTIONS = {
        "improved_log_price": lambda p, r: improved_log_price(p, 1.0, r),
        "c6": c6,
        "c5_derivatives": c5_derivatives,
        "k5": k5,
        "cw_partials": lambda p, r: cw_partials(p, 1.0, r),
    }

    @staticmethod
    def refusal(name, near_zero):
        """The exact DomainError text a refusal by ``name`` carries."""
        if not near_zero:
            return f"{name}: negative or NaN rate"
        return f"{name}: singular as r -> 0 for this gamma; need r >= 1e-06"

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    @pytest.mark.parametrize("gamma", [0.3, 0.75, 1.0, 1.32])
    @pytest.mark.parametrize("r", [0.0, 1e-7, -0.01, math.nan])
    def test_refusal_parity(self, params, name, gamma, r):
        near_zero = r >= 0
        fn = self.FUNCTIONS[name]
        if near_zero and (name, gamma) in self.PRICES_NEAR_ZERO:
            values = np.atleast_1d(fn(params.with_gamma(gamma), r))
            assert np.all(np.isfinite(values))
            return
        with pytest.raises(DomainError) as info:
            fn(params.with_gamma(gamma), r)
        assert type(info.value) is DomainError
        assert str(info.value) == self.refusal(name, near_zero)


def floats(p, terms):
    """A (coef, j, m) table with each power j 2 gamma + m as a float."""
    return [(c, j * (2 * p.gamma) + m) for c, j, m in terms]


def derive(terms):
    """Term-by-term r-derivative of a (coef, power) table, powers as floats."""
    return [(c * pw, pw - 1) for c, pw in terms]


def c6_table(p):
    """c6's monomials (coef, power) with its prefactor -gamma sigma^2/720
    folded in, the smallest coefficient first: the recurrence's parts (1/2) sigma^2
    r^{2 gamma} c5'', alpha c5', beta r c5' and k5, each over -gamma
    sigma^2/120, merged in exact arithmetic on p's floats by power
    j 2 gamma + m (formed from its pair (j, m)), each coefficient rounded
    once and kept if not zero.  The fractions live in a plain namespace:
    ModelParams stores its fields as floats."""
    q = SimpleNamespace(**{k: Fraction(getattr(p, k)) for k in ("alpha", "beta", "sigma", "gamma")})
    d1 = [(c * (j * 2 * q.gamma + m), j, m - 1) for c, j, m in _c5_terms(q)]
    d2 = [(c * (j * 2 * q.gamma + m), j, m - 1) for c, j, m in d1]
    merged = {}
    for w, dj, dm, part in ((q.sigma**2 / 2, 1, 0, d2), (q.alpha, 0, 0, d1), (q.beta, 0, 1, d1),
                            (1, 0, 0, _k5_terms(q))):
        for c, j, m in part:
            pw = (j + dj) * (2 * p.gamma) + (m + dm)
            merged[pw] = merged.get(pw, 0) - q.gamma * q.sigma**2 / 720 * w * c
    return sorted([(float(c), pw) for pw, c in merged.items() if float(c) != 0.0], key=lambda t: abs(t[0]))


class TestTermByTerm:
    """Every coefficient equals its (coef, power) table summed term by term
    in table order, bit for bit: k4, k5, c5, c5' and c5'' their own tables,
    and c6 the one table its recurrence merges to (:func:`c6_table`), which
    is :func:`_c6_terms`'s.  Sharing powers of r between the tables of one
    call must not merge further coefficients or reorder a sum."""

    GRID = np.linspace(1e-6, 0.3, 1501)

    @staticmethod
    def tsum(r, pref, terms):
        arr = np.asarray(r, dtype=float)
        out = np.zeros_like(arr)
        for c, pw in terms:
            if c != 0.0:
                out = out + (c if pw == 0 else c * arr**pw)
        return pref * out

    def reference(self, p, r):
        """(k4, k5, c5, c5', c5'', c6) at rates r."""
        gs2 = p.gamma * p.sigma**2
        c5t = floats(p, _c5_terms(p))
        d1t = derive(c5t)
        d1 = self.tsum(r, -gs2 / 120.0, d1t)
        d2 = self.tsum(r, -gs2 / 120.0, derive(d1t))
        k5r = self.tsum(r, gs2 / 120.0, floats(p, _k5_terms(p)))
        c6r = self.tsum(r, 1.0, c6_table(p))
        return (self.tsum(r, gs2 / 24.0, c5t), k5r, self.tsum(r, -gs2 / 120.0, c5t), d1, d2, c6r)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.75, 1.0, 1.32, 1.49])
    @pytest.mark.parametrize("beta", [-0.0555, -0.002, 0.0, 2.0])
    def test_c6_table_is_the_exact_merge_rounded_once(self, params, gamma, beta):
        p = ModelParams(params.alpha, beta, params.sigma, gamma)
        table, floor, scale = _c6_terms(p)
        assert table == c6_table(p) and scale is None
        assert floor == (0.0 if gamma in (0.5, 1.0) else R_FLOOR)  # c5'' ~ r^{2 gamma - 4} elsewhere

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.75, 1.0, 1.32, 1.49])
    @pytest.mark.parametrize("rates", ["grid", 1e-6, 0.01, 0.05, 0.3])
    def test_bit_identical_to_table_sums(self, params, gamma, rates):
        p = params.with_gamma(gamma)
        r = self.GRID if rates == "grid" else rates
        got = (k4(p, r), k5(p, r), c5(p, r), *c5_derivatives(p, r), c6(p, r))
        for name, g, want in zip(("k4", "k5", "c5", "c5'", "c5''", "c6"), got,
                                 self.reference(p, r)):
            assert np.array_equal(g, want), name


class TestPricersTermByTerm:
    """The pricers equal the module-docstring formula

        ln P = -r B + t1 + (r^{2 gamma} + q tau) eg - q fh,   q and r^{2 gamma}
        as explicit arrays (zeros and ones at gamma = 0, r**0 and r**1 formed),

    evaluated term by term in this order, bit for bit; the improved price
    subtracts the term-by-term c5 tau^5 and c6 tau^6.  Skipping a pass that
    cannot change a bit (a power 0 or 1, a vanishing q) must keep every one,
    and so must the powers a repeated rate grid keeps across calls: each
    case is priced twice."""

    GRID = np.linspace(1e-6, 0.15, 1501)

    @staticmethod
    def cw(p, tau, r):
        arr = np.asarray(r, dtype=float)
        g = p.gamma
        if g == 0:
            q, r2g = np.zeros_like(arr), np.ones_like(arr)
        else:
            q = (g * (2 * g - 1) * (p.sigma * p.sigma) * arr ** (2 * (2 * g - 1))
                 + 2 * g * arr ** (2 * g - 1) * (p.alpha + p.beta * arr))
            r2g = arr ** (2 * g)
        B, t1, eg, fh = _beta_brackets(p, tau)
        return -arr * B + t1 + (r2g + q * tau) * eg - q * fh

    def improved(self, p, tau, r):
        if p.gamma == 0:
            return self.cw(p, tau, r)
        _, _, c5r, _, _, c6r = TestTermByTerm().reference(p, r)
        return self.cw(p, tau, r) - c5r * tau**5 - c6r * tau**6

    @staticmethod
    def same_bits(got, want):
        assert type(got) is (float if np.ndim(want) == 0 else np.ndarray)
        assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 0.75, 1.0, 1.32])
    @pytest.mark.parametrize("tau", [0.05, 1.0, 7.0])  # |beta tau| below and above 0.01
    @pytest.mark.parametrize("rates", ["grid", 1e-6, 0.05])
    def test_bit_identical_to_the_formula(self, params, gamma, tau, rates):
        p = params.with_gamma(gamma)
        r = self.GRID if rates == "grid" else rates
        for _ in range(2):
            self.same_bits(cw_log_price(p, tau, r), self.cw(p, tau, r))
            self.same_bits(improved_log_price(p, tau, r), self.improved(p, tau, r))
            if gamma == 0:
                self.same_bits(vasicek_log_price(p, tau, r), self.cw(p, tau, r))


class TestReferenceOffHalf:
    """k4, k5, c5 and c6 against the 50-digit transcriptions away from
    gamma = 1/2, where the polynomial forms above do not apply."""

    @pytest.mark.parametrize("gamma", [0.3, 0.75, 1.0, 1.32])
    @pytest.mark.parametrize("fn,ref", [(k4, mp_k4), (k5, mp_k5), (c5, mp_c5), (c6, mp_c6)],
                             ids=["k4", "k5", "c5", "c6"])
    def test_matches_reference(self, params, gamma, fn, ref):
        p = params.with_gamma(gamma)
        rates = np.concatenate([np.geomspace(1e-4, 0.15, 12), np.linspace(0.01, 0.14, 8)])
        got = fn(p, rates)
        want = np.array([float(ref(p, r)) for r in rates])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestUlpsAgainstReference:
    """c5, c6 and improved_log_price against the 50-digit transcriptions
    over a grid of slopes, gammas, rates and maturities, in ulps of the
    coefficient's scale sum |c_k r^{e_k}| over its monomials (powers merged
    where equal), and in ulps of |ln P| for the improved price.

    The bounds are the worst cases measured while c6 still ran its
    recurrence, rounded up: c5 3.25, c6 1.61 (beta 0.3, gamma 1/2, r 0.15),
    improved 14.6.  The improved price at |beta tau| < 0.01 runs the
    beta-series brackets, whose truncation (~1e-9 relative) is a known
    defect of the closed-form core, and has its own bound (14 722 then)."""

    BETAS = (-2.0, -0.0555, 0.002, -0.002, 0.3)
    GAMMAS = (0.5, 0.75, 1.0, 1.32)
    RATES = (0.001, 0.05, 0.15)
    ULPS = {"c5": 4.0, "c6": 2.0, "improved": 16.0, "improved, beta series": 16000.0}

    @staticmethod
    def ulps(got, want, scale):
        return float(abs(mpmath.mpf(got) - want) / math.ulp(scale))

    def worst(self):
        """The worst ulps of each function over the grid."""
        out = dict.fromkeys(self.ULPS, 0.0)
        for beta in self.BETAS:
            for gamma in self.GAMMAS:
                p = ModelParams(0.00315, beta, 0.0894, gamma)
                gs2 = gamma * 0.0894**2
                for r in self.RATES:
                    for name, fn, ref, pref, table in (("c5", c5, mp_c5, gs2 / 120, floats(p, _c5_terms(p))),
                                                       ("c6", c6, mp_c6, 1.0, c6_table(p))):
                        scale = pref * sum(abs(c) * r**pw for c, pw in table)
                        out[name] = max(out[name], self.ulps(fn(p, r), ref(p, r), scale))
                    for tau in (0.5, 3.0):
                        want = mp_improved(p, tau, r)
                        name = "improved, beta series" if abs(beta * tau) < 0.01 else "improved"
                        out[name] = max(out[name], self.ulps(improved_log_price(p, tau, r), want, abs(float(want))))
        return out

    def test_within_the_bounds(self):
        worst = self.worst()
        assert [name for name, bound in self.ULPS.items() if not worst[name] <= bound] == [], worst


class TestDerivativeOracles:
    def test_c5_prime_matches_central_differences(self, params, rng):
        gammas = rng.uniform(0.5, 1.4, 50)
        rates = rng.uniform(0.01, 0.3, 50)
        for g, r in zip(gammas, rates):
            p = params.with_gamma(float(g))
            r = float(r)
            h = 1e-6 * max(r, 1.0)
            d1, _ = c5_derivatives(p, r)

            def diff(hh):
                return (c5(p, r + hh) - c5(p, r - hh)) / (2 * hh)

            fd = (4 * diff(h / 2) - diff(h)) / 3
            assert d1 == pytest.approx(fd, rel=1e-6)

    def test_c5_double_prime_matches_central_differences(self, params, rng):
        # larger, r-proportional step: the second difference loses
        # ~eps*|c5|/h^2 to rounding, so the step pinned for c5' is too small
        gammas = rng.uniform(0.5, 1.4, 50)
        rates = rng.uniform(0.01, 0.3, 50)
        for g, r in zip(gammas, rates):
            p = params.with_gamma(float(g))
            r = float(r)
            h = 1e-3 * r

            def diff2(hh):
                return (c5(p, r + hh) - 2 * c5(p, r) + c5(p, r - hh)) / hh**2

            fd = (4 * diff2(h / 2) - diff2(h)) / 3
            _, d2 = c5_derivatives(p, r)
            assert d2 == pytest.approx(fd, rel=1e-6, abs=1e-18)

    def test_richardson_oracle_gamma_three_quarters(self, params):
        p = params.with_gamma(0.75)
        r = 0.05
        d1, d2 = c5_derivatives(p, r)
        h = 1e-3 * r

        def diff2(hh):
            return (c5(p, r + hh) - 2 * c5(p, r) + c5(p, r - hh)) / hh**2

        fd = (4 * diff2(h / 2) - diff2(h)) / 3
        assert d2 == pytest.approx(fd, rel=1e-4)


class TestQDomain:
    def test_gamma_below_half_positive_rates_ok(self, params):
        p = params.with_gamma(0.3)
        assert np.isfinite(q_factor(p, 0.05))
        assert np.isfinite(q_factor(p, 1e-6))
