"""The approximation against the exact tau-series of ln P (tests/_series.py),
which is derived from the pricing PDE alone.

The paper's claim, checked without a solver: the closed form cw agrees with
the exact series through tau^4, and its tau^5 and tau^6 errors are the
library's c5 and c6, so improved_log_price = cw - c5 tau^5 - c6 tau^6 is
exact through tau^6 and its error is c7 tau^7 + O(tau^8), with c7 and c8
cw's own tau^7 and tau^8 errors.  cw's coefficients come from the 50-digit
oracle ``mp_cw`` by a Cauchy contour in tau.  The desk PDE solutions agree
with the same series wherever it has converged.
"""

import mpmath as mp
import pytest

from _reference import mp_cw
from _series import evaluate, series_tables, tau_coefficients
from bondkit import DEFAULT_PARAMS, c5, c6, improved_log_price

R = 0.1
#: Terms summed for the exact log price; the last is < 4e-21 at tau = 1.
N_EXACT = 14
#: Terms summed against the desk solutions; the series counts as converged
#: where its last two terms are below SERIES_TAIL.
N_DESK, SERIES_TAIL = 16, 1e-15


@pytest.fixture(scope="module", params=[0.75, 1.0, 1.32])
def coefficients(request):
    """(p, cw's tau-coefficients 1-8, the series' a_1 ... a_N_EXACT) at rate R."""
    p = DEFAULT_PARAMS.with_gamma(request.param)
    cw = tau_coefficients(lambda tau: mp_cw(p, tau, R), 8)
    exact = [evaluate(table, R) for table in series_tables(p, N_EXACT)]
    return p, cw, exact


def test_cw_is_exact_through_tau4(coefficients):
    _, cw, exact = coefficients
    for n in range(4):
        assert abs(cw[n] - exact[n]) <= 1e-40 * abs(exact[n]), f"tau^{n + 1}"


def test_cw_errors_at_tau5_tau6_are_c5_c6(coefficients):
    p, cw, exact = coefficients
    for n, coef in ((4, c5), (5, c6)):
        want = coef(p, R)
        assert abs((cw[n] - exact[n]) - want) <= 1e-13 * abs(want), coef.__name__


def test_improved_error_is_c7_tau7(coefficients):
    # (improved - exact) / (c7 tau^7) = 1 + (c8/c7) tau + O(tau^2); below
    # tau = 0.5 float64 rounding in improved_log_price swamps the tau^7 term
    p, cw, exact = coefficients
    c7, c8 = cw[6] - exact[6], cw[7] - exact[7]
    for tau in (0.5, 1.0):
        truth = sum(a * tau ** (n + 1) for n, a in enumerate(exact))
        ratio = (improved_log_price(p, tau, R) - truth) / (c7 * tau**7)
        assert abs(ratio - (1 + c8 / c7 * tau)) <= 0.01, f"tau={tau}: {float(ratio)}"


@pytest.mark.parametrize("gamma", [0.75, 1.0, 1.32])
def test_desk_pde_matches_the_series(desk_pde, gamma):
    # away from r = 0, where the negative powers of r make the series
    # diverge; the bound is the solver's implicit start-up error, which
    # dominates its O(dt^2) and O(dr^2) errors on the desk grid
    sol = desk_pde[0][gamma]
    tables = series_tables(DEFAULT_PARAMS.with_gamma(gamma), N_DESK)
    for i in range(0, sol.rates.size, 40):
        r = sol.rates[i]
        if not 0.005 <= r <= 0.15 + 1e-12:
            continue
        coefs = [evaluate(table, r) for table in tables]
        for tau in (1.0, 0.75, 0.5, 0.25):
            terms = [a * tau ** (n + 1) for n, a in enumerate(coefs)]
            assert max(abs(terms[-2]), abs(terms[-1])) < SERIES_TAIL, f"r={r}, tau={tau}: not converged"
            assert abs(sol.log_price_at(tau)[i] - mp.fsum(terms)) <= 1e-10, f"r={r}, tau={tau}"
