"""Closed-form log-price approximation and its correction coefficients.

The log price is approximated by

    ln P(tau, r) = -r B + (alpha/beta)(tau - B)
                   + (r^{2 gamma} + q tau) (sigma^2 / 4 beta) [B^2 + (2/beta)(tau - B)]
                   - q (sigma^2 / 8 beta^2) [B^2 (2 beta tau - 1)
                       - 2 B (2 tau - 3/beta) + 2 tau^2 - 6 tau / beta]

with B = (e^{beta tau} - 1)/beta and the drift adjustment
q(r) = gamma (2 gamma - 1) sigma^2 r^{2(2 gamma - 1)}
       + 2 gamma r^{2 gamma - 1} (alpha + beta r).

For gamma = 0 this is the exact Vasicek solution.  For general gamma the
formula solves the pricing PDE only up to a residual h(tau, r) =
k4(r) tau^4 + k5(r) tau^5 + o(tau^5); subtracting the induced log-price
error terms c5(r) tau^5 + c6(r) tau^6 yields the improved approximation
whose error is o(tau^6).

Numerical notes
---------------
* The three beta-singular brackets above have removable singularities at
  beta = 0.  For |beta * tau| < 0.01 each is replaced by a four-term Taylor
  expansion in beta (truncation ~1e-9 relative, matching the cancellation
  noise of the exact path at the switch), so the formulas are continuous
  through beta = 0.
* Every polynomial coefficient (k4, k5, c5 and its r-derivatives, and the
  r-derivatives of r^{2 gamma} and q in cw_partials) is a (coef, power)
  table of monomials in r, summed by one evaluator with one domain rule:
  negative or NaN rates are refused, and a function refuses r < R_FLOOR =
  1e-6 exactly when one of its monomials with a negative power has a
  nonzero coefficient.  Zero coefficients drop out before any power is
  formed, so at gamma = 1/2 the tables reduce to the square-root-model
  polynomials and r = 0 evaluates to the analytic limit; for gamma >= 1
  k4, k5 and c5 have no negative powers at all.  q_factor obeys the same
  rule (negative powers exactly for 0 < gamma < 1/2).
* k4 and c5 share one table, so c5 = -k4/5 holds to ~1e-15 relative.
"""

from __future__ import annotations

import numpy as np

from .closed_form import _check_maturity, b_factor
from .errors import DomainError, StepTooLarge
from .model import ModelParams

__all__ = [
    "q_factor",
    "cw_log_price",
    "cw_partials",
    "k4",
    "k5",
    "c5",
    "c5_derivatives",
    "c6",
    "improved_log_price",
    "pde_residual",
    "R_FLOOR",
]

#: Coefficient functions with negative r-exponents are rejected below this rate.
R_FLOOR = 1e-6

#: |beta * tau| below which the beta-singular brackets switch to series form.
_SERIES_SWITCH = 1e-2


def _beta_brackets(alpha: float, beta: float, sigma: float, tau: float):
    """Return (B, t1, eg, fh): the three beta-singular building blocks

        t1 = (alpha/beta)(tau - B)
        eg = sigma^2/(4 beta) * [B^2 + (2/beta)(tau - B)]
        fh = sigma^2/(8 beta^2) * [B^2(2 beta tau - 1) - 2B(2 tau - 3/beta)
                                   + 2 tau^2 - 6 tau/beta]

    switching to 4-term beta-series below |beta*tau| = 0.01.
    """
    B = b_factor(beta, tau)
    s2 = sigma * sigma
    if abs(beta * tau) < _SERIES_SWITCH:
        b1, b2, b3 = beta, beta * beta, beta**3
        t2, t3, t4 = tau * tau, tau**3, tau**4
        t1 = -alpha * (t2 / 2 + b1 * t2 * tau / 6 + b2 * t4 / 24 + b3 * t4 * tau / 120)
        eg = s2 * (t3 / 6 + b1 * t4 / 8 + 7 * b2 * t4 * tau / 120 + b3 * t4 * t2 / 48)
        fh = s2 * (t4 / 8 + b1 * t4 * tau / 10 + 7 * b2 * t3 * t3 / 144 + b3 * t4 * t3 / 56)
        return B, t1, eg, fh
    tmb = tau - B
    t1 = (alpha / beta) * tmb
    eg = (s2 / (4 * beta)) * (B * B + (2 / beta) * tmb)
    fh = (s2 / (8 * beta * beta)) * (
        B * B * (2 * beta * tau - 1) - 2 * B * (2 * tau - 3 / beta) + 2 * tau * tau - 6 * tau / beta
    )
    return B, t1, eg, fh


def _beta_brackets_dtau(alpha: float, beta: float, sigma: float, tau: float):
    """Tau-derivatives (Bp, t1p, egp, fhp) of the pieces above.

    t1' = -alpha*B and eg' = sigma^2 B^2 / 2 hold exactly for every beta;
    only fh' needs the series switch.
    """
    B = b_factor(beta, tau)
    Bp = np.exp(beta * tau)
    s2 = sigma * sigma
    t1p = -alpha * B
    egp = 0.5 * s2 * B * B
    if abs(beta * tau) < _SERIES_SWITCH:
        b1, b2, b3 = beta, beta * beta, beta**3
        t3, t4 = tau**3, tau**4
        fhp = s2 * (t3 / 2 + b1 * t4 / 2 + 7 * b2 * t4 * tau / 24 + b3 * t3 * t3 / 8)
    else:
        hp = (
            2 * B * Bp * (2 * beta * tau - 1)
            + 2 * beta * B * B
            - 4 * tau * Bp
            + 2 * B
            + 4 * tau
        )
        fhp = (s2 / (8 * beta * beta)) * hp
    return Bp, t1p, egp, fhp


def _derive(terms):
    """Term-by-term r-derivative of a (coef, power) table."""
    return [(c * pw, pw - 1) for c, pw in terms]


def _powsum(arr, terms, what: str):
    """Sum coef * r**power over a (coef, power) table, under the module's
    one domain rule.

    Zero coefficients drop out first, so their (possibly negative) powers
    are never formed.  A negative or NaN rate is refused unless no monomial
    survives, and a rate below R_FLOOR is refused exactly when a surviving
    monomial has a negative power.
    """
    live = [(c, pw) for c, pw in terms if c != 0.0]
    out = np.zeros_like(arr)
    if not live:
        return out
    if not (arr >= 0).all():
        raise DomainError(f"{what}: negative or NaN rate")
    if any(pw < 0 for _, pw in live) and (arr < R_FLOOR).any():
        raise DomainError(f"{what}: singular as r -> 0 for this gamma; need r >= {R_FLOOR}")
    for c, pw in live:
        out = out + (c if pw == 0 else c * arr**pw)
    return out


def q_factor(p: ModelParams, r):
    """Drift adjustment q(r) entering the closed-form log price.

    Equals the generator of the rate process applied to r^{2 gamma}; for
    gamma = 1/2 it reduces to alpha + beta*r, and it vanishes identically
    for gamma = 0.  Its monomials carry negative powers exactly when
    0 < gamma < 1/2, so those gammas need r >= R_FLOOR.

    Kept in factored form rather than summed from :func:`_q_terms`: the
    factored form needs two powers of r instead of three, which keeps every
    :func:`cw_log_price` call 15-20 % cheaper.
    """
    g = p.gamma
    scalar = np.ndim(r) == 0
    arr = np.asarray(r, dtype=float)
    if g == 0:
        out = np.zeros_like(arr)
        return 0.0 if scalar else out
    if not (arr >= 0).all():
        raise DomainError("q_factor: negative or NaN rate")
    if g < 0.5 and (arr < R_FLOOR).any():
        raise DomainError(f"q_factor: singular as r -> 0 for gamma < 1/2; need r >= {R_FLOOR}")
    s2 = p.sigma * p.sigma
    out = g * (2 * g - 1) * s2 * arr ** (2 * (2 * g - 1)) + 2 * g * arr ** (2 * g - 1) * (
        p.alpha + p.beta * arr
    )
    return float(out) if scalar else out


def _q_terms(p: ModelParams):
    """Monomials (coef, power) of q; see :func:`q_factor`."""
    g = p.gamma
    return [
        (g * (2 * g - 1) * p.sigma**2, 2 * (2 * g - 1)),
        (2 * g * p.alpha, 2 * g - 1),
        (2 * g * p.beta, 2 * g),
    ]


def _q_and_r2g(p: ModelParams, arr, what: str):
    """q(r) and r^{2 gamma} under the rate domain of :func:`q_factor`."""
    q = q_factor(p, arr)
    if p.gamma != 0:
        return q, arr ** (2 * p.gamma)
    # q vanishes here without looking at r; Vasicek keeps negative rates
    if np.isnan(arr).any():
        raise DomainError(f"{what}: NaN rate")
    return q, np.ones_like(arr)


def cw_log_price(p: ModelParams, tau: float, r):
    """Closed-form approximate log bond price (exact for gamma = 0).

    Parameters
    ----------
    p : ModelParams
    tau : maturity in years, >= 0
    r : rate (scalar or ndarray); r = 0 requires gamma = 0 or gamma >= 1/2,
        and 0 < gamma < 1/2 needs r >= R_FLOOR

    Returns
    -------
    Log price, same shape as ``r``.
    """
    _check_maturity(tau)
    scalar = np.ndim(r) == 0
    arr = np.asarray(r, dtype=float)
    q, r2g = _q_and_r2g(p, arr, "cw_log_price")
    B, t1, eg, fh = _beta_brackets(p.alpha, p.beta, p.sigma, tau)
    out = -arr * B + t1 + (r2g + q * tau) * eg - q * fh
    return float(out) if scalar else out


def cw_partials(p: ModelParams, tau: float, r):
    """Analytic (f_tau, f_r, f_rr) of :func:`cw_log_price`.

    Suitable as the ``partials`` argument of :func:`pde_residual`; resolves
    residuals down to rounding level (~1e-15), far below what central
    differences can reach.
    """
    _check_maturity(tau)
    scalar = np.ndim(r) == 0
    arr = np.asarray(r, dtype=float)
    q, r2g = _q_and_r2g(p, arr, "cw_partials")
    B, t1, eg, fh = _beta_brackets(p.alpha, p.beta, p.sigma, tau)
    Bp, t1p, egp, fhp = _beta_brackets_dtau(p.alpha, p.beta, p.sigma, tau)
    d1_terms = _derive([(1.0, 2 * p.gamma)])  # d/dr of r^{2 gamma}
    qp_terms = _derive(_q_terms(p))
    d1, d2, qp, qpp = (_powsum(arr, t, "cw_partials")
                       for t in (d1_terms, _derive(d1_terms), qp_terms, _derive(qp_terms)))
    f_tau = -arr * Bp + t1p + q * eg + (r2g + q * tau) * egp - q * fhp
    f_r = -B + (d1 + qp * tau) * eg - qp * fh
    f_rr = (d2 + qpp * tau) * eg - qpp * fh
    if scalar:
        return float(f_tau), float(f_r), float(f_rr)
    return f_tau, f_r, f_rr


def _c5_terms(p: ModelParams):
    """Monomials (coef, power) of c5 after absorbing the r^{2(gamma-2)}
    prefactor; the -gamma sigma^2/120 prefactor is applied separately.
    The same table times gamma sigma^2/24 is k4."""
    a, b, s, g = p.alpha, p.beta, p.sigma, p.gamma
    s2 = s * s
    return [
        (2 * a * a * (2 * g - 1), 2 * g - 2),
        (4 * b * b * g, 2 * g),
        (-8 * s2, 4 * g - 1),
        (2 * b * s2 * (1 - 5 * g + 6 * g * g), 4 * g - 2),
        (s2 * s2 * (2 * g - 1) ** 2 * (4 * g - 3), 6 * g - 4),
        (2 * a * b * (4 * g - 1), 2 * g - 1),
        (2 * a * s2 * (2 * g - 1) * (3 * g - 2), 4 * g - 3),
    ]


def _k5_terms(p: ModelParams):
    """Monomials (coef, power) of k5 after absorbing the r^{2(gamma-2)}
    prefactor; the gamma sigma^2/120 prefactor is applied separately."""
    a, b, s, g = p.alpha, p.beta, p.sigma, p.gamma
    s2 = s * s
    return [
        (6 * a * a * b * (2 * g - 1), 2 * g - 2),
        (12 * b**3 * g, 2 * g),
        (-10 * (2 * g - 1) ** 2 * s2 * s2, 6 * g - 3),
        (6 * b * b * s2 * (1 - 5 * g + 6 * g * g), 4 * g - 2),
        (-10 * b * s2 * (5 + 2 * g), 4 * g - 1),
        (3 * b * s2 * s2 * (2 * g - 1) ** 2 * (4 * g - 3), 6 * g - 4),
        (6 * a * b * b * (4 * g - 1), 2 * g - 1),
        (6 * a * b * s2 * (2 * g - 1) * (3 * g - 2), 4 * g - 3),
        (-10 * a * s2 * (2 * g - 1), 4 * g - 2),
    ]


def _coef(p: ModelParams, r, pref: float, terms, what: str):
    """``pref`` times the sum of a monomial table at rates ``r``;
    identically zero for gamma = 0."""
    scalar = np.ndim(r) == 0
    arr = np.asarray(r, dtype=float)
    out = np.zeros_like(arr) if p.gamma == 0 else pref * _powsum(arr, terms, what)
    return float(out) if scalar else out


def k4(p: ModelParams, r):
    """Quartic residual coefficient: substituting the closed-form log price
    into the pricing PDE leaves h(tau, r) = k4 tau^4 + k5 tau^5 + o(tau^5)."""
    return _coef(p, r, p.gamma * p.sigma**2 / 24.0, _c5_terms(p), "k4")


def k5(p: ModelParams, r):
    """Quintic residual coefficient; see :func:`k4`."""
    return _coef(p, r, p.gamma * p.sigma**2 / 120.0, _k5_terms(p), "k5")


def c5(p: ModelParams, r):
    """Leading log-price error coefficient: ln P_approx - ln P_exact =
    c5(r) tau^5 + o(tau^5).  Identically equal to -k4(r)/5."""
    return _coef(p, r, -p.gamma * p.sigma**2 / 120.0, _c5_terms(p), "c5")


def c5_derivatives(p: ModelParams, r):
    """Analytic (c5'(r), c5''(r)) by term-by-term differentiation."""
    pref = -p.gamma * p.sigma**2 / 120.0
    d1_terms = _derive(_c5_terms(p))
    return (_coef(p, r, pref, d1_terms, "c5_derivatives"),
            _coef(p, r, pref, _derive(d1_terms), "c5_derivatives"))


def c6(p: ModelParams, r):
    """Second error coefficient, defined by the recurrence

        c6 = (1/6) [ (1/2) sigma^2 r^{2 gamma} c5''(r)
                     + (alpha + beta r) c5'(r) - k5(r) ].
    """
    g = p.gamma
    scalar = np.ndim(r) == 0
    arr = np.asarray(r, dtype=float)
    if g == 0:
        return 0.0 if scalar else np.zeros_like(arr)
    d1, d2 = c5_derivatives(p, arr)
    out = (
        0.5 * p.sigma**2 * arr ** (2 * g) * d2 + (p.alpha + p.beta * arr) * d1 - k5(p, arr)
    ) / 6.0
    return float(out) if scalar else out


def improved_log_price(p: ModelParams, tau: float, r):
    """Higher-order approximate log price:
    cw_log_price - c5(r) tau^5 - c6(r) tau^6 (error o(tau^6))."""
    return cw_log_price(p, tau, r) - c5(p, r) * tau**5 - c6(p, r) * tau**6


def pde_residual(log_price_fn, p: ModelParams, tau: float, r: float,
                 partials=None, h_fd: float = 1e-5):
    """Residual of a candidate log price f in the log-transformed pricing PDE

        -f_tau + (1/2) sigma^2 r^{2 gamma} [f_r^2 + f_rr]
        + (alpha + beta r) f_r - r.

    Exact solutions give 0; the closed-form approximation gives
    k4(r) tau^4 + k5(r) tau^5 + o(tau^5).

    Parameters
    ----------
    log_price_fn : callable (tau, r) -> log price
    partials : optional callable (tau, r) -> (f_tau, f_r, f_rr); when given,
        derivatives are analytic.  Otherwise central differences with step
        ``h_fd`` plus one Richardson extrapolation level are used, which
        resolves residuals down to roughly 1e-9.
    """
    if partials is not None:
        f_tau, f_r, f_rr = partials(tau, r)
    else:
        if h_fd > tau / 4 or h_fd > r / 4:
            raise StepTooLarge(f"h_fd={h_fd} exceeds tau/4={tau / 4} or r/4={r / 4}")

        def dtau(h):
            return (log_price_fn(tau + h, r) - log_price_fn(tau - h, r)) / (2 * h)

        def dr(h):
            return (log_price_fn(tau, r + h) - log_price_fn(tau, r - h)) / (2 * h)

        def drr(h):
            return (
                log_price_fn(tau, r + h) - 2 * log_price_fn(tau, r) + log_price_fn(tau, r - h)
            ) / (h * h)

        f_tau = (4 * dtau(h_fd / 2) - dtau(h_fd)) / 3
        f_r = (4 * dr(h_fd / 2) - dr(h_fd)) / 3
        f_rr = (4 * drr(h_fd / 2) - drr(h_fd)) / 3
    g = p.gamma
    r2g = 1.0 if g == 0 else r ** (2 * g)
    return (
        -f_tau
        + 0.5 * p.sigma**2 * r2g * (f_r * f_r + f_rr)
        + (p.alpha + p.beta * r) * f_r
        - r
    )
