"""Independent float64 transcriptions of the bondkit pricing formulas.

Every function here is written from the textbook closed forms or from the
50-digit reference formulas of the test suite, not from the production code,
so a defect in bondkit is not copied into its own check.  Derivatives of the
error coefficients come from an explicit monomial expansion of those reference
formulas (each term ``coef * r**power``), differentiated term by term.
"""

from __future__ import annotations

import numpy as np


def vasicek(p, tau, r):
    """Textbook Vasicek log price for dr = kappa (theta - r) dt + sigma dW,
    with kappa = -beta and kappa * theta = alpha."""
    kappa = -p.beta
    theta = p.alpha / kappa
    s2 = p.sigma * p.sigma
    b = -np.expm1(-kappa * tau) / kappa
    log_a = (theta - s2 / (2 * kappa * kappa)) * (b - tau) - s2 * b * b / (4 * kappa)
    return log_a - b * np.asarray(r, dtype=float)


def cir(p, tau, r):
    """Textbook Cox-Ingersoll-Ross log price, h = sqrt(kappa^2 + 2 sigma^2)."""
    kappa = -p.beta
    s2 = p.sigma * p.sigma
    h = np.sqrt(kappa * kappa + 2 * s2)
    em = np.expm1(h * tau)
    d = 2 * h + (kappa + h) * em
    log_a = (2 * p.alpha / s2) * (np.log(2 * h) + (kappa + h) * tau / 2 - np.log(d))
    return log_a - (2 * em / d) * np.asarray(r, dtype=float)


def _q(p, r):
    g, s2 = p.gamma, p.sigma * p.sigma
    if g == 0:
        return np.zeros_like(r)
    return (g * (2 * g - 1) * s2 * r ** (2 * (2 * g - 1))
            + 2 * g * r ** (2 * g - 1) * (p.alpha + p.beta * r))


def cw(p, tau, r):
    """Closed-form approximation, evaluated directly (no series switch)."""
    a, b, s2, g = p.alpha, p.beta, p.sigma * p.sigma, p.gamma
    r = np.asarray(r, dtype=float)
    big_b = np.expm1(b * tau) / b
    q = _q(p, r)
    r2g = np.ones_like(r) if g == 0 else r ** (2 * g)
    t3 = (r2g + q * tau) * (s2 / (4 * b)) * (big_b**2 + (2 / b) * (tau - big_b))
    t4 = -q * (s2 / (8 * b * b)) * (
        big_b**2 * (2 * b * tau - 1) - 2 * big_b * (2 * tau - 3 / b) + 2 * tau * tau - 6 * tau / b
    )
    return -r * big_b + (a / b) * (tau - big_b) + t3 + t4


def _c5_monomials(p):
    """c5 = -(g s^2 / 120) r^(2g-4) [bracket], bracket expanded term by term."""
    a, b, s2, g = p.alpha, p.beta, p.sigma * p.sigma, p.gamma
    pre, shift = -g * s2 / 120.0, 2 * g - 4
    bracket = [
        (2 * a * a * (2 * g - 1), 2.0),
        (4 * b * b * g, 4.0),
        (-8 * s2, 3 + 2 * g),
        (2 * b * (1 - 5 * g + 6 * g * g) * s2, 2 + 2 * g),
        (s2 * s2 * (2 * g - 1) ** 2 * (4 * g - 3), 4 * g),
        (2 * a * b * (4 * g - 1), 3.0),
        (2 * a * (2 * g - 1) * (3 * g - 2) * s2, 1 + 2 * g),
    ]
    return [(pre * c, pw + shift) for c, pw in bracket]


def _k5_monomials(p):
    """k5 = (g s^2 / 120) r^(2g-4) [bracket], bracket expanded term by term."""
    a, b, s2, g = p.alpha, p.beta, p.sigma * p.sigma, p.gamma
    pre, shift = g * s2 / 120.0, 2 * g - 4
    bracket = [
        (6 * a * a * b * (2 * g - 1), 2.0),
        (12 * b**3 * g, 4.0),
        (-10 * (1 - 2 * g) ** 2 * s2 * s2, 1 + 4 * g),
        (6 * b * b * s2 * (1 - 5 * g + 6 * g * g), 2 + 2 * g),
        (-10 * (5 + 2 * g) * b * s2, 3 + 2 * g),
        (3 * (1 - 2 * g) ** 2 * (4 * g - 3) * b * s2 * s2, 4 * g),
        (6 * a * b * b * (4 * g - 1), 3.0),
        (6 * a * b * s2 * (2 - 7 * g + 6 * g * g), 1 + 2 * g),
        (-10 * a * s2 * (2 * g - 1), 2 + 2 * g),
    ]
    return [(pre * c, pw + shift) for c, pw in bracket]


def _derive(terms):
    return [(c * pw, pw - 1) for c, pw in terms]


def _evaluate(terms, r):
    out = np.zeros_like(r)
    for c, pw in terms:
        if c != 0.0:
            out = out + c * r**pw
    return out


def coefficients(p, r):
    """(c5, c6) at rates ``r``; c6 from its defining recurrence."""
    r = np.asarray(r, dtype=float)
    if p.gamma == 0:
        return np.zeros_like(r), np.zeros_like(r)
    c5 = _c5_monomials(p)
    d1 = _derive(c5)
    d2 = _derive(d1)
    c6 = (
        0.5 * p.sigma**2 * r ** (2 * p.gamma) * _evaluate(d2, r)
        + (p.alpha + p.beta * r) * _evaluate(d1, r)
        - _evaluate(_k5_monomials(p), r)
    ) / 6.0
    return _evaluate(c5, r), c6


def improved(p, tau, r):
    """Improved approximation ``cw - c5 tau^5 - c6 tau^6``, plus the summed
    size of its three terms per node (the scale a relative tolerance uses)."""
    base = cw(p, tau, r)
    c5, c6 = coefficients(p, r)
    t5, t6 = c5 * tau**5, c6 * tau**6
    return base - t5 - t6, np.abs(base) + np.abs(t5) + np.abs(t6)


def reference(method, p, tau, r):
    """(value, scale) of one pricer at (tau, r) from the transcriptions above."""
    r = np.asarray(r, dtype=float)
    if method == "improved":
        return improved(p, tau, r)
    value = {"cw": cw, "cir": cir, "vasicek": vasicek}[method](p, tau, r)
    return value, np.abs(value)
