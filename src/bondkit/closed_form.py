"""Exact log bond prices for the two analytically solvable cases.

Vasicek (gamma = 0) and the square-root model (gamma = 1/2) admit affine
closed forms ln P = A(tau) - B(tau)*r.  Both serve as ground-truth oracles
for the approximation and PDE modules; both are verified in the test suite
by substituting them into the pricing PDE and checking the residual
vanishes.

With theta = sqrt(beta^2 + 2 sigma^2) and D(tau) = (theta-beta)(e^{theta tau}-1)
+ 2 theta, the gamma = 1/2 price is

    ln P = (2 alpha / sigma^2) * ln( 2 theta e^{(theta-beta) tau / 2} / D )
           - r * 2 (e^{theta tau} - 1) / D.

The A-term is evaluated in log space; for theta*tau > 1, e^{theta tau} is
factored out of numerator and denominator.  The factored form is uniformly
stable and overflow-free at long maturities, while the direct form's log1p
argument approaches -1 like 1 - O(e^{-theta tau}) and loses precision
exponentially in theta*tau, so the crossover sits at 1 rather than at the
overflow boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GammaMismatch, ValidationError
from .model import ModelParams

__all__ = ["b_factor", "vasicek_log_price", "cir_log_price", "cir_partials", "vasicek_partials"]

#: Below this |beta| the factor (e^{beta tau} - 1)/beta is replaced by its
#: beta -> 0 limit tau (removable singularity).
BETA_EPS = 1e-10

#: Above this theta*tau the exponential is factored out of the gamma=1/2
#: closed form (uniformly stable and overflow-free; see module docstring).
_EXP_SWITCH = 1.0


def _check_maturity(tau) -> None:
    """Refuse a negative or NaN maturity."""
    if not tau >= 0:
        raise ValidationError(f"maturity must be >= 0, got {tau}")


def b_factor(beta: float, tau: float) -> float:
    """(e^{beta tau} - 1) / beta, continuously extended to tau at beta = 0."""
    if abs(beta) < BETA_EPS:
        return float(tau)
    return np.expm1(beta * tau) / beta


def vasicek_log_price(p: ModelParams, tau: float, r):
    """Exact Vasicek log price (gamma = 0).

    Shares the arithmetic path of the general closed-form approximation,
    which reduces to the exact affine solution when gamma = 0, so the two
    agree bitwise.
    """
    if p.gamma != 0:
        raise GammaMismatch(f"vasicek_log_price requires gamma == 0, got {p.gamma}")
    from .approximation import cw_log_price  # deferred: breaks the module cycle

    return cw_log_price(p, tau, r)


def cir_log_price(p: ModelParams, tau: float, r):
    """Exact log price for the square-root model (gamma = 1/2).

    Parameters
    ----------
    p : ModelParams with ``gamma == 0.5``
    tau : maturity in years, >= 0
    r : rate (scalar or ndarray), >= 0

    Returns
    -------
    Log price, same shape as ``r``.
    """
    if p.gamma != 0.5:
        raise GammaMismatch(f"cir_log_price requires gamma == 0.5, got {p.gamma}")
    _check_maturity(tau)
    a, b, s = p.alpha, p.beta, p.sigma
    th = np.sqrt(b * b + 2.0 * s * s)
    scalar = np.ndim(r) == 0
    r = np.asarray(r, dtype=float)
    if not (r >= 0).all():
        raise DomainError("cir_log_price: negative or NaN rate")
    if th * tau <= _EXP_SWITCH:
        em = np.expm1(th * tau)
        D = (th - b) * em + 2.0 * th
        # log of 2*theta*exp((theta-beta)tau/2)/D, written as log1p of the
        # small ratio so short maturities keep full precision
        log_a = (th - b) * tau / 2.0 + np.log1p(-(th - b) * em / D)
        b_term = 2.0 * em / D
    else:
        e_neg = np.exp(-th * tau)
        C = (th - b) * (1.0 - e_neg) + 2.0 * th * e_neg
        log_a = np.log(2.0 * th) + (th - b) * tau / 2.0 - th * tau - np.log(C)
        b_term = 2.0 * (1.0 - e_neg) / C
    out = (2.0 * a / (s * s)) * log_a - r * b_term
    return float(out) if scalar else out


def cir_partials(p: ModelParams, tau: float, r):
    """Analytic (f_tau, f_r, f_rr) of the gamma=1/2 log price.

    The affine structure gives f_rr = 0 exactly.
    """
    if p.gamma != 0.5:
        raise GammaMismatch(f"cir_partials requires gamma == 0.5, got {p.gamma}")
    a, b, s = p.alpha, p.beta, p.sigma
    th = np.sqrt(b * b + 2.0 * s * s)
    if th * tau <= _EXP_SWITCH:
        em = np.expm1(th * tau)
        ep = em + 1.0
        D = (th - b) * em + 2.0 * th
        b_term = 2.0 * em / D
        db = 4.0 * th * th * ep / (D * D)
        dlog_a = (th - b) / 2.0 - th * ep * (th - b) / D
    else:
        e_neg = np.exp(-th * tau)
        C = (th - b) * (1.0 - e_neg) + 2.0 * th * e_neg
        b_term = 2.0 * (1.0 - e_neg) / C
        db = 4.0 * th * th * e_neg / (C * C)
        dlog_a = (th - b) / 2.0 - th * (th - b) / C
    f_tau = (2.0 * a / (s * s)) * dlog_a - r * db
    f_r = -b_term * np.ones_like(np.asarray(r, dtype=float))
    f_rr = np.zeros_like(f_r)
    if np.ndim(r) == 0:
        return float(f_tau), float(f_r), 0.0
    return f_tau, f_r, f_rr


def vasicek_partials(p: ModelParams, tau: float, r):
    """Analytic (f_tau, f_r, f_rr) of the Vasicek log price; f_rr = 0."""
    if p.gamma != 0:
        raise GammaMismatch(f"vasicek_partials requires gamma == 0, got {p.gamma}")
    a, b, s = p.alpha, p.beta, p.sigma
    B = b_factor(b, tau)
    bp = np.exp(b * tau)
    f_tau = -np.asarray(r, dtype=float) * bp - a * B + 0.5 * s * s * B * B
    f_r = -B * np.ones_like(np.asarray(r, dtype=float))
    f_rr = np.zeros_like(f_r)
    if np.ndim(r) == 0:
        return float(f_tau), float(f_r), 0.0
    return f_tau, f_r, f_rr
