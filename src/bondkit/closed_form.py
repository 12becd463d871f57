"""Exact log bond prices for the two analytically solvable cases.

Vasicek (gamma = 0) and the square-root model (gamma = 1/2) admit affine
closed forms ln P = A(tau) - B(tau)*r.  Both serve as ground-truth oracles
for the approximation and PDE modules; both are verified in the test suite
by substituting them into the pricing PDE and checking the residual
vanishes.

The general closed-form approximation is exact at gamma = 0, so the Vasicek
price and partials are :func:`~bondkit.approximation.cw_log_price` and
:func:`~bondkit.approximation.cw_partials` behind a gamma guard.  The
square-root price and partials come from one evaluation, :func:`_cir`; only
:func:`cir_partials` forms the tau-derivatives, which may overflow alone.
Each function is built by :func:`bondkit.approximation._call`, the pricers'
one call contract: one power table per call, the maturity rule, and a
finite result or a typed refusal in the function's own name.

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

from .approximation import _call, _Powers, cw_log_price, cw_partials
from .errors import GammaMismatch
from .model import ModelParams

__all__ = ["vasicek_log_price", "cir_log_price", "cir_partials", "vasicek_partials"]

#: Above this theta*tau the exponential is factored out of the gamma=1/2
#: closed form (uniformly stable and overflow-free; see module docstring).
_EXP_SWITCH = 1.0


def _require_gamma(p: ModelParams, pows: _Powers, gamma: float):
    """Refuse a gamma off the closed form's own, in the call's name."""
    if p.gamma != gamma:
        raise GammaMismatch(f"{pows.what} requires gamma == {gamma}, got {p.gamma}")


@_call
def vasicek_log_price(p: ModelParams, tau: float, r):
    """Exact Vasicek log price (gamma = 0): :func:`cw_log_price`, exact at
    gamma = 0, behind a gamma guard."""
    _require_gamma(p, r, 0)
    return cw_log_price.__wrapped__(p, tau, r)  # cw's body: this call checks the result


@_call
def vasicek_partials(p: ModelParams, tau: float, r):
    """Analytic (f_tau, f_r, f_rr) of the Vasicek log price, f_rr = 0:
    :func:`cw_partials` behind a gamma guard, as for the price."""
    _require_gamma(p, r, 0)
    return cw_partials.__wrapped__(p, tau, r)


def _cir(p: ModelParams, tau: float, pows: _Powers):
    """Terms (log_a, b_term, th, e_neg, C) of the gamma = 1/2 closed form
    ln P = (2 alpha / sigma^2) log_a - r b_term, with theta, e^{-theta tau}
    and C = D e^{-theta tau} for the tau-derivatives.

    Runs the gamma and rate checks in the name of the call ``pows`` belongs
    to (building ``pows`` applied the maturity rule); then the direct form
    below the theta*tau switch, the factored form above it.
    """
    _require_gamma(p, pows, 0.5)
    pows.check()
    b, s = p.beta, p.sigma
    th = np.sqrt(b * b + 2.0 * s * s)
    if th * tau <= _EXP_SWITCH:
        em = np.expm1(th * tau)
        D = (th - b) * em + 2.0 * th
        # log of 2*theta*exp((theta-beta)tau/2)/D, written as log1p of the
        # small ratio so short maturities keep full precision
        log_a = (th - b) * tau / 2.0 + np.log1p(-(th - b) * em / D)
        b_term = 2.0 * em / D
        ep = em + 1.0
        e_neg, C = 1.0 / ep, D / ep
    else:
        e_neg = np.exp(-th * tau)
        C = (th - b) * (1.0 - e_neg) + 2.0 * th * e_neg
        log_a = np.log(2.0 * th) + (th - b) * tau / 2.0 - th * tau - np.log(C)
        b_term = 2.0 * (1.0 - e_neg) / C
    return log_a, b_term, th, e_neg, C


@_call
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
    log_a, b_term, *_ = _cir(p, tau, r)
    return (2.0 * p.alpha / (p.sigma * p.sigma)) * log_a - r[1] * b_term


@_call
def cir_partials(p: ModelParams, tau: float, r):
    """Analytic (f_tau, f_r, f_rr) of the gamma=1/2 log price.

    The affine structure gives f_rr = 0 exactly.
    """
    # theta*tau and (theta-beta)*tau may overflow in the factored form's
    # log_a, which the partials do not use; e^{-theta tau} is then 0
    with np.errstate(over="ignore", invalid="ignore"):
        _, b_term, th, e_neg, C = _cir(p, tau, r)
    dlog_a = (th - p.beta) / 2.0 - th * (th - p.beta) / C
    db = 4.0 * th * th * e_neg / (C * C)
    f_tau = (2.0 * p.alpha / (p.sigma * p.sigma)) * dlog_a - r[1] * db
    f_r = -b_term * np.ones_like(r.arr)
    return f_tau, f_r, np.zeros_like(f_r)
