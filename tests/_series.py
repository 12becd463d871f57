"""The exact small-maturity series of ln P, derived from the pricing PDE alone.

Substituting ln P(tau, r) = sum_{n >= 1} a_n(r) tau^n into the log-transformed
pricing PDE

    f_tau = (1/2) sigma^2 r^{2 gamma} (f_r^2 + f_rr) + (alpha + beta r) f_r - r

and matching powers of tau gives a_1 = -r and, for n >= 2,

    n a_n = (1/2) sigma^2 r^{2 gamma} (sum_{i=1}^{n-2} a_i' a_{n-1-i}' + a_{n-1}'')
            + (alpha + beta r) a_{n-1}'.

Each a_n is a finite sum of monomials c r^power, held as a {power: coef}
table of 50-digit mpmath numbers.  Every power is an integer plus an integer
multiple of 2 gamma, so equal powers compare equal exactly and merge.  No
formula here comes from bondkit: the tables are a solver-free oracle for the
approximation's tau-coefficients.
"""

import mpmath as mp

from _reference import _c


def _derive(table):
    """Term-by-term r-derivative of a {power: coef} table."""
    return {pw - 1: c * pw for pw, c in table.items() if pw != 0}


def _accumulate(into, table, scale, shift=0):
    """Add ``scale * r**shift * table`` into ``into``."""
    for pw, c in table.items():
        into[pw + shift] = into.get(pw + shift, 0) + scale * c


def series_tables(p, n_max: int):
    """[a_1, ..., a_{n_max}] of ln P under ``p``, each a {power: coef} table."""
    a, b, s, g = _c(p.alpha), _c(p.beta), _c(p.sigma), _c(p.gamma)
    tables = [{mp.mpf(1): mp.mpf(-1)}]
    slopes = [_derive(tables[0])]  # slopes[i] is a_{i+1}'
    for n in range(2, n_max + 1):
        diffusion = _derive(slopes[n - 2])
        for i in range(1, n - 1):
            for p1, c1 in slopes[i - 1].items():
                _accumulate(diffusion, slopes[n - 2 - i], c1, p1)
        out = {}
        _accumulate(out, diffusion, s * s / 2, 2 * g)
        _accumulate(out, slopes[n - 2], a)
        _accumulate(out, slopes[n - 2], b, 1)
        tables.append({pw: c / n for pw, c in out.items()})
        slopes.append(_derive(tables[-1]))
    return tables


def evaluate(table, r):
    """sum coef * r**power over a table, at the exact value of the float ``r``."""
    r = _c(r)
    return mp.fsum(c * r**pw for pw, c in table.items())


def tau_coefficients(f, n_max: int):
    """[f_1, ..., f_{n_max}] of f(tau) = sum f_n tau^n, by the Cauchy integral
    on |tau| = 1/4, so ``f`` must accept a complex tau.  The integral is the
    trapezoid sum over 32 equally spaced points of the circle, exact for an
    entire f but for the aliased f_{n + 32} (1/4)^32 and higher.  Finite
    differences of the same order lose every digit at 50-digit precision."""
    rho, nodes = mp.mpf(1) / 4, 32
    turns = [mp.expjpi(2 * mp.mpf(k) / nodes) for k in range(nodes)]
    values = [f(rho * w) for w in turns]
    return [mp.re(mp.fsum(v * mp.conj(w) ** n for v, w in zip(values, turns))) / (nodes * rho**n)
            for n in range(1, n_max + 1)]
