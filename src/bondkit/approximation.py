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
* B = expm1(beta tau)/beta is exact; it is tau where beta * tau underflows.
  Below the one switch, |beta * tau| < 0.01, the beta-singular brackets t1,
  eg and fh are four-term Taylor series in beta (truncation ~1e-9 relative,
  the exact path's cancellation noise there).  As fh' = tau eg' for every
  beta, the tau-derivative in cw_partials needs no series of its own.
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
* One power table per call: each public function forms every power of r
  it needs (for q, r^{2 gamma} and each monomial table) at most once per
  exact exponent float, and reuses it only for that same float; a
  composite passes its table as ``r`` to the public functions it is built
  from.  r**0 is 1.0 and r**1 is r (exact for every x, NaN included), and
  q and r^{2 gamma} at gamma = 0 are 0.0 and 1.0.  No coefficient is
  merged and every sum keeps its table order, so sharing changes no bit
  of any result; improved_log_price forms 14 powers of r at gamma = 1.32
  instead of 34.  The domain checks read one reduction, the least rate,
  and every refusal names the outermost call.
* Powers kept across calls: a table over a C-contiguous array of 64 to
  16384 rates takes each generic power (any exponent but 0, 1, 2, 0.5
  and -1) from _Powers._kept, keyed by the array's shape and bytes, which
  keeps read-only the np.power results of the last 4 such arrays, 32 per
  array (16.5 MiB at worst).  A table, an EOC ladder, a calibration loop
  or a stream of curves re-prices one rate grid at other maturities and
  parameters, and forms none of these powers again; the bits are those a
  fresh call forms.  Both levels are functools.lru_cache, so threads may
  share them.  An array priced only once pays for its key and for keeping
  its powers (measured 8-31 % of a 1501-node call).  Scalars and other
  arrays form their powers per call; the maturity, rate-domain and result
  checks run on every call.  No knob.
* Building the table applies the maturity rule of
  :func:`bondkit.model._check_maturity`.  The rule tests results, not
  constants: a non-finite value from any call, a Python float overflow or
  zero division, and a NumPy floating-point warning raised as an error
  (``-W error``) are each a ValidationError naming call and tau.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, ValidationError
from .model import ModelParams, _check_maturity

__all__ = [
    "b_factor",
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


def b_factor(beta: float, tau: float) -> float:
    """(e^{beta tau} - 1) / beta, and its limit tau where beta * tau is 0 or
    subnormal (below 2**-1022): there the rounded product has lost digits.

    Under the maturity rule, and refused as out of float range where it
    overflows (beta > 0 at a long maturity)."""
    with _Powers(0.0, "b_factor", tau) as call:  # a scalar call: B is a float
        return call.result(_b_factor(beta, tau))


def _b_factor(beta: float, tau: float):
    """:func:`b_factor` at a maturity the caller has checked."""
    if beta == 0 or abs(beta * tau) < 2.0**-1022:
        return float(tau)
    return np.expm1(beta * tau) / beta


def _beta_brackets(p: ModelParams, tau: float):
    """Return (B, t1, eg, fh): the three beta-singular building blocks

        t1 = (alpha/beta)(tau - B)
        eg = sigma^2/(4 beta) * [B^2 + (2/beta)(tau - B)]
        fh = sigma^2/(8 beta^2) * [B^2(2 beta tau - 1) - 2B(2 tau - 3/beta)
                                   + 2 tau^2 - 6 tau/beta]

    switching to 4-term beta-series below |beta*tau| = 0.01.
    """
    alpha, beta = p.alpha, p.beta
    B = _b_factor(beta, tau)
    s2 = p.sigma * p.sigma
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


def _derive(terms):
    """Term-by-term r-derivative of a (coef, power) table."""
    return [(c * pw, pw - 1) for c, pw in terms]


class _Powers:
    """The power table and context of one public call ``what`` (at
    maturity ``tau``, if it takes one): the rates ``arr``, each ``arr**pw``
    formed at most once per exponent float, and the least rate, which every
    rate-domain check reads.  Every refusal through it names ``what``.

    Built afresh by the outermost public function and dropped when it
    returns.  Keys are exact exponent floats: a power is reused only where
    it would be recomputed bit for bit.  What outlives the call is kept in
    :meth:`_kept`: the generic powers of a repeated rate array.

    As the call's context it refuses any call's result if not finite, and
    a float error on the way, as out of float range.  A nested call shares
    its caller's table, so the refusal names the same function.
    """

    __slots__ = ("scalar", "arr", "what", "_pows", "_kept_here", "_low", "_tau")

    def __init__(self, r, what: str, *tau):
        _check_maturity(*tau)
        self.arr = np.asarray(r, dtype=float)
        self.scalar = self.arr.ndim == 0
        self._pows = {}
        self._kept_here = self._low = None
        self.what, self._tau = what, tau

    @classmethod
    def of(cls, r, what: str, *tau):
        """A caller's table ``r`` as it is, else a new table for the rates ``r``."""
        return r if isinstance(r, cls) else cls(r, what, *tau)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, (OverflowError, ZeroDivisionError, RuntimeWarning)):
            raise ValidationError(self._out_of_range()) from None

    def _out_of_range(self):
        at = f" at tau={self._tau[0]!r}" if self._tau else ""
        return f"{self.what}: out of float range{at}"

    def __call__(self, pw):
        """arr**pw, formed on first use; 1.0 and the rates themselves for
        pw = 0 and 1, so no caller may write into what this returns.

        A generic power (NumPy serves 2, 0.5 and -1 by square, sqrt and
        reciprocal) of a C-contiguous array, whose bytes are its memory, of
        64 to 16384 rates comes from :meth:`_kept`: below, a lookup costs
        about what forming the power does; above, the kept powers would
        take much memory."""
        out = self._pows.get(pw)
        if out is None:
            arr = self.arr
            if pw == 0:
                out = 1.0
            elif pw == 1:
                out = arr
            elif 64 <= arr.size <= 16384 and pw not in (2, 0.5, -1) and arr.flags.c_contiguous:
                if self._kept_here is None:
                    self._kept_here = self._kept(arr.shape, arr.tobytes())
                out = self._kept_here(pw)
            else:
                out = arr**pw
            self._pows[pw] = out
        return out

    @staticmethod
    @functools.lru_cache(maxsize=4)
    def _kept(shape, data):
        """The generic powers of the rates with this shape and these bytes,
        as a function of the exponent that keeps its last 32 results.

        Each power is the np.power a call would form, of a read-only copy
        of the rates, so a repeated array gets the same bits without forming
        them again, and writing into the caller's array afterwards changes
        its key, not what is kept.  Each power is read-only.  At most 4
        arrays of at most 16384 nodes are kept, with 32 powers each: 16.5
        MiB at worst.  Both caches are functools.lru_cache, whose lookups
        and updates are thread-safe; two threads that miss together form
        the same bits, and either result is kept."""
        rates = np.frombuffer(data).reshape(shape)

        @functools.lru_cache(maxsize=32)
        def power(pw):
            out = rates**pw
            out.setflags(write=False)
            return out

        return power

    def low(self):
        """The least rate (NaN if any is NaN, inf if none), reduced once."""
        if self._low is None:
            self._low = np.minimum.reduce(self.arr, axis=None, initial=math.inf)
        return self._low

    def check(self, singular: bool):
        """Refuse, in the call's name, a negative or NaN rate and, if
        ``singular``, a rate below R_FLOOR."""
        if not self.low() >= 0:
            raise DomainError(f"{self.what}: negative or NaN rate")
        if singular and self.low() < R_FLOOR:
            raise DomainError(f"{self.what}: singular as r -> 0 for this gamma; need r >= {R_FLOOR}")

    def sum(self, terms):
        """Sum coef * r**power over a (coef, power) table, in table order,
        under the module's one domain rule.

        Zero coefficients drop out first, so their (possibly negative)
        powers are never formed.  A negative or NaN rate is refused unless
        no monomial survives, and a rate below R_FLOOR is refused exactly
        when a surviving monomial has a negative power.
        """
        live = [(c, pw) for c, pw in terms if c != 0.0]
        # in place for arrays; [()] makes a scalar's sum a NumPy scalar,
        # which adds an order of magnitude faster than a 0-d array
        out = np.zeros_like(self.arr)[()]
        if not live:
            return out
        self.check(any(pw < 0 for _, pw in live))
        for c, pw in live:
            out += c * self(pw)
        return out

    def result(self, out):
        """``out`` as a float for a scalar rate, else as computed; refused
        in the call's name if not finite."""
        out = float(out) if self.scalar else out
        # an inf or NaN makes the sum of squares non-finite; that one BLAS
        # pass raises no overflow warning and costs a third of np.isfinite
        if not (math.isfinite(out) if self.scalar else
                math.isfinite(np.vdot(out, out)) or np.isfinite(out).all()):
            raise ValidationError(self._out_of_range())
        return out


def q_factor(p: ModelParams, r):
    """Drift adjustment q(r) entering the closed-form log price.

    Equals the generator of the rate process applied to r^{2 gamma}; for
    gamma = 1/2 it reduces to alpha + beta*r, and it vanishes identically
    for gamma = 0.  Its monomials carry negative powers exactly when
    0 < gamma < 1/2, so those gammas need r >= R_FLOOR.

    Kept in factored form rather than summed from :func:`_q_terms`: the
    factored form needs two powers of r instead of three.
    """
    with _Powers.of(r, "q_factor") as pows:
        g = p.gamma
        if g == 0:
            return pows.result(np.zeros_like(pows.arr))
        pows.check(g < 0.5)
        return pows.result(g * (2 * g - 1) * (p.sigma * p.sigma) * pows(2 * (2 * g - 1))
                           + 2 * g * pows(2 * g - 1) * (p.alpha + p.beta * pows.arr))


def _q_terms(p: ModelParams):
    """Monomials (coef, power) of q; see :func:`q_factor`."""
    g = p.gamma
    return [
        (g * (2 * g - 1) * p.sigma**2, 2 * (2 * g - 1)),
        (2 * g * p.alpha, 2 * g - 1),
        (2 * g * p.beta, 2 * g),
    ]


def _q_and_r2g(p: ModelParams, pows: _Powers):
    """q(r) and r^{2 gamma} (0.0 and 1.0 at gamma = 0) under the rate domain of :func:`q_factor`."""
    if p.gamma != 0:
        return q_factor(p, pows), pows(2 * p.gamma)
    # q vanishes here without looking at r; Vasicek keeps negative rates
    if math.isnan(pows.low()):
        raise DomainError(f"{pows.what}: NaN rate")
    return 0.0, 1.0


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
    with _Powers.of(r, "cw_log_price", tau) as pows:
        q, r2g = _q_and_r2g(p, pows)
        B, t1, eg, fh = _beta_brackets(p, tau)
        return pows.result(t1 - pows.arr * B + (r2g + q * tau) * eg - q * fh)


def cw_partials(p: ModelParams, tau: float, r):
    """Analytic (f_tau, f_r, f_rr) of :func:`cw_log_price`; as fh' = tau eg',
    f_tau = -r e^{beta tau} - alpha B + (1/2) sigma^2 r^{2 gamma} B^2 + q eg.

    Suitable as the ``partials`` argument of :func:`pde_residual`; resolves
    residuals down to rounding level (~1e-15).
    """
    with _Powers.of(r, "cw_partials", tau) as pows:
        # the rate checks run in these sums, before the brackets that may
        # overflow, so a refusal's type does not depend on the warning filter
        q, r2g = _q_and_r2g(p, pows)
        d1_terms = _derive([(1.0, 2 * p.gamma)])  # d/dr of r^{2 gamma}
        qp_terms = _derive(_q_terms(p))
        d1, d2, qp, qpp = (pows.sum(t)
                           for t in (d1_terms, _derive(d1_terms), qp_terms, _derive(qp_terms)))
        B, _, eg, fh = _beta_brackets(p, tau)
        f_tau = -pows.arr * np.exp(p.beta * tau) - p.alpha * B + 0.5 * p.sigma * p.sigma * r2g * B * B + q * eg
        f_r = -B + (d1 + qp * tau) * eg - qp * fh
        f_rr = (d2 + qpp * tau) * eg - qpp * fh
        return pows.result(f_tau), pows.result(f_r), pows.result(f_rr)


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


def _coef(p: ModelParams, pows: _Powers, pref: float, terms):
    """``pref`` times the sum of a monomial table; identically zero for
    gamma = 0."""
    return np.zeros_like(pows.arr) if p.gamma == 0 else pref * pows.sum(terms)


def k4(p: ModelParams, r):
    """Quartic residual coefficient: substituting the closed-form log price
    into the pricing PDE leaves h(tau, r) = k4 tau^4 + k5 tau^5 + o(tau^5)."""
    with _Powers.of(r, "k4") as pows:
        return pows.result(_coef(p, pows, p.gamma * p.sigma**2 / 24.0, _c5_terms(p)))


def k5(p: ModelParams, r):
    """Quintic residual coefficient; see :func:`k4`."""
    with _Powers.of(r, "k5") as pows:
        return pows.result(_coef(p, pows, p.gamma * p.sigma**2 / 120.0, _k5_terms(p)))


def c5(p: ModelParams, r):
    """Leading log-price error coefficient: ln P_approx - ln P_exact =
    c5(r) tau^5 + o(tau^5).  Identically equal to -k4(r)/5."""
    with _Powers.of(r, "c5") as pows:
        return pows.result(_coef(p, pows, -p.gamma * p.sigma**2 / 120.0, _c5_terms(p)))


def c5_derivatives(p: ModelParams, r):
    """Analytic (c5'(r), c5''(r)) by term-by-term differentiation."""
    with _Powers.of(r, "c5_derivatives") as pows:
        pref = -p.gamma * p.sigma**2 / 120.0
        d1_terms = _derive(_c5_terms(p))
        return (pows.result(_coef(p, pows, pref, d1_terms)),
                pows.result(_coef(p, pows, pref, _derive(d1_terms))))


def c6(p: ModelParams, r):
    """Second error coefficient, defined by the recurrence

        c6 = (1/6) [ (1/2) sigma^2 r^{2 gamma} c5''(r)
                     + (alpha + beta r) c5'(r) - k5(r) ].
    """
    with _Powers.of(r, "c6") as pows:
        g = p.gamma
        if g == 0:
            return pows.result(np.zeros_like(pows.arr))
        pows.check(False)  # the rate enters below even where every monomial vanishes
        d1, d2 = c5_derivatives(p, pows)
        return pows.result((
            0.5 * p.sigma**2 * pows(2 * g) * d2 + (p.alpha + p.beta * pows.arr) * d1 - k5(p, pows)
        ) / 6.0)


def improved_log_price(p: ModelParams, tau: float, r):
    """Higher-order approximate log price:
    cw_log_price - c5(r) tau^5 - c6(r) tau^6 (error o(tau^6)).

    The three terms share this call's power table, which serves q,
    r^{2 gamma}, c5, c5', c5'' and k5, and a refusal from any of them is
    in this function's name.  At gamma = 0, where c5 and c6
    vanish, this is :func:`cw_log_price`.
    """
    with _Powers.of(r, "improved_log_price", tau) as pows:
        if p.gamma == 0:
            return cw_log_price(p, tau, pows)
        return pows.result(cw_log_price(p, tau, pows) - c5(p, pows) * tau**5 - c6(p, pows) * tau**6)


def pde_residual(partials, p: ModelParams, tau: float, r: float):
    """Residual of a candidate log price f in the log-transformed pricing PDE

        -f_tau + (1/2) sigma^2 r^{2 gamma} [f_r^2 + f_rr]
        + (alpha + beta r) f_r - r.

    Exact solutions give 0; the closed-form approximation gives
    k4(r) tau^4 + k5(r) tau^5 + o(tau^5).  A residual that is not finite
    is refused as out of float range, like a pricer's result.

    Parameters
    ----------
    partials : callable (p, tau, r) -> (f_tau, f_r, f_rr), the analytic
        partials of f, such as :func:`cw_partials`
    """
    with _Powers(r, "pde_residual", tau) as pows:
        f_tau, f_r, f_rr = partials(p, tau, r)
        return pows.result(
            -f_tau
            + 0.5 * p.sigma**2 * pows(2 * p.gamma) * (f_r * f_r + f_rr)
            + (p.alpha + p.beta * pows.arr) * f_r
            - pows.arr
        )
