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
  nonzero coefficient.  Zero coefficients, and inf * 0 = NaN ones where
  the parameters are finite (sigma = 1e100 at gamma = 1/2), drop out
  before any power is formed, so at gamma = 1/2 the tables reduce to the
  square-root-model polynomials and r = 0 evaluates to the analytic
  limit; for gamma >= 1 k4, k5 and c5 have no negative powers at all.
  q_factor obeys the same rule (negative powers exactly for 0 < gamma <
  1/2).  k4 and c5 share one table, so c5 = -k4/5 to ~1e-15 relative.
* One power table per call (:class:`_Powers`): each power of r is formed
  at most once per exact exponent, and improved's terms (cw, c5, and c6
  with c5', c5'' and k5) run on it.  No coefficient is merged and every
  sum keeps its table order, so sharing changes no bit: improved_log_price
  forms 14 powers of r at gamma = 1.32 instead of 34, and none for a
  repeated rate array (:class:`_Kept`).
* A scalar rate is priced on Python floats with the bits of the same
  rate's element of a curve: each power is NumPy's (Python's ``**``
  differs in the last bit for some rates), but x**2, x**0.5 and x**-1 for
  x in [R_FLOOR, 1] are x * x, math.sqrt(x) and 1.0 / x, the IEEE
  operations NumPy runs for them.  A point runs each term's body once on
  its table and checks a finite float term inline; each monomial table is
  kept in p's record with its prefactor, so a sum is one frame.
  :class:`_Kept` describes what outlives a call.
* _call applies the maturity rule of :func:`bondkit.model._check_maturity`
  and one float rule that tests results, not constants (see :func:`_call`).
"""

from __future__ import annotations

import functools
import inspect
import math
import struct
import threading

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


def _call(fn):
    """``fn`` under the one contract of the public functions: it builds the
    call's table (:class:`_Powers`), named after ``fn``, under the maturity
    rule and runs ``fn`` on it (b_factor gets a table of 0.0).  A result
    that is not finite, a Python float overflow or zero division, and a
    NumPy floating-point error or warning raised as an error are each
    refused as out of float range, but NumPy's underflow is no error: a
    call refused while it raises or warns runs again with it ignored, as a
    scalar's Python floats ignore it.  Given a caller's table (pde_residual's
    ``partials``), it runs ``fn`` on that table and checks its result."""
    sig = inspect.signature(fn)
    what, names = fn.__name__, list(sig.parameters)
    rates, n = "r" in names, len(names)
    at = names.index("tau") if "tau" in names else None
    ip = names.index("p") if rates else None

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if kwargs or len(args) != n:  # a keyword call, or a TypeError
            args = sig.bind(*args, **kwargs).args
        r = args[-1]
        if type(r) is _Powers:
            if args[ip] is not r.p:
                r = _Powers(r.arr, r.what, args[ip], r._tau)
            return r.result(fn(*args[:-1], r))
        pows = _Powers(r if rates else 0.0, what, None if ip is None else args[ip], None if at is None else args[at])
        try:  # (p, r) and (p, tau, r) bodies called by position: a star call costs a point 4-8 %
            out = pows.result((fn(args[0], args[1], pows) if n == 3 else fn(args[0], pows) if n == 2
                               else fn(*args[:-1], pows)) if rates else fn(*args))
        except (OverflowError, ZeroDivisionError, FloatingPointError, RuntimeWarning):
            if np.geterr()["under"] == "ignore":
                raise ValidationError(pows._out_of_range()) from None
            with np.errstate(under="ignore"):  # an underflow is no error: the call again without it
                return call(*args)
        if pows._made:  # an admitted array's new terms, each checked, join its bundle with r^{2 gamma}
            entries, g2 = pows._entries, 2 * pows.p.gamma
            pows._kept.put(entries, pows._bits, {**entries.get(pows._bits, {}), **pows._made, g2: pows[g2]})
        return out

    return call


@_call
def b_factor(beta: float, tau: float) -> float:
    """(e^{beta tau} - 1) / beta, and its limit tau where beta * tau is 0 or
    subnormal (below 2**-1022): there the rounded product has lost digits.
    Refused as out of float range where it overflows (beta > 0, long tau)."""
    if beta == 0 or abs(beta * tau) < 2.0**-1022:
        return float(tau)
    return np.expm1(beta * tau) / beta


def _beta_brackets(p: ModelParams, tau: float):
    """Return (B, t1, eg, fh), the three beta-singular building blocks, as
    4-term beta-series below |beta*tau| = 0.01:

        t1 = (alpha/beta)(tau - B)
        eg = sigma^2/(4 beta) * [B^2 + (2/beta)(tau - B)]
        fh = sigma^2/(8 beta^2) * [B^2(2 beta tau - 1) - 2B(2 tau - 3/beta)
                                   + 2 tau^2 - 6 tau/beta]
    """
    alpha, beta = p.alpha, p.beta
    B = float(b_factor.__wrapped__(beta, tau))  # the body (tau is checked), as a Python float
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


class _Kept:
    """The one store of what outlives a call.  Nothing in it is keyed on a
    rate's value, and a kept value has the bits a fresh call forms.

    Per repeated rate array: a C-contiguous array of 64 to 16384 rates
    (fewer cost as much to look up as to form, more take much memory) is
    admitted on its second sight, so one priced once pays for its key.
    Each of the last ARRAYS admitted arrays keeps its bytes, a read-only
    array of its rates and at most ENTRIES read-only values: each power of
    it a call formed, under its exponent float, and under p's bits one
    bundle of r^{2 gamma} and the tau-free terms q, c5 and c6
    (:meth:`_Powers.term`), kept once a call that made a term passed all its
    checks.  A hit skips the terms and their checks, whatever the warning
    filter: in these functions an overflow, zero division or invalid
    operation leaves a non-finite result, which is never kept, and an
    underflow is no error (:func:`_call`).  A bundle's r^{2 gamma} is the
    kept power, unless that entry has gone since: at worst
    4 x (1 + 4 x 32) x 16384 x 8 B = 64.5 MiB.

    Per parameter set of four Python floats (other types might change a
    result's bits): the last PARAMS sets keep a record under their bits, a
    few KiB of monomial tables and their prefactors (:meth:`_Powers.sum`)
    and, per function, the batch of its scalar calls with a rate in the
    window R_FLOOR <= x <= 1: the generic exponents (|e| <=
    _Powers.BATCH_EXP) they formed after reading the record.  A later call
    forms them in one np.power, whose every element has the bits of that
    power formed alone and raises no floating-point flag on the window's
    rates (0.5 is never batched: NumPy's power of 0.5 differs from its sqrt
    in the last bit).

    Each map is a plain dict: a lookup only reads it (a dict call is atomic
    under the GIL), an update takes the lock, and a full map drops its
    oldest entry.  So threads may share the store; a race keeps either of
    two equal values or costs a batch an element.
    """

    ARRAYS, ENTRIES, SIGHTS, PARAMS = 4, 32, 16, 32
    _pack = struct.Struct("4d").pack

    def __init__(self):
        self._lock = threading.Lock()
        self.cache_clear()

    def cache_clear(self):
        with self._lock:
            self._sights, self._arrays, self._params = {}, {}, {}

    def admit(self, arr):
        """(rates, entries) of ``arr`` if admitted, else None.  Its slot is its
        shape and end rates; a hit needs its bytes too (a copy costs less than
        comparing in place), so arrays sharing a slot displace each other."""
        data = arr.tobytes()
        slot = arr.shape, data[:64], data[-64:]
        kept = self._arrays.get(slot)
        if kept is not None and kept[0] == data:
            return kept[1:]
        with self._lock:
            if not self._sights.pop(slot, False):
                self._put(self._sights, slot, True, self.SIGHTS)
                return None
            kept = data, np.frombuffer(data).reshape(arr.shape), {}
            self._arrays.pop(slot, None)  # another array's, in a shared slot
            self._put(self._arrays, slot, kept, self.ARRAYS)
        return kept[1:]

    def put(self, entries, key, value):
        """Keep ``value``, an array or a dict of arrays, read-only; return it."""
        for v in value.values() if type(value) is dict else (value,):
            v.setflags(write=False)
        with self._lock:
            self._put(entries, key, value, self.ENTRIES)
        return value

    @staticmethod
    def _put(entries, key, value, bound):
        entries[key] = value
        if len(entries) > bound:
            del entries[next(iter(entries))]

    def key(self, p):
        """The bits of p's four floats; False if one is not a float."""
        a, b, s, g = p.alpha, p.beta, p.sigma, p.gamma
        return type(a) is type(b) is type(s) is type(g) is float and self._pack(a, b, s, g)

    def record(self, bits):
        """The record kept under ``bits`` (for bits False, a new one kept nowhere)."""
        if bits is False:
            return _Record()
        out = self._params.get(bits)
        if out is None:
            out = _Record()
            with self._lock:
                self._put(self._params, bits, out, self.PARAMS)
        return out


class _Record(dict):
    """A parameter set's tables, keyed (terms, n, d), and batches by function name."""

    __slots__ = ("batches",)

    def __init__(self):
        super().__init__()
        self.batches = {}


class _Powers(dict):
    """The table of one public call ``what`` of parameters ``p`` (at maturity
    ``tau``, if it takes one): the rates ``arr``, a dict of their powers by
    exponent (``table[pw]``, see :meth:`__missing__`), their least rate and
    what the call reuses from :attr:`_kept`, each resolved once on first
    need.  Every refusal through it names ``what``."""

    __slots__ = ("scalar", "arr", "what", "p", "_tau", "_low", "_bits", "_record", "_entries",
                 "_x", "_batch", "_made")

    _kept = _Kept()

    #: The largest |exponent| a batch may hold: its powers of the window's
    #: rates lie in [1e-300, 1e300], so none raises a floating-point flag.
    BATCH_EXP = 50.0

    def __init__(self, r, what: str, p=None, tau=None):
        if tau is not None:
            _check_maturity(tau)
        self.what, self.p, self._tau, self._bits, self._record, self._made = what, p, tau, None, None, None
        if type(r) is not float:
            r = np.asarray(r, dtype=float)
            if r.ndim:
                self.arr = self[1.0] = r
                self.scalar, self._x, self._low, self._entries = False, None, None, None
                return
        self.arr, self.scalar = r, True  # a Python float until a power needs its 0-d array
        x = self[1.0] = self._low = float(r)
        self._x, self._batch = (x if R_FLOOR <= x <= 1 else None), None  # x in the window; see record

    def _out_of_range(self):
        at = "" if self._tau is None else f" at tau={self._tau!r}"
        return f"{self.what}: out of float range{at}"

    def bits(self):
        """p's key bits (False if it has none)."""
        if self._bits is None:
            self._bits = self._kept.key(self.p)
        return self._bits

    def record(self):
        """p's record; a scalar in the window then forms its batch (see
        :class:`_Kept`) in one NumPy call.  A call that reads no table
        (cw_log_price, q_factor) has none."""
        if self._record is None:
            record = self._record = self._kept.record(self.bits())
            if self._x is not None:  # a scalar in the window
                batch = self._batch = record.batches.get(self.what)
                if batch is None:
                    batch = self._batch = record.batches[self.what] = [[], None]
                exps, arr = batch
                if len(exps) >= 2:
                    if arr is None or len(arr) != len(exps):  # exponents were added
                        arr = batch[1] = np.array(exps, dtype=float)
                    self.update(zip(exps, self._power(self.arr, arr).tolist()))
        return self._record

    def entries(self):
        """The array's entries (False if not admitted), resolved once: the
        table then reads the kept copy of its rates, whose bytes are the key,
        and, for p of four Python floats, the bundle kept under p's bits
        (:meth:`term`), in one lookup."""
        if self._entries is None:
            kept = 64 <= self.arr.size <= 16384 and self.arr.flags.c_contiguous and self._kept.admit(self.arr)
            self._entries = False
            if kept:
                self.arr, self._entries = kept
                self[1.0] = self.arr
                self.update(kept[1].get(self.bits(), ()))  # p's bundle (none if p has no bits)
        return self._entries

    def __missing__(self, pw):
        """arr**pw, formed on first use (1.0 for pw = 0; the table holds the
        rates themselves under 1: no caller may write into either); off the
        window a scalar's power is its 0-d array's, so a refusal is an array's."""
        if pw == 0.0:
            out = 1.0
        elif self.scalar:
            x = self._x
            if x is None:
                out = float(np.asarray(self.arr)**pw)
            elif pw == 2.0:
                out = x * x
            elif pw == 0.5:
                out = math.sqrt(x)
            elif pw == -1.0:
                out = 1.0 / x
            else:  # a generic power, formed alone; see record
                batch = self._batch
                if batch is not None and -self.BATCH_EXP <= pw <= self.BATCH_EXP and pw not in batch[0]:
                    batch[0].append(pw)
                arr = self.arr
                if type(arr) is float:  # a Python float rate's 0-d array, made once
                    arr = self.arr = np.asarray(arr)
                out = float(self._power(arr, pw))
        elif (entries := self.entries()) is False:
            out = self.arr**pw
        else:
            out = entries.get(pw)
            if out is None:
                out = self._kept.put(entries, pw, self.arr**pw)
        self[pw] = out
        return out

    #: Forms a scalar's generic powers in the window, (rate or its 0-d array,
    #: exponent or array of them), each element with the bits of the 0-d power.
    _power = staticmethod(np.power)

    def term(self, make):
        """The tau-free term ``make(p, table)`` (q, c5 or c6) of cw,
        cw_partials, improved or c6, held in the table under ``make``: an
        admitted array's from the bundle its entries brought, else made and
        checked at once, before a later domain check can refuse.  A caller
        that holds a value of its own checks it before it asks for a term
        that may be made (improved checks cw's only then)."""
        if self.scalar:  # never kept: checked inline where a float is finite
            out = make(self.p, self)
            return out if type(out) is float and math.isfinite(out) else self.result(out)
        out = self.get(make)
        if out is None and self._entries is None and self.entries():  # the first term: the bundle
            out = self.get(make)
        if out is None:
            out = self[make] = self.result(make(self.p, self))
            if self._entries is not False and self._bits:  # kept once the call passes (_call)
                self._made = self._made or {}
                self._made[make] = out
        return out

    def low(self):
        """The least rate (NaN if any is NaN, inf if none), reduced once."""
        if self._low is None:
            self._low = np.minimum.reduce(self.arr, axis=None, initial=math.inf)
        return self._low

    def check(self, floor: float = 0.0):
        """Refuse, in the call's name, a negative or NaN rate and a rate
        below ``floor`` (R_FLOOR where a live power is negative)."""
        low = self._low if self._low is not None else self.low()
        if not low >= 0:
            raise DomainError(f"{self.what}: negative or NaN rate")
        if low < floor:
            raise DomainError(f"{self.what}: singular as r -> 0 for this gamma; need r >= {R_FLOOR}")

    def zero(self):
        """0.0 for a scalar rate, else a new array of zeros of its shape."""
        return 0.0 if self.scalar else np.zeros_like(self.arr)

    @staticmethod
    def nan_is_zero(p: ModelParams) -> bool:
        """Whether a NaN coefficient of ``p`` is the formula's zero (an
        overflow times an exact zero), as it is where all of p is finite."""
        return all(map(math.isfinite, (p.alpha, p.beta, p.sigma, p.gamma)))

    def monomials(self, terms, n, d):
        """Keep p's table (terms, n, d) of :meth:`sum` in p's record and return it."""
        p = self.p
        pref = None if d is None else p.gamma * p.sigma**2 / d
        if pref is not None and p.gamma == 0:
            live, pref = [], None
        else:
            live = [(1.0, 2 * p.gamma)] if terms is None else terms(p)
            for _ in range(n):
                live = _derive(live)
            live = [(c, pw) for c, pw in live if c != 0.0 and (c == c or not self.nan_is_zero(p))]
        floor = R_FLOOR if any(pw < 0 for _, pw in live) else 0.0
        self._record[terms, n, d] = out = live, floor, any(map(math.isinf, [c for c, _ in live])), pref
        return out

    def sum(self, terms, n: int = 0, d=None):
        """Sum coef * r**power, in table order, over the live monomials of the
        n-th r-derivative of p's table ``terms(p)`` (None: r^{2 gamma}),
        times gamma sigma^2 / d unless d is None: such a coefficient is
        identically zero at gamma = 0.  The table and its prefactor are kept
        in p's record.  A zero coefficient, or a NaN where :meth:`nan_is_zero`,
        never forms its power.  A negative or NaN rate is refused unless no
        monomial is live, and a rate below R_FLOOR if a live power is < 0.
        As on a scalar's Python floats, inf * 0 is NaN without a warning."""
        record = self._record if self._record is not None else self.record()
        live, floor, infinite, pref = record.get((terms, n, d)) or self.monomials(terms, n, d)
        out = 0.0 if self.scalar else self.zero()
        if live and not (self._low is not None and self._low >= floor):  # unless known to pass
            self.check(floor)
        if infinite:
            with np.errstate(invalid="ignore"):
                for c, pw in live:
                    out += c * self[pw]
        else:
            for c, pw in live:
                out += c * self[pw]
        return out if pref is None else pref * out

    def result(self, out):
        """``out`` as a float for a scalar rate, else as computed, and a
        tuple item by item; refused in the call's name if not finite."""
        if type(out) is float and math.isfinite(out):
            return out
        if type(out) is tuple:
            return tuple(map(self.result, out))
        if self.scalar:
            out = float(out)
            if math.isfinite(out):
                return out
        # an inf or NaN makes the sum of squares non-finite: one BLAS pass,
        # without ndarray.dot's overflow warning, a third of np.isfinite
        elif math.isfinite(np.vdot(out, out)) or np.isfinite(out).all():
            return out
        raise ValidationError(self._out_of_range())


@_call
def q_factor(p: ModelParams, r):
    """Drift adjustment q(r) entering the closed-form log price.

    Equals the generator of the rate process applied to r^{2 gamma}; for
    gamma = 1/2 it reduces to alpha + beta*r, and it vanishes identically
    for gamma = 0.  Its monomials carry negative powers exactly when
    0 < gamma < 1/2, so those gammas need r >= R_FLOOR.

    Kept in factored form rather than summed from :func:`_q_terms`: the
    factored form needs two powers of r instead of three.
    """
    g = p.gamma
    if g == 0:
        return r.zero()
    r.check(R_FLOOR if g < 0.5 else 0.0)
    c = g * (2 * g - 1) * (p.sigma * p.sigma)
    if c != c and r.nan_is_zero(p):  # as in the monomial tables: sigma * sigma = inf at gamma = 1/2
        c = 0.0
    return c * r[2 * (2 * g - 1)] + 2 * g * r[2 * g - 1] * (p.alpha + p.beta * r[1])


def _q_terms(p: ModelParams):
    """Monomials (coef, power) of q; see :func:`q_factor`."""
    g = p.gamma
    return [
        (g * (2 * g - 1) * p.sigma**2, 2 * (2 * g - 1)),
        (2 * g * p.alpha, 2 * g - 1),
        (2 * g * p.beta, 2 * g),
    ]


def _q_and_r2g(p: ModelParams, pows: _Powers):
    """The terms q(r) and r^{2 gamma} (0.0 and 1.0 at gamma = 0) under the rate domain of :func:`q_factor`."""
    if p.gamma != 0:
        return pows.term(q_factor.__wrapped__), pows[2 * p.gamma]
    # q vanishes here without looking at r; Vasicek keeps negative rates
    if math.isnan(pows.low()):
        raise DomainError(f"{pows.what}: NaN rate")
    return 0.0, 1.0


@_call
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
    q, r2g = _q_and_r2g(p, r)
    B, t1, eg, fh = _beta_brackets(p, tau)
    # t1 - r B + (r^{2 gamma} + q tau) eg - q fh, pass by pass and in place
    # into two new arrays (floats for a scalar rate), with the plain
    # expression's bits: a - b is a + -b, and a sum of two is the same either way
    lp = r[1] * -B
    lp += t1
    x = q * tau
    x += r2g
    x *= eg
    lp += x
    lp -= q * fh
    return lp


@_call
def cw_partials(p: ModelParams, tau: float, r):
    """Analytic (f_tau, f_r, f_rr) of :func:`cw_log_price`; as fh' = tau eg',
    f_tau = -r e^{beta tau} - alpha B + (1/2) sigma^2 r^{2 gamma} B^2 + q eg.

    Suitable as the ``partials`` argument of :func:`pde_residual`; resolves
    residuals down to rounding level (~1e-15).
    """
    # the rate checks, in q and the sums of the r-derivatives of r^{2 gamma}
    # and q, come before the brackets that may overflow, whatever the filter
    if r.scalar:  # p's record first: q's powers join the scalar's batch
        r.record()
    q, r2g = _q_and_r2g(p, r)
    r.result(r2g)  # only a huge rate overflows it: refused before a sum's rate check
    d1, d2, qp, qpp = (r.sum(terms, n) for terms in (None, _q_terms) for n in (1, 2))
    B, _, eg, fh = _beta_brackets(p, tau)
    f_tau = -r[1] * np.exp(p.beta * tau) - p.alpha * B + 0.5 * p.sigma * p.sigma * r2g * B * B + q * eg
    f_r = -B + (d1 + qp * tau) * eg - qp * fh
    f_rr = (d2 + qpp * tau) * eg - qpp * fh
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


@_call
def k4(p: ModelParams, r):
    """Quartic residual coefficient: substituting the closed-form log price
    into the pricing PDE leaves h(tau, r) = k4 tau^4 + k5 tau^5 + o(tau^5)."""
    return r.sum(_c5_terms, 0, 24)


@_call
def k5(p: ModelParams, r):
    """Quintic residual coefficient; see :func:`k4`."""
    return r.sum(_k5_terms, 0, 120)


@_call
def c5(p: ModelParams, r):
    """Leading log-price error coefficient: ln P_approx - ln P_exact =
    c5(r) tau^5 + o(tau^5).  Identically equal to -k4(r)/5."""
    return r.sum(_c5_terms, 0, -120)


@_call
def c5_derivatives(p: ModelParams, r):
    """Analytic (c5'(r), c5''(r)) by term-by-term differentiation."""
    return r.sum(_c5_terms, 1, -120), r.sum(_c5_terms, 2, -120)


@_call
def c6(p: ModelParams, r):
    """Second error coefficient, defined by the recurrence

        c6 = (1/6) [ (1/2) sigma^2 r^{2 gamma} c5''(r)
                     + (alpha + beta r) c5'(r) - k5(r) ].

    A lone call on rates (its table has not resolved its entries) returns a
    copy of the term improved_log_price reads, this body's, kept for a
    repeated array.
    """
    g = p.gamma
    if g == 0:
        return r.zero()
    if not r.scalar and r._entries is None:
        return r.term(c6.__wrapped__).copy()
    r.check()  # the rate enters below even where every monomial vanishes
    d1, d2 = c5_derivatives.__wrapped__(p, r)
    d1, d2 = r.result(d1), r.result(d2)  # each checked as formed
    return (0.5 * p.sigma**2 * r[2 * g] * d2 + (p.alpha + p.beta * r[1]) * d1 - r.result(k5.__wrapped__(p, r))) / 6.0


@_call
def improved_log_price(p: ModelParams, tau: float, r):
    """Higher-order approximate log price:
    cw_log_price - c5(r) tau^5 - c6(r) tau^6 (error o(tau^6)).

    At gamma = 0, where c5 and c6 vanish, this is :func:`cw_log_price`.
    cw's value is checked before c5 or c6 is made, so that no domain check
    of theirs refuses a call whose cw value is out of float range; where
    both come from a repeated array's bundle, no check can run between cw
    and the result, whose one check then refuses the same calls alike.
    """
    if p.gamma == 0:
        return cw_log_price.__wrapped__(p, tau, r)  # cw's body: this call checks the result
    if r.scalar:  # p's record first, as in cw_partials
        r.record()
    lp = cw_log_price.__wrapped__(p, tau, r)  # a new array or a float
    if r.scalar or c5.__wrapped__ not in r or c6.__wrapped__ not in r:  # a term to make: cw's value first
        lp = r.result(lp)
    lp -= r.term(c5.__wrapped__) * tau**5
    lp -= r.term(c6.__wrapped__) * tau**6
    return lp


@_call
def pde_residual(partials, p: ModelParams, tau: float, r: float):
    """Residual of a candidate log price f in the log-transformed pricing PDE

        -f_tau + (1/2) sigma^2 r^{2 gamma} [f_r^2 + f_rr]
        + (alpha + beta r) f_r - r.

    Exact solutions give 0, the closed-form approximation k4(r) tau^4 +
    k5(r) tau^5 + o(tau^5); like a pricer's result, it is refused if not finite.

    Parameters
    ----------
    partials : :func:`cw_partials`, ``cir_partials`` or ``vasicek_partials``,
        (p, tau, r) -> (f_tau, f_r, f_rr); it gets this call's table as ``r``
    """
    f_tau, f_r, f_rr = partials(p, tau, r)
    return (-f_tau + 0.5 * p.sigma**2 * r[2 * p.gamma] * (f_r * f_r + f_rr)
            + (p.alpha + p.beta * r[1]) * f_r - r[1])
