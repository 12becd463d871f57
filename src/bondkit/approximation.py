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
  k4, k5 and c5 have no negative powers at all.  A coefficient that is
  inf * 0 = NaN, an overflowed product times a vanishing factor, is such a
  zero too where the parameters are finite (sigma = 1e100 at gamma = 1/2);
  a NaN parameter keeps its NaN.  q_factor obeys the same rule, its
  factored coefficient gamma (2 gamma - 1) sigma^2 included (negative
  powers exactly for 0 < gamma < 1/2).
* k4 and c5 share one table, so c5 = -k4/5 holds to ~1e-15 relative.
* One power table per call: _call builds it for the outermost call and
  hands it to the body as ``r``, which passes it on as ``r`` to the public
  functions it is built from (pde_residual to its ``partials``).  Each
  power of r (for q, r^{2 gamma} and each monomial table) is formed at most
  once per exact exponent float, and reused only for that same float.
  r**0 is 1.0 and r**1 is r (exact for every x, NaN included), and q and
  r^{2 gamma} at gamma = 0 are 0.0 and 1.0.  No coefficient is merged and
  every sum keeps its table order, so sharing changes no bit of any
  result; improved_log_price forms 14 powers of r at gamma = 1.32 instead
  of 34.  A scalar rate's table hands out Python floats, and its sums add
  into 0.0: the same float64 operations in the same order, without a NumPy
  scalar per term.  The power stays NumPy's: for some rates Python's
  ``**`` (or math.pow) differs from it in the last bit, where NumPy's
  power gives the bits of an array's element, so a scalar call gives the
  same rate's element of a curve.  For a rate x in the window R_FLOOR <= x
  <= 1, x**2, x**0.5 and x**-1 are x * x, math.sqrt(x) and 1.0 / x, the
  IEEE operations NumPy runs for them.  The other (generic) powers that a
  call forms after reading its parameters' record (at its first monomial
  table) come from one np.power call over an array of exponents, whose
  every element has the bits of that power formed alone: the batch its
  outermost function's earlier calls formed for these parameters, of
  exponents |e| <= 50, so on the window's rates no power raises a
  floating-point flag (0.5 is never in it: NumPy's power of 0.5 differs
  from its sqrt in the last bit for some rates).  improved_log_price at
  gamma = 1.32 forms its 14 generic powers in 4 NumPy calls: q's two and
  r^{2 gamma} alone, the tables' 11 in one.  Nothing is keyed on a rate's
  value.  Outside the window a power is the 0-d array's, as for any rate,
  so a refusal's type and message do not change.  The domain checks read
  one reduction, the least rate, and every refusal names the outermost
  call.
* Values kept across calls: for a C-contiguous array of 64 to 16384 rates,
  _Powers._kept keeps what is formed from the rates alone: each generic
  power (any exponent but 0, 1, 2, 0.5 and -1), keyed by its exponent
  float, and the tau-free results of q, k4, k5, c5, c5'/c5'' and c6 (the
  (p, r) functions) called nested in another call, keyed by the function
  and the exact bits of p's four floats, once they passed their checks.
  The rates are keyed by their shape and bytes.  An array is kept from its
  second sight on: the first records only a hash of its shape and end
  rates, so an array priced once pays for its key alone (measured 3-12 % of a 1501-node cw or
  improved call).  At most 4 arrays are kept, each with a read-only copy
  of its rates and at most 32 read-only values, the least recently used
  dropped first; a c5_derivatives value holds two arrays, so 4 x (1 + 2 x
  32) x 16384 x 8 B = 32.5 MiB at worst.  A table, an EOC ladder, a
  calibration loop or a stream of curves re-prices one rate grid at other
  maturities, and forms none of these again: a warm improved curve costs
  little more than a cw curve.  A kept value gives the bits a fresh call
  forms, and threads may share the store.  Scalars and other arrays form
  every power and result per call, a public function returns new writable
  arrays, and the maturity rule and the outer call's result check run on
  every call.  Per parameter set, scalar and array calls alike read the
  monomial tables (c5, c5', c5'', k5, and the r-derivatives of r^{2 gamma}
  and q) from _Powers._kept, each filtered once with its negative-power
  flag, for the last 32 sets of four Python floats, keyed by their bits;
  other parameter types build them per call; each record also keeps the
  batch of exponents of each function's scalar calls.  No knob.
* _call applies the maturity rule of :func:`bondkit.model._check_maturity`
  and one float rule that tests results, not constants: a non-finite value
  from any call, a Python float overflow or zero division, and a NumPy
  warning raised as an error (``-W error``) are each a ValidationError.
"""

from __future__ import annotations

import functools
import inspect
import math
import struct
import threading
from collections import OrderedDict

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
    """``fn`` under the one contract of the public functions.

    Called with rates ``r``, it builds the call's power table, named after
    ``fn``, under the maturity rule, and runs ``fn`` with the table as
    ``r`` (b_factor, without rates, gets a table of 0.0).  A result, item by
    item for a tuple, that is not finite, a Python float overflow or zero
    division, and a NumPy warning raised as an error are each refused as
    out of float range.  Called with a caller's table, it runs ``fn`` on it
    and checks the result there, so a non-finite term is refused before a
    later term's domain check can refuse it, whatever the warning filter.
    """
    sig = inspect.signature(fn)
    what, names = fn.__name__, list(sig.parameters)
    rates, n = "r" in names, len(names)
    at = names.index("tau") if "tau" in names else None
    tau_free = names == ["p", "r"]  # its result may be kept for a repeated rate array

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if kwargs or len(args) != n:  # a keyword call, or a TypeError
            args = sig.bind(*args, **kwargs).args
        r = args[-1]
        if type(r) is _Powers:
            if tau_free and not r.scalar:
                return r.kept(fn, args[0])
            return r.result(fn(*args))
        pows = _Powers(r if rates else 0.0, what, None if at is None else args[at])
        try:
            return pows.result(fn(*args[:-1], pows) if rates else fn(*args))
        except (OverflowError, ZeroDivisionError, RuntimeWarning):
            raise ValidationError(pows._out_of_range()) from None

    return call


@_call
def b_factor(beta: float, tau: float) -> float:
    """(e^{beta tau} - 1) / beta, and its limit tau where beta * tau is 0 or
    subnormal (below 2**-1022): there the rounded product has lost digits.

    Under the maturity rule, and refused as out of float range where it
    overflows (beta > 0 at a long maturity)."""
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
    B = b_factor.__wrapped__(beta, tau)  # the body: the caller checked tau
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
    """The one store of what outlives a call: per repeated rate array, what
    is formed from its rates alone, and per parameter set its monomial
    tables.

    An array is admitted on its second sight; the first records only its
    slot (see :meth:`admit`) among the last SIGHTS such, so an array priced
    once pays for its key and nothing more.  Each of the last ARRAYS
    admitted arrays keeps its bytes, a read-only array of its rates over
    them and at most ENTRIES values, the least recently used dropped first:
    a generic power, keyed by its exponent float, or the checked result of
    a tau-free function, keyed by the function and the bits of p's four
    floats (c5_derivatives' entry holds two arrays).  Every value is
    read-only: 4 x (1 + 2 x 32) x 16384 x 8 B = 32.5 MiB at worst.  Threads
    may share the store: updates take a lock, and lookups need none, as
    each OrderedDict call is atomic under the GIL and a value another
    thread drops meanwhile stays valid; two threads that miss together form
    the same bits, and either value is kept.

    Each of the last PARAMS parameter sets whose four values are Python
    floats keeps a record under their bits (:meth:`key`): a dict of its
    filtered monomial tables, each built on its first use (see
    :meth:`_Powers.table`) and written as one dict item, a few KiB at most;
    two threads that build a table together write equal ones.

    A record also keeps, per public function name, the batch of that
    function's scalar calls in the window (see :meth:`_Powers.batch`): a
    list of the generic exponents they formed after reading the record,
    each of |exponent| <= _Powers.BATCH_EXP, and their float array once
    used, a few hundred bytes; so at most PARAMS x 15 batches are kept, and
    cache_clear drops them with the records.  A batch holds no rate, and
    decides what a call costs, never what it returns.  A call adds to its
    batch's list in place: two threads may add one exponent twice, which
    costs one more element of the batch, and two that make a function's
    batch together keep one of the two lists, whose missing exponents a
    later call adds.
    """

    ARRAYS, ENTRIES, SIGHTS, PARAMS = 4, 32, 16, 32
    _pack = struct.Struct("4d").pack

    def __init__(self):
        self._lock = threading.Lock()
        self.cache_clear()

    def cache_clear(self):
        with self._lock:
            self._sights, self._arrays, self._params = OrderedDict(), OrderedDict(), OrderedDict()

    def admit(self, arr):
        """(rates, entries) of ``arr`` if it is admitted, else None.

        An array's slot is a hash of its shape and its first and last 8
        rates, which costs less than hashing all its bytes (5 us for 1501
        rates, two NumPy passes over them); a hit needs the slot's bytes and
        shape to be ``arr``'s, so arrays that share a slot only displace
        each other."""
        data = arr.tobytes()
        slot = hash((arr.shape, data[:64], data[-64:]))
        kept = self.get(self._arrays, slot)
        if kept is not None and kept[0] == data and kept[1].shape == arr.shape:
            return kept[1:]
        with self._lock:
            if not self._sights.pop(slot, False):
                self._put(self._sights, slot, True, self.SIGHTS)
                return None
            kept = data, np.frombuffer(data).reshape(arr.shape), OrderedDict()
            self._arrays.pop(slot, None)  # another array's, in a shared slot
            self._put(self._arrays, slot, kept, self.ARRAYS)
        return kept[1:]

    @staticmethod
    def get(entries, key):
        """The value kept under ``key``, now the most recently used, or None."""
        out = entries.get(key)
        if out is not None:
            try:
                entries.move_to_end(key)
            except KeyError:  # another thread dropped it meanwhile
                pass
        return out

    def put(self, entries, key, value):
        """Keep ``value``, an array or a tuple of arrays, read-only; return it."""
        for v in value if type(value) is tuple else (value,):
            v.setflags(write=False)
        with self._lock:
            self._put(entries, key, value, self.ENTRIES)
        return value

    @staticmethod
    def _put(entries, key, value, bound):
        entries[key] = value
        if len(entries) > bound:
            entries.popitem(last=False)

    def key(self, p):
        """The bits of p's four floats; None if one is not a float, whose
        type might change a result's bits."""
        a, b, s, g = p.alpha, p.beta, p.sigma, p.gamma
        if type(a) is type(b) is type(s) is type(g) is float:
            return self._pack(a, b, s, g)
        return None

    def record(self, p):
        """p's record of tables, now the most recently used; a new one,
        kept nowhere, if :meth:`key` gives p none."""
        key = self.key(p)
        if key is None:
            return _Record()
        out = self.get(self._params, key)
        if out is None:
            out = _Record()
            with self._lock:
                self._put(self._params, key, out, self.PARAMS)
        return out


class _Record(dict):
    """A parameter set's record in :class:`_Kept`: its filtered monomial
    tables, keyed (terms, n), and in :attr:`batches`, per public function
    name, its scalar calls' batch, [exponents, their array or None]."""

    __slots__ = ("batches",)

    def __init__(self):
        super().__init__()
        self.batches = {}


class _Powers:
    """The power table :func:`_call` builds for one public call ``what``
    (at maturity ``tau``, if it takes one): the rates ``arr`` (a float64
    array; a Python float rate until a power needs its array), each
    ``arr**pw`` formed at most once per exponent float, and the least
    rate, which every rate-domain check reads; for a scalar rate, the
    powers, sums and least rate are Python floats.  Every refusal through
    it names ``what``.  Keys are exact exponent floats: a power is reused
    only where it would be recomputed bit for bit.  What outlives the call
    is kept in
    :attr:`_kept`: the monomial tables of its parameter set (:meth:`table`)
    and, beside them, its scalar calls' batch of generic exponents
    (:meth:`batch`), and the powers and tau-free results of a repeated
    C-contiguous array of 64 to 16384 rates: below, a lookup costs about
    what forming a power does; above, the kept values would take much
    memory.
    """

    __slots__ = ("scalar", "arr", "what", "_pows", "_kept_here", "_low", "_tau", "_record", "_x", "_batch")

    _kept = _Kept()

    #: The largest |exponent| a batch may hold: on the window's rates its
    #: powers lie in [1e-300, 1e300], where none raises a floating-point flag.
    BATCH_EXP = 50.0

    def __init__(self, r, what: str, tau=None):
        if tau is not None:
            _check_maturity(tau)
        self._pows = {}
        self._kept_here = self._low = self._record = None  # _kept_here: see _entries
        self.what, self._tau = what, tau
        if type(r) is not float:
            r = np.asarray(r, dtype=float)
            if r.ndim:
                self.arr, self.scalar = r, False
                return
        # a scalar rate: a Python float's 0-d array is made only for a
        # generic power (see __call__); only a scalar table sets _x and _batch
        self.arr, self.scalar = r, True
        x = self._pows[1] = float(r)
        self._x = x if R_FLOOR <= x <= 1 else None  # a rate in the window
        self._batch = None  # see batch

    def _out_of_range(self):
        at = "" if self._tau is None else f" at tau={self._tau!r}"
        return f"{self.what}: out of float range{at}"

    def _entries(self):
        """This array's entries in :attr:`_kept`, or False if it has none.

        Once found, the table reads the kept copy of its rates, whose bytes
        are the key, so whatever it keeps is formed from exactly those."""
        if self._kept_here is None:
            arr = self.arr
            kept = 64 <= arr.size <= 16384 and arr.flags.c_contiguous and self._kept.admit(arr)
            self._kept_here = False
            if kept:
                self.arr, self._kept_here = kept
        return self._kept_here

    def __call__(self, pw):
        """arr**pw, formed on first use; 1.0 and the rates themselves for
        pw = 0 and 1, so no caller may write into what this returns.

        A scalar table hands out Python floats with the bits of an array's
        element: NumPy's power (Python's ``**`` and math.pow differ from it
        in the last bit for some rates).  For a rate x in the window
        R_FLOOR <= x <= 1, x**2, x**0.5 and x**-1 are x * x, math.sqrt(x)
        and 1.0 / x, the IEEE operations NumPy runs for them, and a generic
        power is formed alone unless the call's batch (:meth:`batch`)
        formed it; none of these raises a floating-point flag there.
        Elsewhere x's power is its 0-d array's, so a refusal's type and
        message stay those of an array.  An array's generic power (NumPy
        serves 2, 0.5 and -1 by square, sqrt and reciprocal) is kept for a
        repeated array."""
        out = self._pows.get(pw)
        if out is None:
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
                else:  # a generic power, formed alone; see batch
                    batch = self._batch
                    if batch is not None and -self.BATCH_EXP <= pw <= self.BATCH_EXP and pw not in batch[0]:
                        batch[0].append(pw)
                    arr = self.arr
                    if type(arr) is float:  # a Python float rate's 0-d array, made once
                        arr = self.arr = np.asarray(arr)
                    out = float(self._power(arr, pw))
            elif pw == 1.0:
                out = self.arr
            elif pw in (2.0, 0.5, -1.0) or (entries := self._entries()) is False:
                out = self.arr**pw
            else:
                out = self._kept.get(entries, pw)
                if out is None:
                    out = self._kept.put(entries, pw, self.arr**pw)
            self._pows[pw] = out
        return out

    def batch(self, record):
        """Form, in one NumPy call, the batch this scalar call's outermost
        function keeps in ``record``, the record of its parameters, just
        read: the generic powers its calls formed after reading it (a
        generic power formed alone from now on is added, see
        :meth:`__call__`).  A call reads its record at its first monomial
        table, so the powers it forms before (q's and r^{2 gamma}, at most
        three) stay alone, and a call that reads no table (cw_log_price,
        q_factor) looks nothing up: for one generic power the lookup would
        cost more than it saves.  Nothing is keyed on the rate: as each
        element has the bits of its power formed alone, a batch decides a
        call's cost, never its result."""
        batch = self._batch = record.batches.get(self.what)
        if batch is None:
            batch = self._batch = record.batches[self.what] = [[], None]
        exps, arr = batch
        if len(exps) >= 2:
            if arr is None or len(arr) != len(exps):  # exponents were added
                arr = batch[1] = np.array(exps, dtype=float)
            if type(self.arr) is float:  # as in __call__
                self.arr = np.asarray(self.arr)
            self._pows.update(zip(exps, self._power(self.arr, arr).tolist()))

    #: Forms a scalar's generic powers in the window, (0-d rate, exponent or
    #: array of them): one NumPy call, whose loop gives each element the
    #: bits of the 0-d power (the 0.5 it is never handed would differ from
    #: the sqrt NumPy's ``**`` runs).
    _power = staticmethod(np.power)

    def kept(self, fn, p):
        """``fn(p, self)`` for a tau-free function ``fn`` nested in a call:
        its checked result, kept for a repeated array under fn and the bits
        of p's four floats.

        A hit skips fn and its checks: the key fixes the rates' bytes and
        the parameters, and only a result that passed them is kept.  The
        warning filter does not matter: in these functions an overflow, a
        zero division or an invalid operation leaves a non-finite result,
        so a result kept while NumPy's warnings are ignored raised none."""
        entries = self._entries()
        bits = None if entries is False else self._kept.key(p)
        if bits is None:
            return self.result(fn(p, self))
        key = fn, bits
        out = self._kept.get(entries, key)
        if out is None:
            out = self._kept.put(entries, key, self.result(fn(p, self)))
        return out

    def low(self):
        """The least rate (NaN if any is NaN, inf if none), reduced once."""
        if self._low is None:
            self._low = self(1) if self.scalar else np.minimum.reduce(self.arr, axis=None, initial=math.inf)
        return self._low

    def check(self, singular: bool):
        """Refuse, in the call's name, a negative or NaN rate and, if
        ``singular``, a rate below R_FLOOR."""
        if not self.low() >= 0:
            raise DomainError(f"{self.what}: negative or NaN rate")
        if singular and self.low() < R_FLOOR:
            raise DomainError(f"{self.what}: singular as r -> 0 for this gamma; need r >= {R_FLOOR}")

    def zero(self):
        """0.0 for a scalar rate, else a new array of zeros of its shape."""
        return 0.0 if self.scalar else np.zeros_like(self.arr)

    @staticmethod
    def nan_is_zero(c, p: ModelParams) -> bool:
        """Whether a NaN coefficient ``c`` of ``p`` is the formula's zero:
        where all four parameters are finite, every factor of a monomial
        is, so the NaN is a product that overflowed times an exactly-zero
        factor (a vanishing gamma polynomial, or the exponent 0 of a
        derivative).  A NaN or infinite parameter keeps its NaN, which is
        refused."""
        return c != c and all(map(math.isfinite, (p.alpha, p.beta, p.sigma, p.gamma)))

    def table(self, p: ModelParams, terms, n: int = 0):
        """(live, singular) of the n-th term-by-term r-derivative of p's
        (coef, power) table ``terms(p)``, from :func:`_c5_terms` (also
        k4's), :func:`_k5_terms` or :func:`_q_terms`; ``terms`` None is
        r^{2 gamma}, one monomial.

        live holds the monomials :meth:`sum` adds, in table order: zero
        coefficients drop out, so their (possibly negative) powers are
        never formed, and so does a NaN coefficient that
        :meth:`nan_is_zero`.  singular is whether a live power is negative.
        Both are built on the table's first use for p and kept in p's record
        in :attr:`_kept`, which a call looks up once."""
        if self._record is None or self._record[0] is not p:
            self._record = p, self._kept.record(p)
            if self.scalar and self._x is not None:
                self.batch(self._record[1])
        record = self._record[1]
        out = record.get((terms, n))
        if out is None:
            table = [(1.0, 2 * p.gamma)] if terms is None else terms(p)
            for _ in range(n):
                table = _derive(table)
            live = [(c, pw) for c, pw in table if c != 0.0 and not self.nan_is_zero(c, p)]
            out = record[terms, n] = live, any(pw < 0 for _, pw in live)
        return out

    def sum(self, p: ModelParams, terms, n: int = 0):
        """Sum coef * r**power over the live monomials of :meth:`table`, in
        table order, under the module's one domain rule: a negative or NaN
        rate is refused unless no monomial is live, and a rate below
        R_FLOOR is refused exactly when a live monomial has a negative
        power.  A scalar's sum is a Python float, an array's is formed in
        place; a power already formed is read from the table's dict."""
        live, singular = self.table(p, terms, n)
        out = self.zero()
        if not live:
            return out
        self.check(singular)
        pows = self._pows
        for c, pw in live:
            out += c * (pows[pw] if pw in pows else self(pw))
        return out

    def result(self, out):
        """``out`` as a float for a scalar rate, else as computed, and a
        tuple item by item; refused in the call's name if not finite."""
        if type(out) is tuple:
            return tuple(map(self.result, out))
        out = float(out) if self.scalar else out
        # an inf or NaN makes the sum of squares non-finite; that one BLAS
        # pass raises no overflow warning and costs a third of np.isfinite
        if not (math.isfinite(out) if self.scalar else
                math.isfinite(np.vdot(out, out)) or np.isfinite(out).all()):
            raise ValidationError(self._out_of_range())
        return out


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
    r.check(g < 0.5)
    c = g * (2 * g - 1) * (p.sigma * p.sigma)
    if r.nan_is_zero(c, p):  # as in the monomial tables: sigma * sigma = inf at gamma = 1/2
        c = 0.0
    return c * r(2 * (2 * g - 1)) + 2 * g * r(2 * g - 1) * (p.alpha + p.beta * r(1))


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
    return t1 - r(1) * B + (r2g + q * tau) * eg - q * fh


@_call
def cw_partials(p: ModelParams, tau: float, r):
    """Analytic (f_tau, f_r, f_rr) of :func:`cw_log_price`; as fh' = tau eg',
    f_tau = -r e^{beta tau} - alpha B + (1/2) sigma^2 r^{2 gamma} B^2 + q eg.

    Suitable as the ``partials`` argument of :func:`pde_residual`; resolves
    residuals down to rounding level (~1e-15).
    """
    # the rate checks run in these sums, before the brackets that may
    # overflow, so a refusal's type does not depend on the warning filter
    q, r2g = _q_and_r2g(p, r)
    # d/dr and d2/dr2 of r^{2 gamma} (the table None) and of q
    d1, d2, qp, qpp = (r.sum(p, terms, n) for terms in (None, _q_terms) for n in (1, 2))
    B, _, eg, fh = _beta_brackets(p, tau)
    f_tau = -r(1) * np.exp(p.beta * tau) - p.alpha * B + 0.5 * p.sigma * p.sigma * r2g * B * B + q * eg
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


def _coef(p: ModelParams, pows: _Powers, pref: float, terms, n: int = 0):
    """``pref`` times the sum of a monomial table (see :meth:`_Powers.table`);
    identically zero at gamma = 0."""
    return pows.zero() if p.gamma == 0 else pref * pows.sum(p, terms, n)


@_call
def k4(p: ModelParams, r):
    """Quartic residual coefficient: substituting the closed-form log price
    into the pricing PDE leaves h(tau, r) = k4 tau^4 + k5 tau^5 + o(tau^5)."""
    return _coef(p, r, p.gamma * p.sigma**2 / 24.0, _c5_terms)


@_call
def k5(p: ModelParams, r):
    """Quintic residual coefficient; see :func:`k4`."""
    return _coef(p, r, p.gamma * p.sigma**2 / 120.0, _k5_terms)


@_call
def c5(p: ModelParams, r):
    """Leading log-price error coefficient: ln P_approx - ln P_exact =
    c5(r) tau^5 + o(tau^5).  Identically equal to -k4(r)/5."""
    return _coef(p, r, -p.gamma * p.sigma**2 / 120.0, _c5_terms)


@_call
def c5_derivatives(p: ModelParams, r):
    """Analytic (c5'(r), c5''(r)) by term-by-term differentiation."""
    pref = -p.gamma * p.sigma**2 / 120.0
    return _coef(p, r, pref, _c5_terms, 1), _coef(p, r, pref, _c5_terms, 2)


@_call
def c6(p: ModelParams, r):
    """Second error coefficient, defined by the recurrence

        c6 = (1/6) [ (1/2) sigma^2 r^{2 gamma} c5''(r)
                     + (alpha + beta r) c5'(r) - k5(r) ].
    """
    g = p.gamma
    if g == 0:
        return r.zero()
    r.check(False)  # the rate enters below even where every monomial vanishes
    d1, d2 = c5_derivatives(p, r)
    return (0.5 * p.sigma**2 * r(2 * g) * d2 + (p.alpha + p.beta * r(1)) * d1 - k5(p, r)) / 6.0


@_call
def improved_log_price(p: ModelParams, tau: float, r):
    """Higher-order approximate log price:
    cw_log_price - c5(r) tau^5 - c6(r) tau^6 (error o(tau^6)).

    The three terms share this call's power table, which serves q,
    r^{2 gamma}, c5, c5', c5'' and k5.  At gamma = 0, where c5 and c6
    vanish, this is :func:`cw_log_price`.
    """
    if p.gamma == 0:
        return cw_log_price.__wrapped__(p, tau, r)  # cw's body: this call checks the result
    return cw_log_price(p, tau, r) - c5(p, r) * tau**5 - c6(p, r) * tau**6


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
    return (-f_tau + 0.5 * p.sigma**2 * r(2 * p.gamma) * (f_r * f_r + f_rr)
            + (p.alpha + p.beta * r(1)) * f_r - r(1))
