"""A scalar rate's powers: exact forms and one batched NumPy call.

For a positive finite rate x, ``_Powers`` takes x**2, x**0.5 and x**-1 as
x * x, math.sqrt(x) and 1.0 / x, and forms the other (generic) powers a
call needs after reading its parameters' record in one ``np.power`` call
over the exponents its function formed there before (``_Powers.record``).
These tests pin the premises that make this bit-identical to forming each
power alone, check that a scalar call at edge rates (the ends of the
positive floats, R_FLOOR, 1, zero, inf, NaN and a negative rate) gives
what a one-element array gives, and check the kept batches.
"""

import math
import sys
import threading
import warnings

import numpy as np
import pytest

from bondkit import (
    ModelParams,
    c5,
    c5_derivatives,
    c6,
    cir_log_price,
    cir_partials,
    cw_log_price,
    cw_partials,
    improved_log_price,
    k4,
    k5,
    pde_residual,
    q_factor,
    vasicek_log_price,
    vasicek_partials,
)
from bondkit.approximation import R_FLOOR, _c5_terms, _c6_terms, _k5_terms, _Powers, _q_terms

P = ModelParams(0.00315, -0.0555, 0.0894, 0.5)


def _exponents(g):
    """Every power of r the module's formulas form at gamma ``g``: q and
    r^{2 gamma} with their first two r-derivatives, the monomial tables of
    c5 and k5 with theirs, and c6's merged table."""
    p = P.with_gamma(g)
    out = {2 * g, 2 * g - 1, 2 * g - 2, *(pw for _, pw in _c6_terms(p)[0])}
    for terms in (_q_terms, _c5_terms, _k5_terms):
        table = [(c, j * (2 * g) + m) for c, j, m in terms(p)]
        for _ in range(3):
            out.update(pw for _, pw in table)
            table = [(c * pw, pw - 1) for c, pw in table]
    return sorted(out)


def _bits(v):
    return float(v).hex()


class TestPremises:
    """What NumPy must give for the batch and the exact forms to keep every
    bit: a seeded sweep of the positive finite floats, their ends included.
    Powers that overflow or underflow raise NumPy flags, which decide no
    outcome (``_call``), so only their bits are compared."""

    GAMMAS = (0.25, 0.5, 0.75, 1.0, 1.32, 2.0, 20.0)

    @staticmethod
    def rates():
        rng = np.random.default_rng(20080221)
        logs = np.exp(rng.uniform(math.log(5e-324), math.log(sys.float_info.max), 400))
        return [5e-324, sys.float_info.min, 1e-300, R_FLOOR, math.nextafter(R_FLOOR, 1.0),
                math.nextafter(1.0, 0.0), 1.0, 2.0, 1e300, sys.float_info.max,
                *(x for x in map(float, logs) if 0 < x < math.inf)]

    @pytest.mark.parametrize("g", GAMMAS)
    def test_one_power_call_gives_each_zero_d_power(self, g):
        exps = [e for e in _exponents(g) if e not in (0.0, 1.0, 2.0, 0.5, -1.0)]
        arr = np.array(exps)
        with np.errstate(all="ignore"):
            for x in self.rates():
                got = np.power(x, arr).tolist()
                want = [float(np.asarray(x)**e) for e in exps]
                assert list(map(_bits, got)) == list(map(_bits, want)), (x, g)

    def test_an_element_does_not_depend_on_its_position(self):
        # 0.5 is never batched: for one exponent NumPy runs sqrt for it, and
        # in an array its power loop, which differs from sqrt in the last
        # bit for some rates; here it only has to keep its bits when moved
        exps = [e for e in _exponents(1.32) if e not in (0.0, 1.0)] + [0.5]
        with np.errstate(all="ignore"):
            for x in self.rates()[::7]:
                first = dict(zip(exps, np.power(x, np.array(exps)).tolist()))
                for shift in range(1, len(exps)):
                    moved = exps[shift:] + exps[:shift]
                    got = dict(zip(moved, np.power(x, np.array(moved)).tolist()))
                    assert {e: _bits(v) for e, v in got.items()} == {e: _bits(v) for e, v in first.items()}, x

    def test_exact_forms_are_numpys_fast_paths(self):
        with np.errstate(all="ignore"):
            for x in self.rates():
                a = np.asarray(x)
                assert _bits(x * x) == _bits(a**2)
                assert _bits(math.sqrt(x)) == _bits(a**0.5)
                assert _bits(1.0 / x) == _bits(a**-1)


TAU_FREE = (q_factor, k4, k5, c5, c5_derivatives, c6)
WITH_TAU = (cw_log_price, cw_partials, improved_log_price, vasicek_log_price, vasicek_partials,
            cir_log_price, cir_partials)
GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.32, 2.0, 20.0)  # gamma = 20 has exponents past 50
EDGE_RATES = (0.0, 5e-324, 5e-7, math.nextafter(R_FLOOR, 0.0), R_FLOOR, 0.5, 1.0, math.nextafter(1.0, 2.0),
              2.0, 1e200, 1e300, math.inf, math.nan, -1e-9)


def _edge_calls():
    for g in GAMMAS:
        p = P.with_gamma(g)
        for fn in TAU_FREE:
            yield (fn.__name__, g), lambda r, fn=fn, p=p: fn(p, r)
        for fn in WITH_TAU:
            yield (fn.__name__, g), lambda r, fn=fn, p=p: fn(p, 1.0, r)
        for partials in (cw_partials, cir_partials, vasicek_partials):
            yield (("pde_residual", partials.__name__, g),
                   lambda r, partials=partials, p=p: pde_residual(partials, p, 1.0, r))


EDGE_CALLS = list(_edge_calls())


def _outcome(call, r, mode):
    """Value bits, item by item, or (refusal type, message): warnings
    ignored (what default filters do to a call: they only print them),
    raised as errors (``-W error``) or NumPy's flags raised (``raise``)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error" if mode == "error" else "ignore")
        with np.errstate(all="raise") if mode == "raise" else np.errstate():
            try:
                out = call(r)
            except Exception as e:  # noqa: BLE001 - a refusal is an outcome too
                return type(e), str(e)
    return tuple(_bits(np.reshape(v, -1)[0]) for v in (out if isinstance(out, tuple) else (out,)))


@pytest.mark.parametrize("mode", ["ignore", "error", "raise"])
def test_edge_rates_give_the_one_element_array_outcome(mode):
    for label, call in EDGE_CALLS:
        for r in EDGE_RATES:
            _Powers._kept.cache_clear()
            want = _outcome(call, np.array([r]), mode)
            cold = _outcome(call, r, mode)
            for w in (0.5, r, 0.5, r):  # learn a batch at 0.5, and at r
                _outcome(call, w, "ignore")
            warm = _outcome(call, r, mode)
            assert cold == want and warm == want, (label, r)


def batches(record):
    """A parameter record's batches, kept beside its tables under function names."""
    return {key: v for key, v in record.items() if type(key) is str}


class TestBatches:
    """The batches kept in the parameter records of _Powers._kept: one per
    function, bounded and dropped with their record, emptied by
    cache_clear, shared by threads, and formed in one NumPy call."""

    P = P.with_gamma(1.32)

    @staticmethod
    def records():
        return _Powers._kept._params

    @pytest.fixture
    def power_calls(self, monkeypatch):
        calls = []

        def power(x, exps):
            calls.append(np.size(exps))
            return np.power(x, exps)

        monkeypatch.setattr(_Powers, "_power", staticmethod(power))
        return calls

    def test_a_warm_point_forms_its_tables_powers_in_one_call(self, power_calls):
        _Powers._kept.cache_clear()
        improved_log_price(self.P, 3.7, 0.0731)
        assert power_calls == [1] * 12  # cold: each generic power alone
        power_calls.clear()
        for tau, r in ((1.5, 0.02), (3.7, 0.0731), (9.0, R_FLOOR)):
            improved_log_price(self.P, tau, r)
        # the call reads its record first, so its batch holds the 12 powers of
        # its tables, q's two and r^{2 gamma} among them
        assert power_calls == [12] * 3
        (record,) = self.records().values()
        ((what, (exps, arr)),) = batches(record).items()
        assert what == "improved_log_price" and len(exps) == len(set(exps)) == len(arr) == 12
        power_calls.clear()
        for _ in range(2):
            c6(self.P, 0.0731)  # tables first: warm, every generic power in the batch
        assert power_calls == [1] * 12 + [12] and batches(record).keys() == {"improved_log_price", "c6"}

    @pytest.mark.parametrize("call", [
        lambda r: cir_log_price(P, 3.7, r),
        lambda r: vasicek_log_price(P.with_gamma(0.0), 3.7, r),
        lambda r: cw_log_price(P.with_gamma(0.0), 3.7, r),
        lambda r: cw_log_price(P, 3.7, r),
        lambda r: improved_log_price(P, 3.7, r),
    ], ids=["cir", "vasicek", "cw-0", "cw-1/2", "improved-1/2"])
    def test_points_without_generic_powers_form_no_batch(self, power_calls, call):
        _Powers._kept.cache_clear()
        for r in (0.0731, 0.0731, 0.5):
            call(r)
        assert power_calls == [] and not any(exps for record in self.records().values()
                                             for exps, _ in batches(record).values())

    @pytest.mark.parametrize("g, n", [(0.75, 1), (1.32, 3)])
    def test_a_call_without_tables_looks_nothing_up(self, power_calls, g, n):
        _Powers._kept.cache_clear()
        for _ in range(3):
            cw_log_price(self.P.with_gamma(g), 3.7, 0.0731)
        assert power_calls == [1] * n * 3 and not self.records()

    @pytest.mark.parametrize("mode", ["ignore", "error", "raise"])
    @pytest.mark.parametrize("call, r", [
        (lambda r: c5(P.with_gamma(1.32), r), 5e-7),  # improved's c6 needs R_FLOOR here
        (lambda r: improved_log_price(P.with_gamma(1.32), 3.7, r), 2.0),
        (lambda r: improved_log_price(P.with_gamma(1.32), 3.7, r), 1e30),
        (lambda r: c6(P.with_gamma(20.0), r), 0.5),
    ], ids=["c5-5e-7", "improved-2", "improved-1e30", "c6-gamma-20"])
    def test_every_positive_finite_rate_batches_its_powers(self, power_calls, mode, call, r):
        # off [R_FLOOR, 1], and with exponents past 50 (gamma = 20), a warm
        # point forms its generic powers in one call and prices as a
        # one-element array does
        _Powers._kept.cache_clear()
        want = _outcome(call, np.array([r]), mode)
        assert isinstance(want[0], str)  # priced
        for _ in range(2):
            assert _outcome(call, r, mode) == want
        ((exps, _),) = batches(*self.records().values()).values()
        power_calls.clear()
        assert _outcome(call, r, mode) == want
        assert len(exps) >= 2 and power_calls == [len(exps)]
        assert r != 0.5 or max(map(abs, exps)) > 50

    def test_batches_go_with_their_records(self):
        kept = _Powers._kept
        kept.cache_clear()
        ps = [self.P.with_gamma(0.6 + 0.01 * k) for k in range(kept.PARAMS + 8)]
        for p in ps:
            for _ in range(2):
                c5(p, 0.05)
        assert list(self.records()) == [kept.key(p) for p in ps[-kept.PARAMS:]]
        assert all(len(record["c5"][0]) >= 2 for record in self.records().values())
        kept.cache_clear()
        assert not self.records()

    def test_threads_give_the_serial_bits(self):
        # more parameter sets than the bound and more threads than cores,
        # with a short switch interval: batches are made, grown, read and
        # dropped concurrently
        ps = [self.P.with_gamma(0.55 + 0.02 * k) for k in range(_Powers._kept.PARAMS + 8)]
        jobs = [(fn, p, tau, r) for p in ps for fn in (cw_partials, improved_log_price)
                for tau in (0.5, 3.0) for r in (1e-3, 0.05)]
        _Powers._kept.cache_clear()
        want = [fn(p, tau, r) for fn, p, tau, r in jobs]
        _Powers._kept.cache_clear()
        got = [[None] * len(jobs) for _ in range(4)]

        def work(out, shift):
            for i in range(len(jobs)):
                j = (i + shift) % len(jobs)
                fn, p, tau, r = jobs[j]
                out[j] = fn(p, tau, r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out, 37 * n)) for n, out in enumerate(got)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(repr(out) == repr(want) for out in got)
        assert len(self.records()) == _Powers._kept.PARAMS
