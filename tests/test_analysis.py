import io
import os
import random
import re
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from _fresh import run_fresh
from bondkit import (
    DEFAULT_PARAMS,
    LogPriceCurve,
    PdeConfig,
    RateGrid,
    analysis,
    build_table,
    c5,
    check_table,
    cir_log_price,
    compute_table3_solutions,
    cw_log_price,
    difference_curve,
    eoc,
    evaluate_curve,
    improved_log_price,
    l2_norm,
    linf_norm,
    relative_mispricing,
    solve,
    yield_curve,
)
from bondkit.analysis import DEFAULT_NORM_GRID, T1_GOLDEN, T1_TAUS, T2_GOLDEN
from bondkit.cli import main
from bondkit.errors import GammaMismatch, UnstableSolve, ValidationError

# the exact bytes of ``bondkit table --table 1|2 --out``
T1_CSV = """\
# table: T1
# params: alpha=0.00315 beta=-0.0555 sigma=0.0894 gamma=0.5
# norm_grid: [0.0, 0.15] x 1501
# comparison: cw vs cir and improved vs cir (log prices)
tau,linf_cw,eoc_linf_cw,linf_improved,eoc_linf_improved,l2_cw,eoc_l2_cw,l2_improved,eoc_l2_improved
1,2.774e-07,4.930,4.682e-10,7.039,6.345e-08,4.933,9.828e-11,7.042
0.75,6.717e-08,4.951,6.181e-11,7.028,1.535e-08,4.953,1.296e-11,7.031
0.5,9.023e-09,4.972,3.576e-12,7.018,2.061e-09,4.973,7.492e-13,7.019
0.25,2.876e-10,,2.760e-14,,6.563e-11,,5.777e-15,
"""
T2_CSV = """\
# table: T2
# params: alpha=0.00315 beta=-0.0555 sigma=0.0894 gamma=0.5
# norm_grid: [0.0, 0.15] x 1501
# comparison: L2 of cw vs cir and improved vs cir (log prices)
tau,l2_cw,l2_improved
1,6.345e-08,9.828e-11
2,1.877e-06,1.314e-08
3,1.314e-05,2.329e-07
4,5.093e-05,1.799e-06
5,1.427e-04,8.798e-06
6,3.255e-04,3.217e-05
7,6.441e-04,9.618e-05
8,1.148e-03,2.479e-04
9,1.890e-03,5.705e-04
10,2.921e-03,1.200e-03
"""

# the exact bytes of ``bondkit table --table 3 --nspace 41 --ntime 40 --out``
T3_SMALL_CSV = """\
# table: T3
# params: alpha=0.00315 beta=-0.0555 sigma=0.0894
# norm_interval: [0, 0.15] on the solver grid
# solver_grid: n_space=41 n_time=40 r_max=0.5
# comparison: cw vs PDE solution (log prices)
# note: reference L2 values for this table are ~sqrt(2) above the trapezoid convention of tables 1-2; \
small-norm reference cells sit at the reference computation's own sampling/error floor
gamma,tau,linf,l2,solver_est_linf,solver_est_l2
0.5,1,8.314e-05,1.479e-05,4.140e-04,7.494e-05
0.5,0.75,8.417e-05,1.492e-05,2.953e-04,5.325e-05
0.5,0.5,8.499e-05,1.500e-05,1.965e-04,3.531e-05
0.5,0.25,8.569e-05,1.506e-05,7.343e-05,1.315e-05
0.75,1,8.158e-05,1.442e-05,4.050e-04,7.280e-05
0.75,0.75,8.278e-05,1.459e-05,2.901e-04,5.202e-05
0.75,0.5,8.396e-05,1.476e-05,1.939e-04,3.471e-05
0.75,0.25,8.512e-05,1.493e-05,7.285e-05,1.301e-05
1,1,8.094e-05,1.428e-05,4.015e-04,7.206e-05
1,0.75,8.223e-05,1.448e-05,2.880e-04,5.160e-05
1,0.5,8.356e-05,1.468e-05,1.929e-04,3.450e-05
1,0.25,8.490e-05,1.489e-05,7.262e-05,1.297e-05
1.32,1,8.064e-05,1.423e-05,4.000e-04,7.177e-05
1.32,0.75,8.199e-05,1.443e-05,2.871e-04,5.143e-05
1.32,0.5,8.338e-05,1.465e-05,1.925e-04,3.442e-05
1.32,0.25,8.480e-05,1.487e-05,7.252e-05,1.295e-05
"""


def flat_curve(value, tau=1.0, grid=None):
    g = grid or RateGrid(0.0, 0.15, 101)
    return LogPriceCurve(g, tau, np.full(g.n_points, value))


class TestNorms:
    def test_zero_curve(self):
        assert linf_norm(flat_curve(0.0)) == 0.0
        assert l2_norm(flat_curve(0.0)) == 0.0

    def test_constant_curve_l2(self):
        # |c| * sqrt(width)
        assert l2_norm(flat_curve(-0.3)) == pytest.approx(0.3 * np.sqrt(0.15), rel=1e-14)

    def test_published_linf_values(self, params):
        d = difference_curve(params, ("cw", "cir"), DEFAULT_NORM_GRID, 0.75)
        assert linf_norm(d) == pytest.approx(6.717e-8, rel=0.02)
        d = difference_curve(params, ("improved", "cir"), DEFAULT_NORM_GRID, 0.5)
        assert linf_norm(d) == pytest.approx(3.576e-12, rel=0.02)

    def test_published_l2_value(self, params):
        d = difference_curve(params, ("cw", "cir"), DEFAULT_NORM_GRID, 1.0)
        assert l2_norm(d) == pytest.approx(6.345e-8, rel=0.02)

    def test_norm_ordering(self, params):
        for tau in (0.25, 1.0, 5.0):
            d = difference_curve(params, ("cw", "cir"), DEFAULT_NORM_GRID, tau)
            width = DEFAULT_NORM_GRID.r_max - DEFAULT_NORM_GRID.r_min
            assert l2_norm(d) <= linf_norm(d) * np.sqrt(width) * (1 + 1e-12)

    def test_grid_independence(self, params):
        fine = RateGrid(0.0, 0.15, 3001)
        for kind, norm in (("linf", linf_norm), ("l2", l2_norm)):
            a = norm(difference_curve(params, ("cw", "cir"), DEFAULT_NORM_GRID, 1.0))
            b = norm(difference_curve(params, ("cw", "cir"), fine, 1.0))
            assert abs(a - b) / a < 1e-3


class TestEoc:
    def test_published_pairs(self):
        rows = eoc((2.774e-7, 6.717e-8), (1.0, 0.75))
        assert rows[0].eoc == pytest.approx(4.930, abs=5e-4)
        rows = eoc((9.828e-11, 1.296e-11), (1.0, 0.75))
        assert rows[0].eoc == pytest.approx(7.042, abs=5e-4)

    def test_exact_power_law(self):
        rows = eoc((8.0, 1.0), (2.0, 1.0))
        assert rows[0].eoc == pytest.approx(3.0, rel=1e-15)

    def test_row_structure(self):
        rows = eoc((1e-3, 1e-4, 1e-5), (1.0, 0.5, 0.25))
        assert len(rows) == 2  # final maturity carries no EOC
        assert rows[0].tau_coarse == 1.0 and rows[0].tau_fine == 0.5
        assert rows[1].err_fine == 1e-5

    def test_non_positive_error(self):
        with pytest.raises(ValidationError, match=r"^error norm <= 0: the two pricers agree"):
            eoc((1e-3, 0.0), (1.0, 0.5))

    @pytest.mark.parametrize("errs", [(1e-3, np.inf), (np.nan, 1e-4)])
    def test_non_finite_error(self, errs):
        with pytest.raises(ValidationError, match=r"^error norms must be finite"):
            eoc(errs, (1.0, 0.5))

    @pytest.mark.parametrize("taus", [(1.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_ladder_is_a_maturity_grid(self, taus):
        with pytest.raises(ValidationError):
            eoc((1e-3, 1e-4), taus)

    def test_length_guard(self):
        with pytest.raises(ValidationError):
            eoc((1e-3,), (1.0,))


class TestYieldCurve:
    def test_flat_yield(self):
        g = RateGrid(0.01, 0.2, 50)
        curve = LogPriceCurve(g, 2.0, -g.points * 2.0)
        assert np.allclose(yield_curve(curve), g.points, rtol=0, atol=1e-18)

    def test_tau_one_negation(self, params):
        c = evaluate_curve(params, "cir", DEFAULT_NORM_GRID, 1.0)
        assert np.all(yield_curve(c) == -c.values)

    def test_zero_maturity(self):
        with pytest.raises(ValidationError, match=r"^yields are undefined at tau = 0$"):
            yield_curve(flat_curve(0.0, tau=0.0))

    def test_small_tau_yield_error_asymptotics(self, params):
        # R_cw - R_cir ~ -c5(r) tau^4
        tau = 0.05
        grid = RateGrid(0.01, 0.15, 29)
        cw_y = yield_curve(evaluate_curve(params, "cw", grid, tau))
        cir_y = yield_curve(evaluate_curve(params, "cir", grid, tau))
        ratio = (cw_y - cir_y) / (-c5(params, grid.points) * tau**4)
        assert np.all(np.abs(ratio - 1.0) < 0.02)


class TestRelativeMispricing:
    def test_identical_curves(self, params):
        c = evaluate_curve(params, "cw", DEFAULT_NORM_GRID, 1.0)
        assert np.all(relative_mispricing(c, c) == 0.0)

    def test_equivalent_expression(self, params):
        ap = evaluate_curve(params, "cw", DEFAULT_NORM_GRID, 1.0)
        ex = evaluate_curve(params, "cir", DEFAULT_NORM_GRID, 1.0)
        rm = relative_mispricing(ap, ex)
        direct = (np.exp(ap.values) - np.exp(ex.values)) / np.exp(ex.values)
        assert np.allclose(rm, direct, rtol=0, atol=1e-15)

    def test_grid_mismatch(self, params):
        a = evaluate_curve(params, "cw", DEFAULT_NORM_GRID, 1.0)
        b = evaluate_curve(params, "cir", RateGrid(0.0, 0.15, 100), 1.0)
        with pytest.raises(ValidationError, match=r"^curves must share grid and maturity$"):
            relative_mispricing(a, b)
        c = evaluate_curve(params, "cir", DEFAULT_NORM_GRID, 0.5)
        with pytest.raises(ValidationError, match=r"^curves must share grid and maturity$"):
            relative_mispricing(a, c)

    def test_small_tau_asymptotics_sign(self, params):
        # The leading term of ln P_cw - ln P_cir is +c5(r) tau^5 (the sign
        # the reproduced error tables pin down, and the one the improved
        # approximation needs to reach 7th order), so the mispricing over
        # c5 tau^5 tends to +1.
        tau = 0.05
        grid = RateGrid(0.01, 0.15, 29)
        ap = evaluate_curve(params, "cw", grid, tau)
        ex = evaluate_curve(params, "cir", grid, tau)
        ratio = relative_mispricing(ap, ex) / (c5(params, grid.points) * tau**5)
        assert np.all(np.abs(ratio - 1.0) < 0.02)


class TestEvaluateCurve:
    def test_unknown_method(self, params):
        with pytest.raises(ValidationError):
            evaluate_curve(params, "heston", DEFAULT_NORM_GRID, 1.0)

    def test_shapes(self, params):
        c = evaluate_curve(params, "improved", DEFAULT_NORM_GRID, 0.5)
        assert c.tau == 0.5 and c.values.shape == (1501,)


class TestImprovedBeatsOriginal:
    def test_l2_dominance_to_ten_years(self, params):
        for tau in np.arange(0.25, 10.25, 0.25):
            d_cw = difference_curve(params, ("cw", "cir"), DEFAULT_NORM_GRID, float(tau))
            d_im = difference_curve(params, ("improved", "cir"), DEFAULT_NORM_GRID, float(tau))
            assert l2_norm(d_im) < l2_norm(d_cw)


class TestTables:
    def test_table1_against_golden(self, params):
        t = build_table("T1", params)
        res = check_table(t)
        assert res.ok, res.summary()
        assert res.max_rel_deviation < 0.02

    def test_table1_eoc_columns(self, params):
        t = build_table("T1", params)
        for col in ("eoc_linf_cw", "eoc_l2_improved"):
            vals = t.column(col)
            assert vals[-1] is None
            assert all(v is not None for v in vals[:-1])

    def test_table2_against_golden(self, params):
        t = build_table("T2", params)
        res = check_table(t)
        assert res.ok, res.summary()
        assert res.max_rel_deviation < 0.05
        assert len(t.rows) == 10

    def test_csv_deterministic(self, params):
        t = build_table("T1", params)
        a, b = io.StringIO(), io.StringIO()
        build_table("T1", params).to_csv(a)
        t.to_csv(b)
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().count("2.774e-07") == 1

    @pytest.mark.parametrize("table, want", [(1, T1_CSV), (2, T2_CSV)])
    def test_cli_csv_bytes_pinned(self, tmp_path, table, want):
        path = tmp_path / "t.csv"
        assert main(["table", "--table", str(table), "--out", str(path)]) == 0
        assert path.read_text() == want

    def test_table3_csv_bytes_pinned(self, params, tmp_path):
        sols, ests = compute_table3_solutions(params, PdeConfig(n_space=41, n_time=40))
        t = build_table("T3", params, pde_solutions=sols, error_estimates=ests)
        buf = io.StringIO()
        t.to_csv(buf)
        assert buf.getvalue() == T3_SMALL_CSV
        path = tmp_path / "t3.csv"
        assert main(["table", "--table", "3", "--nspace", "41", "--ntime", "40", "--out", str(path)]) == 0
        assert path.read_text() == T3_SMALL_CSV

    def test_table3_numpy_float_r_max_writes_the_float(self, params):
        # the solver_grid line writes r_max as a float, not as ``np.float64(0.5)``
        texts = []
        for r_max in (0.5, np.float64(0.5)):
            sols, ests = compute_table3_solutions(params, PdeConfig(n_space=41, n_time=20, r_max=r_max))
            buf = io.StringIO()
            build_table("T3", params, pde_solutions=sols, error_estimates=ests).to_csv(buf)
            texts.append(buf.getvalue())
        assert texts[1] == texts[0] and "r_max=0.5\n" in texts[0]

    def test_csv_stamp_only_when_requested(self, params):
        buf = io.StringIO()
        build_table("T2", params).to_csv(buf, stamp="2024-01-01T00:00:00")
        assert "# generated: 2024-01-01T00:00:00" in buf.getvalue()
        buf2 = io.StringIO()
        build_table("T2", params).to_csv(buf2)
        assert "generated" not in buf2.getvalue()

    def test_table3_requires_solutions(self, params):
        with pytest.raises(ValidationError, match=r"^table 3 needs PDE solutions"):
            build_table("T3", params)

    @pytest.mark.parametrize("cfg, message", [
        (PdeConfig(n_space=4, n_time=4), "the desk grid has r_max=0.5, n_space=4"),
        (PdeConfig(r_max=0.1, n_space=11, n_time=8), "the desk grid has r_max=0.1, n_space=11"),
        (PdeConfig(n_space=7, n_time=8), "the companion grid has r_max=0.5, n_space=4"),
    ], ids=["one-node", "short", "companion"])
    def test_table3_refuses_a_grid_without_two_norm_nodes(self, params, cfg, message):
        # one node in [0, 0.15] has no L2 norm, and r_max < 0.15 leaves part
        # of the interval out: refused before any solve, and by build_table
        match = (r"^table 3 takes its norms on \[0, 0\.15\], so a solve needs r_max >= 0\.15 and two nodes "
                 f"there; {re.escape(message)}$")
        with pytest.raises(ValidationError, match=match):
            compute_table3_solutions(params, cfg)
        sols = {g: solve(params.with_gamma(g), cfg, T1_TAUS) for g in (0.5, 1.0)}
        with pytest.raises(ValidationError, match=match):
            build_table("T3", params, pde_solutions=sols)

    def test_table3_small_grid_structure(self, params):
        cfg = PdeConfig(n_space=201, n_time=80)
        sols, ests = compute_table3_solutions(params, cfg, gammas=(0.5, 1.0))
        t = build_table("T3", params, pde_solutions=sols, error_estimates=ests)
        assert len(t.rows) == 8
        assert t.column("gamma")[:4] == [0.5] * 4
        # estimate columns populated
        assert all(v is not None and v > 0 for v in t.column("solver_est_linf"))

    def test_unknown_table(self, params):
        with pytest.raises(ValidationError):
            build_table("T9", params)


class TestTable3Threads:
    """``compute_table3_solutions`` shares the solves of a large grid with
    kept helper threads; every bit, key order and error is the serial one."""

    # the smallest shared desk grid, with few steps, and its companion
    CFG, COARSE = PdeConfig(n_space=1001, n_time=40), PdeConfig(n_space=501, n_time=10)
    T3_CLI = "main(['table', '--table', '3', '--nspace', '{}', '--ntime', '40', '--out', {!r}])"

    @staticmethod
    def helpers():
        return {t for t in threading.enumerate() if t.name.startswith("bondkit-table3-")}

    @staticmethod
    def csv(sols, ests):
        buf = io.StringIO()
        build_table("T3", DEFAULT_PARAMS, pde_solutions=sols, error_estimates=ests).to_csv(buf)
        return buf.getvalue()

    def test_threads_give_the_serial_bits(self, params):
        gammas = [0.5, 0.75, 1.0, 1.32]
        random.Random(29).shuffle(gammas)
        sols, ests = compute_table3_solutions(params, self.CFG, gammas=gammas)
        assert list(sols) == list(ests) == gammas
        for g in gammas:
            desk, comp = (solve(params.with_gamma(g), cfg, T1_TAUS) for cfg in (self.CFG, self.COARSE))
            assert sols[g].log_prices.tobytes() == desk.log_prices.tobytes()
            assert repr(sols[g].diagnostics) == repr(desk.diagnostics)
            fine, coarse = desk.rates <= 0.15 + 1e-12, comp.rates <= 0.15 + 1e-12
            want = {}
            for tau in T1_TAUS:
                d = desk.log_price_at(tau)[fine][::2] - comp.log_price_at(tau)[coarse]
                want[(tau, "linf")] = float(np.max(np.abs(d))) / 3.0
                want[(tau, "l2")] = float(np.sqrt(np.trapezoid(d**2, comp.rates[coarse]))) / 3.0
            assert ests[g] == want
        # on more than one CPU the helpers start, and a later call keeps them
        helpers = self.helpers()
        compute_table3_solutions(params, self.CFG)
        assert self.helpers() == helpers
        assert bool(helpers) == (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="one CPU: no helper")
    def test_a_large_grid_is_shared(self, params, monkeypatch):
        # the first two desk solves wait for each other, so they can only
        # finish on two threads
        meeting, threads = threading.Barrier(2, timeout=10), []

        def meet(p, cfg, taus):
            if cfg == self.CFG and p.gamma in (0.5, 0.75):
                threads.append(threading.current_thread())
                meeting.wait()
            return solve(p, cfg, taus)

        monkeypatch.setattr(analysis, "solve", meet)
        compute_table3_solutions(params, self.CFG)
        assert len(set(threads)) == 2 and threading.current_thread() in threads

    def test_a_small_grid_is_solved_on_the_calling_thread(self, params, monkeypatch):
        threads = []

        def recording(p, cfg, taus):
            threads.append(threading.current_thread())
            return solve(p, cfg, taus)

        monkeypatch.setattr(analysis, "solve", recording)
        compute_table3_solutions(params, replace(self.CFG, n_space=self.CFG.n_space - 2))
        assert threads == [threading.current_thread()] * 8

    def test_a_finished_call_leaves_nothing_alive(self, params):
        # a helper holding its last task would keep that call's solutions
        # until the next call, raising the peak memory of the next table
        sols, _ = compute_table3_solutions(params, self.CFG)
        refs = [weakref.ref(sol) for sol in sols.values()]
        del sols
        deadline = time.monotonic() + 10  # a helper may still be returning from its task
        while any(ref() is not None for ref in refs) and time.monotonic() < deadline:
            time.sleep(0.001)
        assert [ref() for ref in refs] == [None] * 4

    def test_error_is_the_first_in_serial_order(self, params, monkeypatch):
        with pytest.raises(GammaMismatch) as serial:
            solve(params.with_gamma(1.6), self.CFG, T1_TAUS)
        with pytest.raises(GammaMismatch) as threaded:
            compute_table3_solutions(params, self.CFG, gammas=(0.5, 1.6, 2.0))
        assert str(threaded.value) == str(serial.value)
        assert str(serial.value).startswith("gamma=1.6 ")

        # all desk solves are listed first, yet serial code meets gamma =
        # 0.5's companion before gamma = 0.75's desk solve
        def failing(p, cfg, taus):
            if (p.gamma, cfg.n_space) in ((0.5, self.COARSE.n_space), (0.75, self.CFG.n_space)):
                raise UnstableSolve(f"gamma={p.gamma} n_space={cfg.n_space}")
            return solve(p, cfg, taus)

        monkeypatch.setattr(analysis, "solve", failing)
        with pytest.raises(UnstableSolve, match=r"^gamma=0.5 n_space=501$"):
            compute_table3_solutions(params, self.CFG, gammas=(0.5, 0.75, 1.0))

    @pytest.mark.parametrize("cfg", [CFG, PdeConfig(n_space=41, n_time=40)], ids=["shared", "serial"])
    def test_a_failing_job_is_solved_once(self, params, monkeypatch, cfg):
        # every job runs once, the failing one included, and the error is
        # the one the first failing job in job order raises on its own
        calls = []

        def failing(p, grid, taus):
            calls.append((p.gamma, grid.n_space))
            if p.gamma == 0.75:
                raise UnstableSolve(f"gamma={p.gamma} n_space={grid.n_space}")
            return solve(p, grid, taus)

        with pytest.raises(UnstableSolve) as serial:
            failing(params.with_gamma(0.75), cfg, T1_TAUS)
        calls.clear()
        monkeypatch.setattr(analysis, "solve", failing)
        with pytest.raises(UnstableSolve) as raised:
            compute_table3_solutions(params, cfg, gammas=(0.5, 0.75, 1.0))
        assert (type(raised.value), str(raised.value)) == (type(serial.value), str(serial.value))
        coarse = (cfg.n_space - 1) // 2 + 1
        assert sorted(calls) == sorted((g, n) for g in (0.5, 0.75, 1.0) for n in (cfg.n_space, coarse))

    def test_every_solve_sees_the_callers_error_state(self, params, monkeypatch):
        seen = []

        def recording(p, cfg, taus):
            seen.append(np.geterr())
            return solve(p, cfg, taus)

        monkeypatch.setattr(analysis, "solve", recording)
        with np.errstate(divide="raise", under="raise"):
            compute_table3_solutions(params, self.CFG)
            assert seen == [np.geterr()] * 8

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
    def test_concurrent_first_calls_share_one_set_of_helpers(self, params):
        # four callers meet the helpers missing at once, with a thread
        # switch every microsecond; each gets the table of this process,
        # and one set of helpers serves them all
        out = run_fresh(
            "import io, os, sys, threading\n"
            "from bondkit import DEFAULT_PARAMS, PdeConfig, build_table, compute_table3_solutions\n"
            "sys.setswitchinterval(1e-6)\n"
            "barrier, csvs = threading.Barrier(4, timeout=60), []\n"
            "def table(gammas):\n"
            "    barrier.wait()\n"
            f"    sols, ests = compute_table3_solutions(DEFAULT_PARAMS, {self.CFG!r}, gammas)\n"
            "    buf = io.StringIO()\n"
            "    build_table('T3', DEFAULT_PARAMS, pde_solutions=sols, error_estimates=ests).to_csv(buf)\n"
            "    csvs.append(buf.getvalue())\n"
            "orders = [(0.5, 0.75, 1.0, 1.32), (1.32, 1.0, 0.75, 0.5), (0.75, 0.5, 1.32, 1.0), (1.0, 1.32, 0.5, 0.75)]\n"
            "threads = [threading.Thread(target=table, args=(g,)) for g in orders]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "helpers = [t for t in threading.enumerate() if t.name.startswith('bondkit-table3-')]\n"
            "assert len(helpers) == min(len(os.sched_getaffinity(0)), 8) - 1, helpers\n"
            "assert len(csvs) == 4 and len(set(csvs)) == 1\n"
            "sys.stdout.write(csvs[0])\n"
        )
        assert out == self.csv(*compute_table3_solutions(params, self.CFG))

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="one CPU: no helper")
    def test_helpers_keep_the_first_callers_cpus(self):
        # a small first table starts the helpers; a caller that pins itself
        # to one CPU afterwards still has them on every CPU
        run_fresh(
            "import os, threading\n"
            "from bondkit import DEFAULT_PARAMS, PdeConfig, compute_table3_solutions\n"
            "cpus = os.sched_getaffinity(0)\n"
            "compute_table3_solutions(DEFAULT_PARAMS, PdeConfig(n_space=41, n_time=40))\n"
            "os.sched_setaffinity(0, {min(cpus)})\n"
            f"compute_table3_solutions(DEFAULT_PARAMS, {self.CFG!r})\n"
            "helpers = [t for t in threading.enumerate() if t.name.startswith('bondkit-table3-')]\n"
            "assert helpers and all(os.sched_getaffinity(t.native_id) == cpus for t in helpers)\n"
        )

    def test_forked_child_starts_its_own_helpers(self, tmp_path):
        # the kept helpers do not follow a fork; a child that queued its
        # solves for them would wait forever, so a hang ends in SIGALRM
        path = tmp_path / "t3.csv"
        out = run_fresh(
            "import io, os, signal, sys\n"
            "from bondkit import DEFAULT_PARAMS, PdeConfig, build_table, compute_table3_solutions\n"
            "from bondkit.cli import main\n"
            f"sols, ests = compute_table3_solutions(DEFAULT_PARAMS, {self.CFG!r})\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            f"    sys.exit({self.T3_CLI.format(self.CFG.n_space, str(path))})\n"
            "buf = io.StringIO()\n"
            "build_table('T3', DEFAULT_PARAMS, pde_solutions=sols, error_estimates=ests).to_csv(buf)\n"
            "print(os.waitpid(pid, 0)[1])\n"
            "sys.stdout.write(buf.getvalue())\n"
        )
        status, table = out.split("\n", 1)
        assert status == "0"
        assert path.read_text() == table

    def test_nothing_new_off_the_table3_path(self):
        # import, tables 1-2 and a plain solve start no thread and import
        # no ``queue`` (the helpers' task queue), so the helpers cost them
        # nothing
        run_fresh(
            "import sys, threading\n"
            "import bondkit\n"
            "from bondkit import DEFAULT_PARAMS, PdeConfig, build_table, solve\n"
            "assert 'queue' not in sys.modules and threading.active_count() == 1\n"
            "build_table('T1'), build_table('T2')\n"
            "solve(DEFAULT_PARAMS, PdeConfig(n_space=41, n_time=40), (0.5, 1.0))\n"
            "assert 'queue' not in sys.modules, sorted(sys.modules)\n"
            "assert threading.active_count() == 1\n"
        )

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_one_cpu_solves_serially(self, params, tmp_path):
        path = tmp_path / "t3.csv"
        run_fresh(
            "import os, sys, threading\n"
            "from bondkit.cli import main\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            f"assert {self.T3_CLI.format(self.CFG.n_space, str(path))} == 0\n"
            "assert 'queue' not in sys.modules and threading.active_count() == 1\n"
        )
        assert path.read_text() == self.csv(*compute_table3_solutions(params, self.CFG))


class TestGoldenStructure:
    def test_embedded_reference_shapes(self):
        assert len(T1_GOLDEN["linf_cw"]) == 4
        assert len(T2_GOLDEN["l2_cw"]) == 10
