import io

import numpy as np
import pytest

from bondkit import (
    LogPriceCurve,
    PdeConfig,
    RateGrid,
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
    yield_curve,
)
from bondkit.analysis import DEFAULT_NORM_GRID, T1_GOLDEN, T2_GOLDEN
from bondkit.cli import main
from bondkit.errors import ValidationError

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


class TestGoldenStructure:
    def test_embedded_reference_shapes(self):
        assert len(T1_GOLDEN["linf_cw"]) == 4
        assert len(T2_GOLDEN["l2_cw"]) == 10
