import os
import subprocess
import sys

import numpy as np
import pytest

import bondkit
from bondkit import (
    MaturityGrid,
    ModelParams,
    PdeConfig,
    PdeSolution,
    boundary_policy,
    cir_log_price,
    solve,
)
from bondkit.errors import GammaOutOfRange, TridiagonalSingular, UnstableSolve, ValidationError
from bondkit.pde import _factor


def linf_vs_cir(params, sol, tau, r_hi=0.15):
    mask = sol.rates <= r_hi + 1e-12
    d = sol.log_price_at(tau)[mask] - cir_log_price(params, tau, sol.rates[mask])
    return np.max(np.abs(d))


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            PdeConfig(r_max=-1.0)
        with pytest.raises(ValidationError):
            PdeConfig(n_space=2)
        with pytest.raises(ValidationError):
            PdeConfig(n_time=0)

    def test_minimal_grid_runs(self, params):
        # n_space = 3 is the documented lower bound: runs, untrusted accuracy
        sol = solve(params, PdeConfig(n_space=3, n_time=4, t_final=0.5), [0.5])
        assert np.all(np.isfinite(sol.log_price_at(0.5)))


class TestBoundaryPolicy:
    def test_descriptions(self, params):
        pol = boundary_policy(params, PdeConfig())
        assert "vanishes" in pol.left and "order-2" in pol.left
        assert "ghost" in pol.right
        pol0 = boundary_policy(params.with_gamma(0.0), PdeConfig())
        assert "modeling choice" in pol0.left and "order-2" in pol0.left

    def test_zero_rate_node_near_constant_after_one_step(self, params):
        cfg = PdeConfig(n_space=51, n_time=1, t_final=0.01, r_max=0.5)
        sol = solve(params, cfg, [0.01])
        p = np.exp(sol.log_price_at(0.01))
        grad = np.max(np.abs(np.diff(p))) / (sol.rates[1] - sol.rates[0])
        assert p[0] <= 1.0 + 1e-12
        assert p[0] >= 1.0 - 1.05 * params.alpha * 0.01 * grad - 1e-12

    def test_rmax_row_ghost_algebra(self, params):
        # for affine data P = a + b r the assembled last row must equal
        # v*b - r_max*P_N (zero-curvature ghost reduces drift to backward diff)
        from bondkit.pde import _spatial_operator

        cfg = PdeConfig(n_space=11, n_time=1)
        r = np.linspace(0.0, cfg.r_max, cfg.n_space)
        lo, di, up, _ = _spatial_operator(params, r, r[1] - r[0])
        a_coef, b_coef = 0.9, -0.4
        P = a_coef + b_coef * r
        v = params.alpha + params.beta * r[-1]
        got = lo[-1] * P[-2] + di[-1] * P[-1]
        assert got == pytest.approx(v * b_coef - cfg.r_max * P[-1], rel=1e-12)


class TestSolve:
    def test_tau_zero_snapshot_is_zero(self, params):
        sol = solve(params, PdeConfig(n_space=101, n_time=10, t_final=0.1), [0.0, 0.1])
        assert np.all(sol.log_price_at(0.0) == 0.0)

    def test_accepts_maturity_grid(self, params):
        sol = solve(params, PdeConfig(n_space=101, n_time=40, t_final=1.0),
                    MaturityGrid((0.5, 1.0)))
        assert sol.taus == (0.5, 1.0)

    def test_snapshot_beyond_horizon_rejected(self, params):
        with pytest.raises(ValidationError):
            solve(params, PdeConfig(n_space=101, n_time=10, t_final=0.5), [1.0])
        with pytest.raises(ValidationError):
            # a NaN maturity would never be reached and leave a zero row
            solve(params, PdeConfig(n_space=11, n_time=4, t_final=0.5), [float("nan"), 0.5])

    def test_moderate_grid_accuracy_vs_cir(self, params):
        sol = solve(params, PdeConfig(n_space=1001, n_time=4000), [1.0])
        assert linf_vs_cir(params, sol, 1.0) < 2e-8

    def test_self_convergence_order(self, params):
        errs = []
        for ns, nt in [(251, 250), (501, 1000), (1001, 4000)]:
            sol = solve(params, PdeConfig(n_space=ns, n_time=nt), [1.0])
            errs.append(linf_vs_cir(params, sol, 1.0))
        eocs = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(e >= 1.9 for e in eocs)

    def test_positivity_to_ten_years(self, params):
        sol = solve(params, PdeConfig(n_space=501, n_time=2000, t_final=10.0),
                    [2.5, 5.0, 10.0])
        p = np.exp(sol.log_prices)
        assert np.all(p > 0)
        assert np.all(p <= 1.0 + 1e-6)

    def test_time_refinement_within_reported_error_estimate(self, params):
        # Pure time refinement must not move the answer beyond the Richardson
        # error estimate the comparison tables report.  (Measured dominance is
        # the reverse of naive expectation: on [0, 0.15] the spatial error of
        # the central scheme is an order below the Crank-Nicolson time error,
        # so "time below spatial" would fail even though both sit an order
        # below every tolerance in use.)
        base = solve(params, PdeConfig(n_space=1001, n_time=4000), [1.0])
        finer_t = solve(params, PdeConfig(n_space=1001, n_time=16000), [1.0])
        companion = solve(params, PdeConfig(n_space=501, n_time=1000), [1.0])
        m = base.rates <= 0.15 + 1e-12
        mc = companion.rates <= 0.15 + 1e-12
        time_change = np.max(np.abs((base.log_price_at(1.0) - finer_t.log_price_at(1.0))[m]))
        richardson_est = np.max(np.abs(base.log_price_at(1.0)[m][::2] - companion.log_price_at(1.0)[mc])) / 3
        assert time_change < richardson_est

    def test_off_level_snapshot_agrees_with_aligned_run(self, params):
        # tau = 1/3 does not land on the coarse time grid; the snapshot from
        # its partial step must agree with an aligned run to O(dt)
        off = solve(params, PdeConfig(n_space=401, n_time=100), [1.0 / 3.0])
        aligned = solve(params, PdeConfig(n_space=401, n_time=99), [1.0 / 3.0])
        d = np.max(np.abs(off.log_price_at(1.0 / 3.0) - aligned.log_price_at(1.0 / 3.0)))
        assert d < 1e-5

    def test_off_level_partial_step_accuracy(self, params):
        # Errors against the closed form on the 1001 x 2000 grid of the CLI.
        # Linear interpolation between time levels gave 3.502e-8 at tau = 1/3
        # and 9.37e-9 at tau = 0.00123 (inside the implicit start-up); the
        # partial step must do no worse, and at tau = 1/3 it must match a run
        # whose 2001 levels hit the maturity to 1 %.
        cfg = PdeConfig(n_space=1001, n_time=2000)
        sol = solve(params, cfg, [1.0 / 3.0, 0.00123])
        assert linf_vs_cir(params, sol, 1.0 / 3.0) <= 3.502e-8
        assert linf_vs_cir(params, sol, 0.00123) <= 9.37e-9
        aligned = linf_vs_cir(params, solve(params, PdeConfig(n_space=1001, n_time=2001), [1.0 / 3.0]),
                              1.0 / 3.0)
        assert abs(linf_vs_cir(params, sol, 1.0 / 3.0) - aligned) <= 0.01 * aligned

    def test_march_stops_at_last_snapshot(self, params):
        short = solve(params, PdeConfig(n_time=40, t_final=1.0), [0.25])
        assert short.diagnostics.n_steps == 10
        assert short.diagnostics.n_rannacher_steps == 10
        full = solve(params, PdeConfig(n_time=40, t_final=1.0), [0.25, 1.0])
        assert full.diagnostics.n_steps == 40
        assert np.array_equal(short.log_price_at(0.25), full.log_price_at(0.25))

    def test_gamma_exponents_from_reference_study(self, params):
        for g in (0.75, 1.0, 1.32):
            sol = solve(params.with_gamma(g), PdeConfig(n_space=201, n_time=100), [1.0])
            assert np.all(np.isfinite(sol.log_price_at(1.0)))

    def test_gamma_out_of_range_guard(self, params):
        cfg = PdeConfig(n_space=101, n_time=10)
        with pytest.raises(GammaOutOfRange):
            solve(params.with_gamma(1.6), cfg, [1.0])
        cfg_force = PdeConfig(n_space=101, n_time=10, allow_gamma_beyond_range=True)
        sol = solve(params.with_gamma(1.6), cfg_force, [1.0])
        assert np.all(np.isfinite(sol.log_price_at(1.0)))

    def test_unstable_solve_detected(self, params):
        bad = ModelParams(params.alpha, params.beta, 1e160, 0.5)
        with pytest.raises(UnstableSolve):
            solve(bad, PdeConfig(n_space=51, n_time=5, t_final=0.5), [0.5])

    def test_diagnostics_populated(self, params):
        sol = solve(params, PdeConfig(n_space=101, n_time=20, t_final=0.5), [0.5])
        d = sol.diagnostics
        assert d.n_steps == 20
        assert d.n_rannacher_steps == 10
        assert d.min_pivot > 0.5  # diagonally dominant system
        assert 0 <= d.max_linear_residual < 1e-12

    def test_implicit_startup_count_capped_by_steps(self, params):
        sol = solve(params, PdeConfig(n_space=11, n_time=4, t_final=1.0), [1.0])
        assert sol.diagnostics.n_steps == 4
        assert sol.diagnostics.n_rannacher_steps == 4


class TestThomasPivot:
    # _factor takes the sub-, main and super-diagonals of the matrix
    def test_detects_singular_matrix(self):
        # rows [1 1 0; 1 1 0; 0 0 1]: second pivot is exactly zero
        with pytest.raises(TridiagonalSingular):
            _factor(np.array([1.0, 0.0]), np.array([1.0, 1.0, 1.0]), np.array([1.0, 0.0]))

    def test_well_conditioned(self):
        _, min_pivot, residual = _factor(np.array([-0.1, -0.1]), np.array([2.0, 2.0, 2.0]),
                                         np.array([-0.1, -0.1]))
        assert min_pivot > 1.9
        assert residual < 1e-15


class TestSolutionExport:
    def test_csv_layout(self, params, tmp_path):
        sol = solve(params, PdeConfig(n_space=11, n_time=8, t_final=1.0), [0.5, 1.0])
        path = tmp_path / "pde.csv"
        sol.to_csv(path)
        lines = path.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert any("params:" in m for m in meta)
        assert any("config:" in m for m in meta)
        assert data[0] == "r,lnP_tau0.5,lnP_tau1.0"
        assert len(data) == 1 + 11
        # shortest round-trip floats: parse back exactly
        first = data[1].split(",")
        assert float(first[0]) == sol.rates[0]
        assert float(first[1]) == sol.log_price_at(0.5)[0]

    def test_missing_snapshot_lookup(self, params):
        sol = solve(params, PdeConfig(n_space=11, n_time=4, t_final=1.0), [1.0])
        with pytest.raises(KeyError):
            sol.log_price_at(0.25)

    def test_lookup_matches_within_snapshot_tolerance(self, params):
        # 0.1 + 0.2 != 0.3 in binary, but solve() places both on one level
        sol = solve(params, PdeConfig(n_space=11, n_time=10, t_final=1.0), [0.1 + 0.2, 1.0])
        assert np.array_equal(sol.log_price_at(0.3), sol.log_prices[0])
        assert np.array_equal(sol.log_price_at(1.0 - 1e-13), sol.log_prices[1])
        with pytest.raises(KeyError):
            sol.log_price_at(0.3 + 1e-9)


def test_import_does_not_load_scipy():
    # SciPy is imported by solve() only, so pricing and tables start faster
    src = os.path.dirname(os.path.dirname(bondkit.__file__))
    code = "import sys, bondkit; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
