import hashlib
import io

import numpy as np
import pytest

from _fresh import run_fresh
from bondkit import (
    MaturityGrid,
    ModelParams,
    PdeConfig,
    PdeSolution,
    cir_log_price,
    solve,
)
from bondkit.errors import GammaMismatch, UnstableSolve, ValidationError
from bondkit.pde import _stepper

# the exact bytes of ``solve(DEFAULT_PARAMS, PdeConfig(n_space=11, n_time=8,
# t_final=1.0), [0.3, 1.0]).to_csv``: tau = 0.3 falls between time levels
PDE_CSV = """\
# params: alpha=0.00315 beta=-0.0555 sigma=0.0894 gamma=0.5
# config: r_max=0.5 n_space=11 n_time=8 t_final=1.0 theta=0.5 drift=central boundary_order=2
# diagnostics: steps=8 rannacher=8 min_pivot=1.0032911735601193 max_linear_residual=2.7755575615628914e-16
r,lnP_tau0.3,lnP_tau1.0
0.0,-0.00019291580943635357,-0.0017279492306143695
0.05,-0.014976526531301422,-0.049961186767093935
0.1,-0.029680615600158358,-0.09792298770925033
0.15000000000000002,-0.04430610061825886,-0.14561764600573696
0.2,-0.058853847869897315,-0.19304793569542253
0.25,-0.07332470897259576,-0.24021656301280558
0.30000000000000004,-0.08771952171701704,-0.2871262176291598
0.35000000000000003,-0.10203911359820964,-0.3337798578651802
0.4,-0.11628436577744256,-0.38018389351171855
0.45,-0.13045731465329996,-0.42637821295742767
0.5,-0.1445778063939994,-0.47267367516007475
"""

# the same at gamma = 0, where the diffusion coefficient is sigma^2/2 * r**0.0
PDE_CSV_VASICEK = """\
# params: alpha=0.00315 beta=-0.0555 sigma=0.0894 gamma=0.0
# config: r_max=0.5 n_space=11 n_time=8 t_final=1.0 theta=0.5 drift=central boundary_order=2
# diagnostics: steps=8 rannacher=8 min_pivot=1.003157372573838 max_linear_residual=3.0531133177191805e-16
r,lnP_tau0.3,lnP_tau1.0
0.0,-0.0001919773918573656,-0.0016940491163484268
0.05,-0.01491230116241586,-0.0488374001590802
0.1,-0.02960936160064539,-0.09653569457849824
0.15000000000000002,-0.044237867818713285,-0.14422750394790132
0.2,-0.058790285043442796,-0.19173128752139276
0.25,-0.07326598224130229,-0.23899350500490094
0.30000000000000004,-0.08766555782346719,-0.28600182499224663
0.35000000000000003,-0.1019899054761615,-0.33276082693794495
0.4,-0.11624059284165038,-0.37930030442326756
0.45,-0.13042365360893815,-0.42574268402218357
0.5,-0.14457539745403902,-0.47257970777406005
"""


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
        for bad in ({"r_max": np.inf}, {"t_final": np.inf}, {"r_max": np.nan}, {"t_final": np.nan}):
            with pytest.raises(ValidationError, match="finite"):
                PdeConfig(**bad)

    @pytest.mark.parametrize("field", ["n_space", "n_time"])
    @pytest.mark.parametrize("bad", [11.5, 2.5, True, np.float64(11.0)])
    def test_non_integer_grid_size_rejected(self, field, bad):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            PdeConfig(**{field: bad})

    def test_numpy_float_fields_solve_as_python_floats(self, params):
        # r_max and t_final are stored as Python floats, so a float32 config
        # builds the float64 grid and step of the Python floats
        taus = [0.3, 1.0]
        want, got = (solve(params, PdeConfig(r_max=v, n_space=41, n_time=20, t_final=t), taus)
                     for v, t in ((0.5, 1.0), (np.float32(0.5), np.float32(1.0))))
        assert got.rates.tobytes() == want.rates.tobytes() and got.log_prices.tobytes() == want.log_prices.tobytes()
        bufs = io.StringIO(), io.StringIO()
        for sol, buf in zip((want, got), bufs):
            sol.to_csv(buf)
        assert bufs[0].getvalue() == bufs[1].getvalue()

    def test_numpy_integer_grid_sizes_accepted(self):
        assert PdeConfig(n_space=np.int64(11), n_time=np.int32(4)).n_time == 4

    def test_minimal_grid_runs(self, params):
        # n_space = 3 is the documented lower bound: runs, untrusted accuracy
        sol = solve(params, PdeConfig(n_space=3, n_time=4, t_final=0.5), [0.5])
        assert np.all(np.isfinite(sol.log_price_at(0.5)))


class TestBoundaryPolicy:
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

    @pytest.mark.parametrize("gamma, rows, r_top", [(0.5, 0, 0.0), (0.75, 10, 0.00125),
                                                     (1.0, 52, 0.0065), (1.32, 158, 0.01975)])
    def test_central_drift_negative_sub_diagonal_rows(self, params, gamma, rows, r_top):
        # the module docstring's count on the desk grid: the rows whose
        # central drift outweighs the vanishing diffusion are the first ones
        from bondkit.pde import _spatial_operator

        r = np.linspace(0.0, 0.5, 4001)
        lo = _spatial_operator(params.with_gamma(gamma), r, r[1] - r[0])[0]
        neg = np.flatnonzero(lo[1:-1] < 0) + 1
        assert neg.tolist() == list(range(1, rows + 1))
        assert r[rows] == pytest.approx(r_top, abs=1e-15)

    @pytest.mark.parametrize("gamma", [0.5, 0.75, 1.0, 1.32])
    def test_rmax_truncation_does_not_reach_rates_of_interest(self, params, gamma):
        # the module docstring's claim: r_max 1.0 instead of 0.5 at the same dr
        # leaves ln P on [0, 0.15] bit-identical
        p = params.with_gamma(gamma)
        near, far = (solve(p, PdeConfig(r_max=r_max, n_space=n, n_time=1000), [1.0])
                     for r_max, n in ((0.5, 401), (1.0, 801)))
        m = near.rates <= 0.15
        assert np.array_equal(near.rates[m], far.rates[: m.size][m])
        assert np.array_equal(near.log_price_at(1.0)[m], far.log_price_at(1.0)[: m.size][m])


class TestSolve:
    def test_tau_zero_snapshot_is_zero(self, params):
        sol = solve(params, PdeConfig(n_space=101, n_time=10, t_final=0.1), [0.0, 0.1])
        assert np.all(sol.log_price_at(0.0) == 0.0)

    def test_accepts_maturity_grid(self, params):
        sol = solve(params, PdeConfig(n_space=101, n_time=40, t_final=1.0),
                    MaturityGrid((0.5, 1.0)))
        assert sol.taus == (0.5, 1.0)

    @pytest.mark.parametrize("taus", [(0.5, 0.5), (0.5, 1.0, 0.5 + 1e-13)])
    def test_repeated_snapshot_rejected(self, params, taus):
        # log_price_at could not tell the two apart
        with pytest.raises(ValidationError, match="must be distinct"):
            solve(params, PdeConfig(n_space=11, n_time=4), taus)

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
        with pytest.raises(GammaMismatch, match=r"^gamma=1.6 >= 1.5: uniqueness of the continuous problem"):
            solve(params.with_gamma(1.6), cfg, [1.0])

    def test_unstable_solve_detected(self, params):
        bad = ModelParams(params.alpha, params.beta, 1e160, 0.5)
        with pytest.raises(UnstableSolve):
            solve(bad, PdeConfig(n_space=51, n_time=5, t_final=0.5), [0.5])

    def test_non_finite_price_detected(self):
        # a steep drift on a five-node grid blows the march up part way; the
        # step that catches it depends on LAPACK rounding, so it is not pinned
        with pytest.raises(UnstableSolve, match=r"^non-finite price after step \d+$"):
            solve(ModelParams(0.01, 1000.0, 0.1, 0.0), PdeConfig(r_max=0.2, n_space=5, n_time=400), [1.0])

    def test_non_finite_price_detected_at_the_first_snapshot(self):
        # the march blows up some 40 steps before tau = 0.95 (level 380); the
        # finiteness check runs once that maturity's steps are done, without a
        # NumPy warning from the non-finite steps in between, and the march
        # does not run on to tau = 1
        with pytest.raises(UnstableSolve, match=r"^non-finite price after step \d+$") as err:
            solve(ModelParams(0.01, 1000.0, 0.1, 0.0), PdeConfig(r_max=0.2, n_space=5, n_time=400),
                  [1.0, 0.95])
        assert int(str(err.value).rsplit(" ", 1)[1]) <= 380

    def test_non_positive_snapshot_price_detected(self):
        # one implicit step of length 1 over a wide domain at a steep drift
        # stays finite but leaves a price at or below zero
        with pytest.raises(UnstableSolve, match=r"^non-positive price in snapshot at tau=1\.0$"):
            solve(ModelParams(0.00315, 5.0, 0.0894, 0.0), PdeConfig(r_max=50.0, n_space=11, n_time=1), [1.0])

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


# SHA-256 of log_prices.tobytes() + repr(diagnostics) on 401 x 1000 for the
# maturities (0.004, 0.25, 1/3, 1.0): 0.004 falls inside the implicit start-up
# and 1/3 takes a partial step.  The bits are those of this solver with one
# LAPACK build; another build may round differently.
SOLVE_SHA256 = {
    0.5: "b85fb9cbc256147625538db6be615d1a6b88ef056e13768e69511a02e1b99371",
    1.32: "428a25ee09f44713a4ea08adc8868d71191feda44cc7e7df0e2dacd37f643755",
}


@pytest.mark.parametrize("gamma", sorted(SOLVE_SHA256))
def test_solver_bits_pinned(params, gamma):
    sol = solve(params.with_gamma(gamma), PdeConfig(n_space=401, n_time=1000), (0.004, 0.25, 1 / 3, 1.0))
    digest = hashlib.sha256(sol.log_prices.tobytes() + repr(sol.diagnostics).encode()).hexdigest()
    assert digest == SOLVE_SHA256[gamma]


class TestThomasPivot:
    @staticmethod
    def factor(sub, main, sup):
        # a backward Euler step of h = 1 factors I - L; with no P2 entry in
        # the r = 0 row (b0[2] = 0) that is the matrix with sub-, main and
        # super-diagonals (sub, main, sup)
        sub, main, sup = map(np.array, (sub, main, sup))
        b0 = np.array([1.0 - main[0], -sup[0], 0.0])
        return _stepper(np.r_[0.0, -sub], 1.0 - main, np.r_[-sup, 0.0], b0, 1.0, implicit=True)

    def test_detects_singular_matrix(self):
        # rows [1 1 0; 1 1 1; 0 0 1]: second pivot is exactly zero
        with pytest.raises(UnstableSolve, match=r"^time-step matrix pivot 0.0 below 1e-300$"):
            self.factor([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0])

    def test_well_conditioned(self):
        (_, mult, scale), min_pivot, residual = self.factor([-0.1, -0.1], [2.0, 2.0, 2.0], [-0.1, -0.1])
        assert (mult, scale) == (0.0, 1.0)
        assert min_pivot > 1.9
        assert residual < 1e-15


class TestSolutionExport:
    def test_csv_bytes_pinned(self, params, tmp_path):
        sol = solve(params, PdeConfig(n_space=11, n_time=8, t_final=1.0), [0.3, 1.0])
        path = tmp_path / "pde.csv"
        sol.to_csv(path)
        assert path.read_text() == PDE_CSV
        buf = io.StringIO()
        sol.to_csv(buf, stamp="2024-01-01T00:00:00+00:00")
        assert not buf.closed  # a buffer is left open for its owner
        head, rows = PDE_CSV.split("r,lnP", 1)
        assert buf.getvalue() == head + "# generated: 2024-01-01T00:00:00+00:00\nr,lnP" + rows

    def test_csv_bytes_pinned_gamma_zero(self, vas_params):
        sol = solve(vas_params, PdeConfig(n_space=11, n_time=8, t_final=1.0), [0.3, 1.0])
        buf = io.StringIO()
        sol.to_csv(buf)
        assert buf.getvalue() == PDE_CSV_VASICEK

    def test_numpy_float_config_writes_the_python_floats_bytes(self, params):
        # the config line writes r_max and t_final as Python floats, as the
        # params line writes the parameters, not as ``np.float64(0.5)``
        out = []
        for r_max, t_final in ((0.5, 1.0), (np.float64(0.5), np.float64(1.0))):
            buf = io.StringIO()
            solve(params, PdeConfig(r_max=r_max, t_final=t_final, n_space=11, n_time=10), [1.0]).to_csv(buf)
            out.append(buf.getvalue())
        assert out[1] == out[0] and "# config: r_max=0.5 n_space=11 n_time=10 t_final=1.0 " in out[0]

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


def test_import_does_not_load_scipy(tmp_path):
    # the package loads no SciPy, and a PDE command only its LAPACK extension,
    # so pricing and tables start faster and PDE commands skip scipy.linalg
    run_fresh("import sys, bondkit; assert 'scipy' not in sys.modules, sorted(sys.modules)")
    run_fresh(
        "import sys\n"
        "from bondkit.cli import main\n"
        f"assert main(['pde', '--nspace', '11', '--ntime', '4', '--out', {str(tmp_path / 'p.csv')!r}]) == 0\n"
        "assert 'scipy.linalg._flapack' in sys.modules\n"
        "assert 'scipy.linalg' not in sys.modules, sorted(sys.modules)\n"
    )


class TestLapackLoading:
    """Both ways :func:`bondkit.pde._lapack` reaches ``dgttrf``/``dgttrs``
    give the same bits as an in-process solve."""

    SOLVE = (
        "import hashlib, sys\n"
        "from bondkit import DEFAULT_PARAMS, PdeConfig, solve\n"
        "def run():\n"
        "    sol = solve(DEFAULT_PARAMS.with_gamma(1.32), PdeConfig(n_space=201, n_time=400), (0.25, 1/3, 1.0))\n"
        "    return hashlib.sha256(sol.log_prices.tobytes()).hexdigest() + ' ' + repr(sol.diagnostics)\n"
    )

    @staticmethod
    def expected(params):
        sol = solve(params.with_gamma(1.32), PdeConfig(n_space=201, n_time=400), (0.25, 1 / 3, 1.0))
        return hashlib.sha256(sol.log_prices.tobytes()).hexdigest() + " " + repr(sol.diagnostics)

    def test_extension_not_found_falls_back_to_scipy_linalg(self, params):
        # only bondkit's lookup misses; SciPy's own imports still find _flapack
        out = run_fresh(self.SOLVE + (
            "import importlib.machinery\n"
            "find_spec = importlib.machinery.PathFinder.find_spec\n"
            "def miss(name, path=None, target=None):\n"
            "    if sys._getframe(1).f_globals['__name__'] == 'bondkit.pde':\n"
            "        return None\n"
            "    return find_spec(name, path, target)\n"
            "importlib.machinery.PathFinder.find_spec = staticmethod(miss)\n"
            "print(run())\n"
            "assert 'scipy.linalg.lapack' in sys.modules\n"
        ))
        assert out.strip() == self.expected(params)

    def test_concurrent_first_calls_load_the_extension_once(self, params):
        # each thread meets the module missing; a sleep in the load widens
        # the window in which another thread could start a load of its own
        out = run_fresh(self.SOLVE + (
            "import importlib.util, threading, time\n"
            "from bondkit import pde\n"
            "loads, got = [], []\n"
            "module_from_spec = importlib.util.module_from_spec\n"
            "def counted(spec):\n"
            "    loads.append(spec.name)\n"
            "    time.sleep(0.05)\n"
            "    return module_from_spec(spec)\n"
            "importlib.util.module_from_spec = counted\n"
            "barrier = threading.Barrier(4, timeout=60)\n"
            "def first():\n"
            "    barrier.wait()\n"
            "    got.append(pde._lapack())\n"
            "threads = [threading.Thread(target=first) for _ in range(4)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "assert loads == ['scipy.linalg._flapack'], loads\n"
            "assert len(got) == 4 and all(m is sys.modules['scipy.linalg._flapack'] for m in got)\n"
            "print(run())\n"
        ))
        assert out.strip() == self.expected(params)

    def test_later_scipy_linalg_import_reuses_the_extension(self, params):
        out = run_fresh(self.SOLVE + (
            "first = run()\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "assert scipy.linalg.lapack.dgttrf is sys.modules['scipy.linalg._flapack'].dgttrf\n"
            "assert scipy.linalg.lapack.dgttrs is sys.modules['scipy.linalg._flapack'].dgttrs\n"
            "assert run() == first\n"
            "print(first)\n"
        ))
        assert out.strip() == self.expected(params)
