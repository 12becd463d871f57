"""Error norms, yield curves, EOC, and assembly of the benchmark tables.

Norm conventions: the L-infinity norm is the max of |f| over the grid nodes;
the L2 norm is the continuous integral norm sqrt(int f(r)^2 dr) approximated
by the composite trapezoid rule (this convention, not a root-mean-square,
reproduces the published reference values).  The default norm grid is 1501
uniform nodes on [0, 0.15].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .approximation import cw_log_price, improved_log_price
from .closed_form import cir_log_price, vasicek_log_price
from .errors import (
    GridMismatch,
    MissingPdeSolution,
    NonPositiveError,
    ValidationError,
    ZeroMaturity,
)
from .model import DEFAULT_PARAMS, LogPriceCurve, MaturityGrid, ModelParams, RateGrid, _text_sink
from .pde import PdeConfig, PdeSolution, solve

__all__ = [
    "ErrorReport",
    "EocRow",
    "Table",
    "CheckResult",
    "METHODS",
    "DEFAULT_NORM_GRID",
    "linf_norm",
    "l2_norm",
    "eoc",
    "yield_curve",
    "relative_mispricing",
    "evaluate_curve",
    "difference_curve",
    "error_report",
    "build_table",
    "compute_table3_solutions",
    "check_table",
    "T1_GOLDEN",
    "T2_GOLDEN",
    "T3_GOLDEN",
]

#: Pricers usable in curve/table comparisons, keyed by CLI method name.
METHODS = {
    "cw": cw_log_price,
    "improved": improved_log_price,
    "cir": cir_log_price,
    "vasicek": vasicek_log_price,
}

DEFAULT_NORM_GRID = RateGrid(0.0, 0.15, 1501)
T1_TAUS = (1.0, 0.75, 0.5, 0.25)
T2_TAUS = tuple(float(t) for t in range(1, 11))
T3_GAMMAS = (0.5, 0.75, 1.0, 1.32)


@dataclass(frozen=True)
class ErrorReport:
    """A single norm of a log-price difference at one maturity."""

    tau: float
    norm_kind: str  # "linf" or "l2"
    value: float
    method_pair: tuple

    def __post_init__(self):
        if self.norm_kind not in ("linf", "l2"):
            raise ValidationError(f"norm_kind must be 'linf' or 'l2', got {self.norm_kind}")
        if not (np.isfinite(self.value) and self.value >= 0):
            raise ValidationError(f"norm value must be finite and >= 0, got {self.value}")


@dataclass(frozen=True)
class EocRow:
    """Experimental order of convergence between two adjacent maturities."""

    tau_coarse: float
    tau_fine: float
    err_coarse: float
    err_fine: float
    eoc: float


def linf_norm(diff: LogPriceCurve) -> float:
    """Max of |values| over the grid nodes."""
    return float(np.max(np.abs(diff.values)))


def l2_norm(diff: LogPriceCurve) -> float:
    """Continuous L2 norm sqrt(int f^2 dr) by composite trapezoid."""
    return float(np.sqrt(np.trapezoid(diff.values**2, diff.grid.points)))


def eoc(errs, taus) -> list:
    """EOC_i = ln(err_i / err_{i+1}) / ln(tau_i / tau_{i+1}) for adjacent
    maturities; the final maturity has no row (the tables print ``--``)."""
    taus = tuple(taus)
    errs = tuple(float(e) for e in errs)
    if len(errs) != len(taus) or len(errs) < 2:
        raise ValidationError(f"need matching lists of >= 2 errors/maturities, got {len(errs)}/{len(taus)}")
    if any(e <= 0 for e in errs):
        raise NonPositiveError(
            "error norm <= 0: the two pricers agree to machine precision, no order to estimate"
        )
    rows = []
    for i in range(len(errs) - 1):
        value = np.log(errs[i] / errs[i + 1]) / np.log(taus[i] / taus[i + 1])
        rows.append(EocRow(taus[i], taus[i + 1], errs[i], errs[i + 1], float(value)))
    return rows


def yield_curve(log_price: LogPriceCurve) -> np.ndarray:
    """Continuously compounded yields R(tau, r) = -ln P / tau."""
    if log_price.tau == 0:
        raise ZeroMaturity("yields are undefined at tau = 0")
    return -log_price.values / log_price.tau


def relative_mispricing(ap: LogPriceCurve, ex: LogPriceCurve) -> np.ndarray:
    """(P_ap - P_ex) / P_ex, computed stably as expm1(ln P_ap - ln P_ex)."""
    if ap.grid != ex.grid or ap.tau != ex.tau:
        raise GridMismatch("curves must share grid and maturity")
    return np.expm1(ap.values - ex.values)


def evaluate_curve(p: ModelParams, method: str, grid: RateGrid, tau: float) -> LogPriceCurve:
    """Evaluate one pricer over a rate grid at fixed maturity."""
    try:
        fn = METHODS[method]
    except KeyError:
        raise ValidationError(f"unknown method {method!r}; choose from {sorted(METHODS)}") from None
    return LogPriceCurve(grid=grid, tau=tau, values=fn(p, tau, grid.points))


def difference_curve(p: ModelParams, pair, grid: RateGrid, tau: float) -> LogPriceCurve:
    """Log-price difference curve between two named pricers."""
    a, b = pair
    va = evaluate_curve(p, a, grid, tau).values
    vb = evaluate_curve(p, b, grid, tau).values
    return LogPriceCurve(grid=grid, tau=tau, values=va - vb)


def error_report(p: ModelParams, pair, grid: RateGrid, tau: float, norm_kind: str) -> ErrorReport:
    """One norm of the log-price difference between two named pricers."""
    diff = difference_curve(p, pair, grid, tau)
    norm = linf_norm if norm_kind == "linf" else l2_norm
    return ErrorReport(tau=tau, norm_kind=norm_kind, value=norm(diff), method_pair=tuple(pair))


# ---------------------------------------------------------------------------
# Golden reference values for the benchmark parameter set
# (alpha=0.00315, beta=-0.0555, sigma=0.0894), r in [0, 0.15].
# ---------------------------------------------------------------------------

T1_GOLDEN = {
    "taus": T1_TAUS,
    "linf_cw": (2.774e-7, 6.717e-8, 9.023e-9, 2.876e-10),
    "eoc_linf_cw": (4.930, 4.951, 4.972),
    "linf_improved": (4.682e-10, 6.181e-11, 3.576e-12, 2.786e-14),
    "eoc_linf_improved": (7.039, 7.029, 7.004),
    "l2_cw": (6.345e-8, 1.535e-8, 2.061e-9, 6.563e-11),
    "eoc_l2_cw": (4.933, 4.953, 4.973),
    "l2_improved": (9.828e-11, 1.296e-11, 7.492e-13, 5.805e-15),
    "eoc_l2_improved": (7.042, 7.031, 7.012),
}

T2_GOLDEN = {
    "taus": T2_TAUS,
    "l2_cw": (6.345e-8, 1.877e-6, 1.314e-5, 5.093e-5, 1.427e-4,
              3.255e-4, 6.441e-4, 1.148e-3, 1.890e-3, 2.921e-3),
    "l2_improved": (9.828e-11, 1.314e-8, 2.329e-7, 1.799e-6, 8.798e-6,
                    3.217e-5, 9.618e-5, 2.479e-4, 5.705e-4, 1.200e-3),
}

# (gamma, tau) -> (linf, l2) reference values for the approximation-vs-PDE
# comparison.  Caveats established during reproduction: the published L2
# column is about sqrt(2) larger than the trapezoid convention that exactly
# reproduces the companion tables, and several small-norm cells reflect the
# reference computation's own grid sampling and error floor rather than the
# true approximation error (see the check bands).
T3_GOLDEN = {
    (0.5, 1.0): (2.771e-7, 8.967e-8), (0.5, 0.75): (6.694e-8, 2.165e-8),
    (0.5, 0.5): (8.854e-9, 2.867e-9), (0.5, 0.25): (3.400e-10, 7.236e-11),
    (0.75, 1.0): (5.576e-8, 1.429e-8), (0.75, 0.75): (1.691e-8, 3.429e-9),
    (0.75, 0.5): (1.411e-8, 4.656e-10), (0.75, 0.25): (6.963e-9, 9.542e-11),
    (1.0, 1.0): (5.798e-9, 1.296e-9), (1.0, 0.75): (1.216e-9, 2.838e-10),
    (1.0, 0.5): (9.071e-10, 7.488e-11), (1.0, 0.25): (6.154e-10, 5.663e-11),
    (1.32, 1.0): (2.664e-9, 5.536e-10), (1.32, 0.75): (1.406e-9, 2.352e-10),
    (1.32, 0.5): (1.113e-9, 1.413e-10), (1.32, 0.25): (7.860e-10, 8.524e-11),
}

T1_NORM_RTOL = 0.02
T1_EOC_ATOL = 0.05
T2_NORM_RTOL = 0.05
T3_NORM_RTOL = 0.10


@dataclass
class Table:
    """A formatted benchmark table plus metadata.

    ``rows`` hold floats and ``None`` (missing EOC of the final maturity);
    CSV rendering is deterministic: norms as 4-significant-digit scientific
    notation, EOC with three decimals, no timestamps unless a stamp is given.
    """

    table_id: str
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)

    @staticmethod
    def _fmt(col: str, value) -> str:
        if value is None:
            return ""
        if col in ("tau", "gamma"):
            return f"{value:g}"
        if col.startswith("eoc"):
            return f"{value:.3f}"
        return f"{value:.3e}"

    def to_csv(self, path_or_buf, stamp: str | None = None) -> None:
        with _text_sink(path_or_buf) as buf:
            buf.write(f"# table: {self.table_id}\n")
            for key, val in self.meta.items():
                buf.write(f"# {key}: {val}\n")
            if stamp:
                buf.write(f"# generated: {stamp}\n")
            buf.write(",".join(self.columns) + "\n")
            for row in self.rows:
                buf.write(",".join(self._fmt(c, v) for c, v in zip(self.columns, row)) + "\n")

    def to_text(self) -> str:
        cells = [[self._fmt(c, v) or "--" for c, v in zip(self.columns, row)] for row in self.rows]
        widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(self.columns)]
        lines = ["  ".join(c.rjust(w) for c, w in zip(self.columns, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _meta_for(p: ModelParams) -> dict:
    return {"params": f"alpha={p.alpha!r} beta={p.beta!r} sigma={p.sigma!r} gamma={p.gamma!r}"}


def _norm_series(p, pair, grid, taus, kinds=("linf", "l2")):
    """One list per norm kind of the pair's error norms over the maturities;
    each difference curve is evaluated once and serves every kind."""
    series = [[] for _ in kinds]
    for tau in taus:
        diff = difference_curve(p, pair, grid, tau)
        for values, kind in zip(series, kinds):
            norm = linf_norm if kind == "linf" else l2_norm
            values.append(ErrorReport(tau, kind, norm(diff), tuple(pair)).value)
    return series


def _with_eoc(errs, taus):
    rows = eoc(errs, taus)
    return [r.eoc for r in rows] + [None]


def build_table(table_id: str, p: ModelParams = DEFAULT_PARAMS, *,
                rate_grid: RateGrid | None = None,
                taus=None,
                pde_solutions: dict | None = None,
                error_estimates: dict | None = None) -> Table:
    """Assemble one of the three benchmark tables.

    T1: L-infinity and L2 errors plus EOC of both approximations against the
        gamma = 1/2 closed form at tau in {1, 0.75, 0.5, 0.25}.
    T2: L2 errors of both approximations at tau = 1..10.
    T3: both norms of (approximation - PDE solution) for each solved gamma;
        requires ``pde_solutions`` as a mapping gamma -> PdeSolution and
        accepts ``error_estimates`` as gamma -> {(tau, kind): estimate}.
    """
    tid = table_id.upper().lstrip("T")
    grid = rate_grid or DEFAULT_NORM_GRID
    if tid == "1":
        taus = MaturityGrid(taus or T1_TAUS).taus
        p_cir = p.with_gamma(0.5)
        linf_cw, l2_cw = _norm_series(p_cir, ("cw", "cir"), grid, taus)
        linf_im, l2_im = _norm_series(p_cir, ("improved", "cir"), grid, taus)
        cols = ["tau", "linf_cw", "eoc_linf_cw", "linf_improved", "eoc_linf_improved",
                "l2_cw", "eoc_l2_cw", "l2_improved", "eoc_l2_improved"]
        eocs = [_with_eoc(e, taus) for e in (linf_cw, linf_im, l2_cw, l2_im)]
        rows = [
            [taus[i], linf_cw[i], eocs[0][i], linf_im[i], eocs[1][i],
             l2_cw[i], eocs[2][i], l2_im[i], eocs[3][i]]
            for i in range(len(taus))
        ]
        meta = _meta_for(p_cir)
        meta["norm_grid"] = f"[{grid.r_min!r}, {grid.r_max!r}] x {grid.n_points}"
        meta["comparison"] = "cw vs cir and improved vs cir (log prices)"
        return Table("T1", cols, rows, meta)
    if tid == "2":
        taus = MaturityGrid(taus or T2_TAUS).taus
        p_cir = p.with_gamma(0.5)
        (l2_cw,) = _norm_series(p_cir, ("cw", "cir"), grid, taus, ("l2",))
        (l2_im,) = _norm_series(p_cir, ("improved", "cir"), grid, taus, ("l2",))
        rows = [[taus[i], l2_cw[i], l2_im[i]] for i in range(len(taus))]
        meta = _meta_for(p_cir)
        meta["norm_grid"] = f"[{grid.r_min!r}, {grid.r_max!r}] x {grid.n_points}"
        meta["comparison"] = "L2 of cw vs cir and improved vs cir (log prices)"
        return Table("T2", ["tau", "l2_cw", "l2_improved"], rows, meta)
    if tid == "3":
        if not pde_solutions:
            raise MissingPdeSolution("table 3 needs PDE solutions (mapping gamma -> PdeSolution)")
        cols = ["gamma", "tau", "linf", "l2", "solver_est_linf", "solver_est_l2"]
        rows = []
        for g in sorted(pde_solutions):
            sol = pde_solutions[g]
            mask = sol.rates <= grid.r_max + 1e-12
            r_sub = sol.rates[mask]
            for tau in sol.taus:
                if tau == 0:
                    continue
                diff = cw_log_price(sol.params, tau, r_sub) - sol.log_price_at(tau)[mask]
                li = float(np.max(np.abs(diff)))
                l2 = float(np.sqrt(np.trapezoid(diff**2, r_sub)))
                est = (error_estimates or {}).get(g, {})
                rows.append([g, tau, li, l2, est.get((tau, "linf")), est.get((tau, "l2"))])
        cfg = next(iter(pde_solutions.values())).config
        meta = _meta_for(p)
        meta["norm_interval"] = f"[0, {grid.r_max!r}] on the solver grid"
        meta["solver_grid"] = f"n_space={cfg.n_space} n_time={cfg.n_time} r_max={cfg.r_max!r}"
        meta["comparison"] = "cw vs PDE solution (log prices)"
        meta["note"] = (
            "reference L2 values for this table are ~sqrt(2) above the trapezoid "
            "convention of tables 1-2; small-norm reference cells sit at the "
            "reference computation's own sampling/error floor"
        )
        return Table("T3", cols, rows, meta)
    raise ValidationError(f"unknown table id {table_id!r}; choose 1, 2 or 3")


def compute_table3_solutions(p: ModelParams, cfg: PdeConfig | None = None,
                             gammas=T3_GAMMAS, taus=T1_TAUS):
    """Run the PDE solves (plus half-resolution companions for a Richardson
    error estimate) feeding table 3.

    Returns (pde_solutions, error_estimates) keyed by gamma, solved in the
    order given.
    """
    cfg = cfg or PdeConfig()
    coarse_cfg = None
    if (cfg.n_space - 1) % 2 == 0 and cfg.n_time % 4 == 0 and cfg.n_space >= 7:
        coarse_cfg = replace(cfg, n_space=(cfg.n_space - 1) // 2 + 1, n_time=max(cfg.n_time // 4, 1))

    solutions, estimates = {}, {}
    for g in gammas:
        pg = p.with_gamma(g)
        sol = solutions[g] = solve(pg, cfg, taus)
        if coarse_cfg is None:
            continue
        comp = solve(pg, coarse_cfg, taus)
        est = {}
        mask_f = sol.rates <= DEFAULT_NORM_GRID.r_max + 1e-12
        mask_c = comp.rates <= DEFAULT_NORM_GRID.r_max + 1e-12
        for tau in sol.taus:
            if tau == 0:
                continue
            fine = sol.log_price_at(tau)[mask_f][::2]
            coarse = comp.log_price_at(tau)[mask_c]
            d = fine - coarse
            est[(tau, "linf")] = float(np.max(np.abs(d)) / 3.0)
            est[(tau, "l2")] = float(np.sqrt(np.trapezoid(d**2, comp.rates[mask_c])) / 3.0)
        estimates[g] = est
    return solutions, estimates


@dataclass
class CheckResult:
    """Outcome of comparing a table against its golden reference values."""

    table_id: str
    cells: list  # (label, got, want, tolerance_abs, ok)
    max_rel_deviation: float

    @property
    def ok(self) -> bool:
        return all(c[4] for c in self.cells)

    def summary(self) -> str:
        n_bad = sum(1 for c in self.cells if not c[4])
        status = "OK" if self.ok else f"{n_bad}/{len(self.cells)} cells out of tolerance"
        return (
            f"table {self.table_id} check: max deviation {self.max_rel_deviation * 100:.2f}% "
            f"of reference -> {status}"
        )


def _check_cells(cells):
    worst = 0.0
    out = []
    for label, got, want, tol in cells:
        rel = abs(got - want) / abs(want) if want != 0 else np.inf
        worst = max(worst, rel)
        out.append((label, got, want, tol, abs(got - want) <= tol))
    return out, worst


def check_table(table: Table, error_estimates: dict | None = None) -> CheckResult:
    """Compare a computed table against the golden values.

    T1: norms within 2 percent, EOC within +/-0.05.  T2: norms within
    5 percent.  T3: each norm within max(10 percent, 2 x solver error
    estimate); estimates come from the table's own columns or the
    ``error_estimates`` mapping.
    """
    cells = []
    if table.table_id == "T1":
        for i, tau in enumerate(T1_GOLDEN["taus"]):
            for col in ("linf_cw", "linf_improved", "l2_cw", "l2_improved"):
                want = T1_GOLDEN[col][i]
                got = table.column(col)[i]
                cells.append((f"{col}@tau={tau:g}", got, want, T1_NORM_RTOL * want))
        checked, worst = _check_cells(cells)
        for col in ("eoc_linf_cw", "eoc_linf_improved", "eoc_l2_cw", "eoc_l2_improved"):
            for i, want in enumerate(T1_GOLDEN[col]):
                got = table.column(col)[i]
                checked.append((f"{col}@row{i}", got, want, T1_EOC_ATOL, abs(got - want) <= T1_EOC_ATOL))
                worst = max(worst, abs(got - want) / want)
        return CheckResult("T1", checked, worst)
    if table.table_id == "T2":
        for i, tau in enumerate(T2_GOLDEN["taus"]):
            for col in ("l2_cw", "l2_improved"):
                want = T2_GOLDEN[col][i]
                got = table.column(col)[i]
                cells.append((f"{col}@tau={tau:g}", got, want, T2_NORM_RTOL * want))
        checked, worst = _check_cells(cells)
        return CheckResult("T2", checked, worst)
    if table.table_id == "T3":
        for row in table.rows:
            g, tau, li, l2, est_li, est_l2 = row
            if (g, tau) not in T3_GOLDEN:
                continue
            want_li, want_l2 = T3_GOLDEN[(g, tau)]
            ests = (error_estimates or {}).get(g, {})
            e_li = est_li if est_li is not None else ests.get((tau, "linf"), 0.0)
            e_l2 = est_l2 if est_l2 is not None else ests.get((tau, "l2"), 0.0)
            cells.append((f"linf@gamma={g:g},tau={tau:g}", li, want_li,
                          max(T3_NORM_RTOL * want_li, 2 * e_li)))
            cells.append((f"l2@gamma={g:g},tau={tau:g}", l2, want_l2,
                          max(T3_NORM_RTOL * want_l2, 2 * e_l2)))
        checked, worst = _check_cells(cells)
        return CheckResult("T3", checked, worst)
    raise ValidationError(f"no golden values for table {table.table_id!r}")
