"""Finite-volume benchmark solver for the bond pricing PDE

    -P_tau + (1/2) sigma^2 r^{2 gamma} P_rr + (alpha + beta r) P_r - r P = 0,
    P(0, r) = 1,

marched forward in maturity on a truncated uniform grid [0, r_max] by
Crank-Nicolson, with the first ``N_IMPLICIT_START`` steps fully implicit to
damp the startup of the degenerate corner.  The spatial operator uses
central flux differences for the diffusion term and central differences for
the drift (the drift is tiny relative to diffusion over the domains of
interest, and the mesh Peclet number stays far below the oscillation
threshold).

Boundaries
----------
r = 0   The diffusion coefficient vanishes for gamma > 0, so the PDE itself
        is imposed there: -P_tau + alpha P_r = 0 (the reaction term carries a
        factor r).  P_r uses a second-order one-sided difference in the
        upwind (inflow) direction: a three-point stencil, folded back to
        tridiagonal form by one row-reduction.  A one-point first-order
        stencil would leave an O(dr^1.4) error spike at the node that caps
        the observed convergence order.  For gamma = 0 the same policy is
        applied and documented as a modeling choice.
r_max   Zero second spatial derivative via a linear-extrapolation ghost node
        (ghost = 2 P_N - P_{N-1}); with that ghost the central drift
        difference degenerates to the one-sided backward difference.

Every step is one solve with a resolvent I - c L: c = dt for an implicit
start-up step, c = dt/2 for a Crank-Nicolson step, whose explicit half is
2I - (I - c L).  Each resolvent is LU-factored once with LAPACK ``dgttrf``
and every solve is one ``dgttrs``.  A snapshot maturity between two time
levels gets one partial step of its own size, with its own factorization.
SciPy is imported by :func:`solve`, not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GammaOutOfRange, TridiagonalSingular, UnstableSolve, ValidationError
from .model import ModelParams, _text_sink, validate_params

__all__ = ["PdeConfig", "PdeSolution", "SolveDiagnostics", "BoundaryPolicy", "solve", "boundary_policy"]

_PIVOT_FLOOR = 1e-300
N_IMPLICIT_START = 10  # fully implicit (Rannacher) start-up steps
_TAU_MATCH = 1e-12  # a snapshot maturity this close to a time level lands on it


@dataclass(frozen=True)
class PdeConfig:
    """Discretization settings for :func:`solve`.

    The defaults are the desk-scale grid: 4001 spatial nodes on [0, 0.5] and
    40000 Crank-Nicolson steps to tau = 1, giving roughly 1e-10 accuracy
    against the gamma = 1/2 closed form.
    """

    r_max: float = 0.5
    n_space: int = 4001
    n_time: int = 40000
    t_final: float = 1.0
    allow_gamma_beyond_range: bool = False

    def __post_init__(self):
        if not self.r_max > 0:
            raise ValidationError(f"r_max must be > 0, got {self.r_max}")
        if self.n_space < 3:
            raise ValidationError(f"n_space must be >= 3, got {self.n_space}")
        if self.n_time < 1:
            raise ValidationError(f"n_time must be >= 1, got {self.n_time}")
        if not self.t_final > 0:
            raise ValidationError(f"t_final must be > 0, got {self.t_final}")


@dataclass(frozen=True)
class BoundaryPolicy:
    """Human-readable description of the boundary rows actually assembled."""

    left: str
    right: str


def boundary_policy(p: ModelParams, cfg: PdeConfig) -> BoundaryPolicy:
    """Describe the boundary treatment :func:`solve` will use."""
    if p.gamma > 0:
        left = (
            f"r=0: diffusion coefficient vanishes (gamma={p.gamma} > 0); impose the PDE "
            "-P_tau + alpha P_r = 0 with an order-2 one-sided (inflow upwind) derivative"
        )
    else:
        left = (
            "r=0: gamma=0 leaves nonzero diffusion at the boundary, but the same drift-only "
            "equation -P_tau + alpha P_r = 0 (order-2 one-sided) is imposed as a "
            "modeling choice"
        )
    right = (
        f"r=r_max={cfg.r_max}: zero second spatial derivative via linear-extrapolation "
        "ghost node (ghost = 2 P_N - P_(N-1)); drift reduces to the one-sided backward difference"
    )
    return BoundaryPolicy(left=left, right=right)


@dataclass
class SolveDiagnostics:
    """Solver health figures: the full steps taken, the smallest LU pivot of
    every step matrix (start-up, Crank-Nicolson and each partial step) and
    the worst residual of a probe solve with each factorization."""

    n_steps: int
    n_rannacher_steps: int
    min_pivot: float
    max_linear_residual: float = 0.0


@dataclass(frozen=True)
class PdeSolution:
    """Log-price snapshots on the spatial grid at requested maturities."""

    config: PdeConfig
    params: ModelParams
    taus: tuple
    rates: np.ndarray
    log_prices: np.ndarray  # shape (len(taus), n_space)
    diagnostics: SolveDiagnostics = field(compare=False, default=None)

    def log_price_at(self, tau: float) -> np.ndarray:
        for i, t in enumerate(self.taus):
            if abs(t - tau) <= _TAU_MATCH:
                return self.log_prices[i]
        raise KeyError(f"no snapshot at tau={tau}; have {self.taus}")

    def to_csv(self, path_or_buf, stamp: str | None = None) -> None:
        """Write one row per spatial node: ``r, lnP_tau1, lnP_tau2, ...``.

        Metadata lines (``#``-prefixed) record the configuration and
        parameters; numbers use shortest round-trip representation.
        """
        with _text_sink(path_or_buf) as buf:
            p, c = self.params, self.config
            buf.write(f"# params: alpha={p.alpha!r} beta={p.beta!r} sigma={p.sigma!r} gamma={p.gamma!r}\n")
            buf.write(
                f"# config: r_max={c.r_max!r} n_space={c.n_space} n_time={c.n_time} "
                f"t_final={c.t_final!r} theta=0.5 drift=central boundary_order=2\n"
            )
            if self.diagnostics is not None:
                d = self.diagnostics
                buf.write(
                    f"# diagnostics: steps={d.n_steps} rannacher={d.n_rannacher_steps} "
                    f"min_pivot={d.min_pivot!r} max_linear_residual={d.max_linear_residual!r}\n"
                )
            if stamp:
                buf.write(f"# generated: {stamp}\n")
            buf.write("r," + ",".join(f"lnP_tau{t!r}" for t in self.taus) + "\n")
            for j, r in enumerate(self.rates):
                buf.write(f"{float(r)!r}," + ",".join(f"{float(v)!r}" for v in self.log_prices[:, j]) + "\n")


def _factor(dl: np.ndarray, d: np.ndarray, du: np.ndarray):
    """LU-factor the tridiagonal matrix with sub-, main and super-diagonals
    (dl, d, du) by LAPACK ``dgttrf``.

    Returns ``(solve_step, min_pivot, residual)``: a function mapping b to
    the solution of A x = b (b is overwritten), the smallest |U_ii|, and
    max |A x - 1| of a probe solve with a right-hand side of ones.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    *factors, info = dgttrf(dl, d, du)
    min_pivot = float(np.min(np.abs(factors[1])))
    if info > 0 or min_pivot < _PIVOT_FLOOR:
        raise TridiagonalSingular(f"time-step matrix pivot {min_pivot} below {_PIVOT_FLOOR}")

    def solve_step(b):
        return dgttrs(*factors, b, overwrite_b=True)[0]

    x = solve_step(np.ones(d.size))
    res = d * x - 1.0
    res[:-1] += du * x[1:]
    res[1:] += dl * x[:-1]
    return solve_step, min_pivot, float(np.max(np.abs(res)))


def _spatial_operator(p: ModelParams, r: np.ndarray, dr: float):
    """Diagonals (lo, di, up) of L (interior + r_max row) plus the 3-point
    r=0 boundary row coefficients b0 for [P0, P1, P2]."""
    n = r.size
    lo = np.zeros(n)
    di = np.zeros(n)
    up = np.zeros(n)
    s2 = np.float64(p.sigma) ** 2  # inf rather than OverflowError for absurd sigma
    a = 0.5 * s2 * r ** (2 * p.gamma) if p.gamma > 0 else np.full(n, 0.5 * s2)
    v = p.alpha + p.beta * r
    j = np.arange(1, n - 1)
    lo[j] = a[j] / dr**2 - v[j] / (2 * dr)
    di[j] = -2.0 * a[j] / dr**2 - r[j]
    up[j] = a[j] / dr**2 + v[j] / (2 * dr)
    # r_max row: ghost = 2 P_N - P_(N-1) kills the diffusion term and turns
    # the central drift difference into the backward difference
    lo[n - 1] = -v[n - 1] / dr
    di[n - 1] = v[n - 1] / dr - r[n - 1]
    b0 = np.array([-1.5 * p.alpha / dr, 2.0 * p.alpha / dr, -0.5 * p.alpha / dr])
    return lo, di, up, b0


def _resolvent(lo, di, up, b0, c):
    """Diagonals (sub, main, super) of I - c L with the 3-point r=0 row
    reduced to the band, and the multiplier of that row reduction."""
    sub = -c * lo[1:]
    main = 1.0 - c * di
    sup = -c * up[:-1]
    mult = -c * b0[2] / sup[1]  # eliminate the P2 entry against row 1
    main[0] = 1.0 - c * b0[0] - mult * sub[0]
    sup[0] = -c * b0[1] - mult * main[1]
    return (sub, main, sup), mult


def _stepper(lo, di, up, b0, h: float, implicit: bool):
    """One time step of size h: backward Euler (``implicit``) or
    Crank-Nicolson, each one solve with the factored resolvent.

    Returns ``(step, min_pivot, residual)`` with ``step(P)`` the new price
    vector.  Backward Euler solves (I - h L) P' = P.  Crank-Nicolson uses
    c = h/2: its explicit half I + cL equals 2I - (I - cL), row 0 included,
    so P' = 2 (I - cL)^{-1} P - P.  Either way the right-hand side only
    takes the row reduction of row 0.
    """
    c = h if implicit else 0.5 * h
    with np.errstate(over="ignore", invalid="ignore"):
        bands, mult = _resolvent(lo, di, up, b0, c)
    if not all(np.all(np.isfinite(a)) for a in bands):
        raise UnstableSolve("non-finite time-step operator entries (parameter/grid overflow)")
    solve_lu, min_pivot, residual = _factor(*bands)

    def step(P):
        b = P.copy()
        b[0] -= mult * b[1]
        x = solve_lu(b)
        return x if implicit else 2.0 * x - P

    return step, min_pivot, residual


def solve(p: ModelParams, cfg: PdeConfig, snapshot_taus) -> PdeSolution:
    """March P(0, .) = 1 forward and record log-price snapshots.

    ``snapshot_taus`` may be a MaturityGrid or any iterable of maturities in
    [0, t_final]; tau = 0 returns the (identically zero) initial condition.
    A maturity that falls between time levels t_k < tau < t_(k+1) is
    reached by one partial step of size tau - t_k from t_k, of the same
    kind as step k+1.  The march stops at the last snapshot, so
    ``diagnostics.n_steps`` counts the full steps taken.
    """
    validate_params(p)
    if p.gamma >= 1.5 and not cfg.allow_gamma_beyond_range:
        raise GammaOutOfRange(
            f"gamma={p.gamma} >= 1.5: uniqueness of the continuous problem is not "
            "guaranteed there; pass allow_gamma_beyond_range=True to solve anyway"
        )
    taus = tuple(float(t) for t in snapshot_taus)
    if not all(0 <= t <= cfg.t_final + _TAU_MATCH for t in taus):
        raise ValidationError(f"snapshot maturities must lie in [0, t_final]; got {taus}")

    r = np.linspace(0.0, cfg.r_max, cfg.n_space)
    dr = r[1] - r[0]
    dt = cfg.t_final / cfg.n_time
    with np.errstate(over="ignore", invalid="ignore"):
        operator = _spatial_operator(p, r, dr)
    step_im, piv_im, res_im = _stepper(*operator, dt, implicit=True)
    step_cn, piv_cn, res_cn = _stepper(*operator, dt, implicit=False)
    pivots, residuals = [piv_im, piv_cn], [res_im, res_cn]

    snaps = np.zeros((len(taus), cfg.n_space))
    P = np.ones(cfg.n_space)
    k = 0  # full steps taken; P is the price at t_k = k dt
    for i in sorted(range(len(taus)), key=taus.__getitem__):
        tau = taus[i]
        while k < cfg.n_time and (k + 1) * dt <= tau + _TAU_MATCH:
            P = (step_im if k < N_IMPLICIT_START else step_cn)(P)
            k += 1
            if not np.all(np.isfinite(P)):
                raise UnstableSolve(f"non-finite price after step {k}")
        snap = P
        if tau - k * dt > _TAU_MATCH:
            partial, piv, res = _stepper(*operator, tau - k * dt, implicit=k < N_IMPLICIT_START)
            pivots.append(piv)
            residuals.append(res)
            snap = partial(P)
        if np.any(snap <= 0):
            raise UnstableSolve(f"non-positive price in snapshot at tau={tau}")
        snaps[i] = np.log(snap)
    if not np.all(np.isfinite(snaps)):
        raise UnstableSolve("non-finite log price in snapshots")
    diag = SolveDiagnostics(n_steps=k, n_rannacher_steps=min(N_IMPLICIT_START, k),
                            min_pivot=min(pivots), max_linear_residual=max(residuals))
    return PdeSolution(config=cfg, params=p, taus=taus, rates=r, log_prices=snaps, diagnostics=diag)
