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

The two step matrices (implicit start-up and Crank-Nicolson) are each
LU-factored once with LAPACK ``dgttrf``; every step is one ``dgttrs``
solve.  SciPy is imported by :func:`solve`, not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GammaOutOfRange, TridiagonalSingular, UnstableSolve, ValidationError
from .model import ModelParams, _text_sink, validate_params

__all__ = ["PdeConfig", "PdeSolution", "SolveDiagnostics", "BoundaryPolicy", "solve", "boundary_policy"]

_PIVOT_FLOOR = 1e-300
THETA = 0.5  # Crank-Nicolson weight of the implicit half
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
    """Solver health figures: the smallest LU pivot of the two step matrices
    and the worst residual of a probe solve with each factorization."""

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
                f"t_final={c.t_final!r} theta={THETA!r} drift=central boundary_order=2\n"
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


def _step_matrices(lo, di, up, b0, theta, dt):
    """LHS as tridiagonal (sub, main, super) diagonals with row 0 reduced to
    the band, RHS diagonals, explicit row-0 stencil and the row-reduction
    multiplier."""
    sub = -theta * dt * lo[1:]
    main = 1.0 - theta * dt * di
    sup = -theta * dt * up[:-1]
    m00 = 1.0 - theta * dt * b0[0]
    m01 = -theta * dt * b0[1]
    m02 = -theta * dt * b0[2]
    mult = m02 / sup[1]  # eliminate the P2 entry against row 1
    m00 -= mult * sub[0]
    m01 -= mult * main[1]
    main[0] = m00
    sup[0] = m01
    rl = (1.0 - theta) * dt * lo
    rd = 1.0 + (1.0 - theta) * dt * di
    ru = (1.0 - theta) * dt * up
    e0 = np.array(
        [1.0 + (1.0 - theta) * dt * b0[0], (1.0 - theta) * dt * b0[1], (1.0 - theta) * dt * b0[2]]
    )
    return (sub, main, sup), rl, rd, ru, e0, mult


def solve(p: ModelParams, cfg: PdeConfig, snapshot_taus) -> PdeSolution:
    """March P(0, .) = 1 forward and record log-price snapshots.

    ``snapshot_taus`` may be a MaturityGrid or any iterable of maturities in
    [0, t_final]; tau = 0 returns the (identically zero) initial condition.
    A requested tau that falls between time levels is linearly interpolated.
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
        lo, di, up, b0 = _spatial_operator(p, r, dr)
        mats_im = _step_matrices(lo, di, up, b0, 1.0, dt)
        mats_cn = _step_matrices(lo, di, up, b0, THETA, dt)
    if not all(np.all(np.isfinite(a)) for a in (*mats_im[0], *mats_cn[0])):
        raise UnstableSolve("non-finite time-step operator entries (parameter/grid overflow)")
    solve_im, piv_im, res_im = _factor(*mats_im[0])
    solve_cn, piv_cn, res_cn = _factor(*mats_cn[0])
    diag = SolveDiagnostics(n_steps=cfg.n_time,
                            n_rannacher_steps=min(N_IMPLICIT_START, cfg.n_time),
                            min_pivot=min(piv_im, piv_cn), max_linear_residual=max(res_im, res_cn))
    step_im = (solve_im, *mats_im[1:])
    step_cn = (solve_cn, *mats_cn[1:])

    order = np.argsort(taus)
    pending = [(taus[i], i) for i in order]
    snaps = np.zeros((len(taus), cfg.n_space))
    P = np.ones(cfg.n_space)
    while pending and pending[0][0] <= 1e-14:
        pending.pop(0)  # tau = 0 snapshot is the zero log price already stored
    for k in range(cfg.n_time):
        solve_step, rl, rd, ru, e0, mult = step_im if k < N_IMPLICIT_START else step_cn
        rhs = rd * P
        rhs[:-1] += ru[:-1] * P[1:]
        rhs[1:] += rl[1:] * P[:-1]
        rhs[0] = e0[0] * P[0] + e0[1] * P[1] + e0[2] * P[2]
        rhs[0] -= mult * rhs[1]
        P_prev = P
        P = solve_step(rhs)
        if not np.all(np.isfinite(P)):
            raise UnstableSolve(f"non-finite price after step {k + 1}")
        t_new = (k + 1) * dt
        while pending and pending[0][0] <= t_new + _TAU_MATCH:
            want, idx = pending.pop(0)
            w = (want - (t_new - dt)) / dt
            w = min(max(w, 0.0), 1.0)
            snap = (1.0 - w) * P_prev + w * P
            if np.any(snap <= 0):
                raise UnstableSolve(f"non-positive price in snapshot at tau={want}")
            snaps[idx] = np.log(snap)
    if not np.all(np.isfinite(snaps)):
        raise UnstableSolve("non-finite log price in snapshots")
    return PdeSolution(config=cfg, params=p, taus=taus, rates=r, log_prices=snaps, diagnostics=diag)
