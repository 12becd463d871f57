"""Finite-volume benchmark solver for the bond pricing PDE

    -P_tau + (1/2) sigma^2 r^{2 gamma} P_rr + (alpha + beta r) P_r - r P = 0,
    P(0, r) = 1,

marched forward in maturity on a truncated uniform grid [0, r_max] by
Crank-Nicolson, with the first ``N_IMPLICIT_START`` steps fully implicit to
damp the startup of the degenerate corner.  The spatial operator uses
central flux differences for the diffusion term and central differences for
the drift.  The central drift is not monotone near r = 0 for gamma > 1/2:
where (alpha + beta r) dr / 2 exceeds the diffusion coefficient
(1/2) sigma^2 r^{2 gamma}, a row's sub-diagonal is negative.  With the
default parameters on the desk grid (4001 nodes on [0, 0.5]) that happens in
no row at gamma = 1/2, and in the first 10 (r <= 0.00125), 52 (r <= 0.0065)
and 158 (r <= 0.01975) interior rows at gamma = 0.75, 1 and 1.32.  The
truncation at r_max does not reach the rates of interest: doubling r_max
from 0.5 to 1.0 at the same dr (401 vs 801 nodes, 1000 steps to tau = 1)
leaves ln P on [0, 0.15] unchanged to the last bit at all four gammas.
gamma >= 3/2 is refused with ``GammaMismatch``: uniqueness of the
continuous problem is only guaranteed below it.

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
2I - (I - c L).  Each resolvent is LU-factored once with LAPACK ``dgttrf``.
A step then makes three passes over two preallocated buffers and allocates
nothing: it writes the right-hand side (2P for Crank-Nicolson, P for
backward Euler, with row 0 reduced), solves in place with one ``dgttrs``,
and for Crank-Nicolson forms P' = 2x - P in place as (solution of 2P) - P;
the buffers then swap roles.  A snapshot maturity between two time levels
gets one partial step of its own size, with its own factorization, through
the same step code.  A solve runs in one NumPy error context, and each
snapshot is checked once, finite and then positive, not after every step
(see :func:`solve`).  ``import bondkit`` loads no SciPy; the first
factorization loads SciPy's LAPACK extension alone, not all of
``scipy.linalg`` (see :func:`_lapack`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import GammaMismatch, UnstableSolve, ValidationError
from .model import ModelParams, _check_count, _check_maturity, _params_text, _store_floats, _write_csv, validate_params

__all__ = ["PdeConfig", "PdeSolution", "SolveDiagnostics", "solve"]

_PIVOT_FLOOR = 1e-300
N_IMPLICIT_START = 10  # fully implicit (Rannacher) start-up steps
_TAU_MATCH = 1e-12  # a snapshot maturity this close to a time level lands on it
_LOADING = threading.Lock()  # held while _lapack loads the extension


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

    def __post_init__(self):
        _store_floats(self, ("r_max", "t_final"))
        for name in ("r_max", "t_final"):
            if type(v := getattr(self, name)) is not float or not 0 < v < np.inf:
                raise ValidationError(f"{name} must be finite and > 0, got {v!r}")
        for name, least in (("n_space", 3), ("n_time", 1)):
            _check_count(name, getattr(self, name), least)


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
    diagnostics: SolveDiagnostics = field(compare=False)

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
        p, c, d = self.params, self.config, self.diagnostics
        meta = {
            "params": _params_text(p),
            "config": f"r_max={c.r_max!r} n_space={c.n_space} n_time={c.n_time} "
                      f"t_final={c.t_final!r} theta=0.5 drift=central boundary_order=2",
            "diagnostics": f"steps={d.n_steps} rannacher={d.n_rannacher_steps} "
                           f"min_pivot={d.min_pivot!r} max_linear_residual={d.max_linear_residual!r}",
        }
        header = ["r", *(f"lnP_tau{t!r}" for t in self.taus)]
        rows = ([repr(r), *map(repr, lnp)] for r, lnp in zip(self.rates.tolist(), self.log_prices.T.tolist()))
        _write_csv(path_or_buf, meta, header, rows, stamp)


def _lapack():
    """SciPy's ``linalg/_flapack`` extension, which holds ``dgttrf`` and
    ``dgttrs``, loaded alone: importing ``scipy.linalg`` costs about 280 ms
    of a ~560 ms PDE command.  Registered as ``scipy.linalg._flapack``, it is
    the one copy a later ``import scipy.linalg`` reuses, so results are
    bit-identical to ``scipy.linalg.lapack``, which is imported only when the
    extension is not found (another SciPy layout).  A found extension that
    fails to load raises.  Threads that call it first at the same time load
    the extension once: the load runs under a lock, and a thread that waited
    for it takes the loaded module.
    """
    name = "scipy.linalg._flapack"
    lapack = sys.modules.get(name)
    if lapack is not None:
        return lapack
    with _LOADING:
        lapack = sys.modules.get(name)
        if lapack is None:
            pkg = importlib.util.find_spec("scipy")
            dirs = [os.path.join(p, "linalg") for p in pkg.submodule_search_locations] if pkg else []
            spec = importlib.machinery.PathFinder.find_spec(name, dirs)
            if spec is None:
                import scipy.linalg.lapack as lapack
            else:
                lapack = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(lapack)
                sys.modules[name] = lapack
    return lapack


def _spatial_operator(p: ModelParams, r: np.ndarray, dr: float):
    """Diagonals (lo, di, up) of L (interior + r_max row) plus the 3-point
    r=0 boundary row coefficients b0 for [P0, P1, P2]."""
    lo, di, up = np.zeros(r.size), np.zeros(r.size), np.zeros(r.size)
    s2 = np.float64(p.sigma) ** 2  # inf rather than OverflowError for absurd sigma
    a = 0.5 * s2 * r[1:-1] ** (2 * p.gamma)
    v = p.alpha + p.beta * r
    lo[1:-1] = a / dr**2 - v[1:-1] / (2 * dr)
    di[1:-1] = -2.0 * a / dr**2 - r[1:-1]
    up[1:-1] = a / dr**2 + v[1:-1] / (2 * dr)
    # r_max row: ghost = 2 P_N - P_(N-1) kills the diffusion term and turns
    # the central drift difference into the backward difference
    lo[-1] = -v[-1] / dr
    di[-1] = v[-1] / dr - r[-1]
    b0 = np.array([-1.5 * p.alpha / dr, 2.0 * p.alpha / dr, -0.5 * p.alpha / dr])
    return lo, di, up, b0


def _stepper(lo, di, up, b0, h: float, implicit: bool):
    """Factor one time step of size h: backward Euler (``implicit``) or
    Crank-Nicolson, each one solve with the factored resolvent I - c L,
    whose 3-point r=0 row is reduced to the band against row 1.

    Backward Euler solves (I - h L) P' = P.  Crank-Nicolson uses c = h/2:
    its explicit half I + cL equals 2I - (I - cL), row 0 included, so
    P' = (I - cL)^{-1} (2P) - P.  Solving with 2P gives exactly twice the
    solution of P: a factor of 2 passes unrounded through the row-0
    reduction and every operation of the LU solve, short of an overflow
    that only a march already blowing up reaches.  Either way the
    right-hand side only takes the row reduction of row 0.

    The reduced resolvent, with sub-, main and super-diagonals (sub, main,
    sup), is LU-factored by LAPACK ``dgttrf``.  Returns ``(step, min_pivot,
    residual)`` with ``step = (lu, mult, scale)`` as :func:`_march` takes
    it: the factors as ``dgttrs`` takes them before its right-hand side, the
    row-0 multiplier and the right-hand side's factor (1 for backward Euler,
    2 for Crank-Nicolson); then the smallest |U_ii| and max |A x - 1| of a
    probe solve with a right-hand side of ones.
    """
    c = h if implicit else 0.5 * h
    sub, main, sup = -c * lo[1:], 1.0 - c * di, -c * up[:-1]
    mult = -c * b0[2] / sup[1]  # eliminate the P2 entry against row 1
    main[0] = 1.0 - c * b0[0] - mult * sub[0]
    sup[0] = -c * b0[1] - mult * main[1]
    if not all(np.all(np.isfinite(a)) for a in (sub, main, sup)):
        raise UnstableSolve("non-finite time-step operator entries (parameter/grid overflow)")
    lapack = _lapack()
    *lu, info = lapack.dgttrf(sub, main, sup)
    min_pivot = float(np.min(np.abs(lu[1])))
    if info > 0 or min_pivot < _PIVOT_FLOOR:
        raise UnstableSolve(f"time-step matrix pivot {min_pivot} below {_PIVOT_FLOOR}")
    x = lapack.dgttrs(*lu, np.ones(main.size), overwrite_b=True)[0]
    res = main * x - 1.0
    res[:-1] += sup * x[1:]
    res[1:] += sub * x[:-1]
    return (tuple(lu), mult, 1.0 if implicit else 2.0), min_pivot, float(np.max(np.abs(res)))


def _march(step, P: np.ndarray, out: np.ndarray, n: int):
    """Take n steps of one kind from the price P; return ``(price, spare)``.

    Each step is three passes over the grid and nothing more: the
    right-hand side ``scale * P`` written into ``out`` (row 0 reduced), one
    ``dgttrs`` solve in place, and for Crank-Nicolson the in-place update
    ``out -= P``.  Then the two buffers swap roles.  P itself is never
    written, so one step to a snapshot leaves the march's price as it was.
    """
    dgttrs = _lapack().dgttrs
    (dl, d, du, du2, ipiv), mult, scale = step
    for _ in range(n):
        np.multiply(P, scale, out)  # out as a keyword costs ~2 us more per call
        out[0] -= mult * out[1]
        out = dgttrs(dl, d, du, du2, ipiv, out, overwrite_b=True)[0]
        if scale == 2.0:
            np.subtract(out, P, out)
        P, out = out, P
    return P, out


def solve(p: ModelParams, cfg: PdeConfig, snapshot_taus) -> PdeSolution:
    """March P(0, .) = 1 forward and record log-price snapshots.

    ``snapshot_taus`` may be a MaturityGrid or any iterable of maturities in
    [0, t_final], distinct by more than ``_TAU_MATCH`` as ``log_price_at``
    needs; tau = 0 returns the (identically zero) initial condition.
    Time level k sits at k dt.  The full steps toward a maturity tau run up
    to the last level k with k dt <= tau + ``_TAU_MATCH``; their number is
    worked out once, and they run as two plain loops, the implicit start-up
    and then Crank-Nicolson.  A maturity that falls between time levels
    t_k < tau < t_(k+1) is then reached by one partial step of size
    tau - t_k from t_k, of the same kind as step k+1.  The march stops at the last snapshot, so
    ``diagnostics.n_steps`` counts the full steps taken.

    Assembly, factorizations and march run in one NumPy error context that
    lets overflow and invalid operations through as inf and NaN.  Each
    snapshot is checked once, finite and then positive, not after every
    step: a non-finite entry spreads to the whole vector within one
    tridiagonal solve and never becomes finite again, so no blow-up escapes
    the check, which reports the last full step before it.
    """
    validate_params(p)
    taus = tuple(snapshot_taus)
    _check_maturity(*taus)
    taus = tuple(map(float, taus))
    if p.gamma >= 1.5:
        raise GammaMismatch(
            f"gamma={p.gamma} >= 1.5: uniqueness of the continuous problem is not guaranteed there"
        )
    if not all(t <= cfg.t_final + _TAU_MATCH for t in taus):
        raise ValidationError(f"snapshot maturities must lie in [0, t_final]; got {taus}")
    if np.any(np.diff(sorted(taus)) <= _TAU_MATCH):
        raise ValidationError(f"snapshot maturities must be distinct, got {taus}")

    r = np.linspace(0.0, cfg.r_max, cfg.n_space)
    dt = cfg.t_final / cfg.n_time
    snaps = np.zeros((len(taus), cfg.n_space))
    # an overflow is refused by _stepper's operator test or the snapshot check
    with np.errstate(over="ignore", invalid="ignore"):
        operator = _spatial_operator(p, r, r[1] - r[0])
        step_im, piv_im, res_im = _stepper(*operator, dt, implicit=True)
        step_cn, piv_cn, res_cn = _stepper(*operator, dt, implicit=False)
        pivots, residuals = [piv_im, piv_cn], [res_im, res_cn]
        P, spare = np.ones(cfg.n_space), np.empty(cfg.n_space)
        k = 0  # full steps taken; P is the price at t_k = k dt
        for i in sorted(range(len(taus)), key=taus.__getitem__):
            tau = taus[i]
            # the last level with end dt <= tau + _TAU_MATCH; int() + 1 is never below it
            end = min(cfg.n_time, int((tau + _TAU_MATCH) / dt) + 1)
            while end > k and end * dt > tau + _TAU_MATCH:
                end -= 1
            n_implicit = max(0, min(end, N_IMPLICIT_START) - k)
            P, spare = _march(step_im, P, spare, n_implicit)
            P, spare = _march(step_cn, P, spare, end - k - n_implicit)
            k = end
            snap = P
            if tau - k * dt > _TAU_MATCH:
                partial, piv, res = _stepper(*operator, tau - k * dt, implicit=k < N_IMPLICIT_START)
                pivots.append(piv)
                residuals.append(res)
                snap = _march(partial, P, spare, 1)[0]
            if not np.isfinite(snap).all():
                raise UnstableSolve(f"non-finite price after step {k}")
            if np.any(snap <= 0):
                raise UnstableSolve(f"non-positive price in snapshot at tau={tau}")
            snaps[i] = np.log(snap)
    diag = SolveDiagnostics(n_steps=k, n_rannacher_steps=min(N_IMPLICIT_START, k),
                            min_pivot=min(pivots), max_linear_residual=max(residuals))
    return PdeSolution(config=cfg, params=p, taus=taus, rates=r, log_prices=snaps, diagnostics=diag)
