"""Command-line front end.

Subcommands: ``price`` (single point), ``table`` (benchmark tables 1-3 as
CSV, optionally checked against golden values), ``eoc`` (error norms and
experimental order of convergence over a maturity ladder), ``pde`` (raw PDE
solve exported as CSV).

Exit codes: 0 success, 2 ``ValidationError``/``DomainError`` (or an
unreadable file), 3 ``GammaMismatch``, 4 golden-check failure,
5 ``UnstableSolve``.  Output is deterministic: no timestamps unless
``--stamp`` is passed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import analysis
from .errors import BondkitError, GammaMismatch, UnstableSolve, ValidationError
from .model import DEFAULT_PARAMS, ModelParams, _check_maturity, _write_csv, load_params, validate_params
from .pde import PdeConfig, solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_METHOD_MISMATCH = 3
EXIT_CHECK_FAILED = 4
EXIT_UNSTABLE = 5


def _add_model_flags(sub, gamma: bool = True):
    sub.add_argument("--params", metavar="FILE", help="parameter file (key = value lines)")
    sub.add_argument("--alpha", type=float, help=f"drift intercept (default {DEFAULT_PARAMS.alpha})")
    sub.add_argument("--beta", type=float, help=f"drift slope (default {DEFAULT_PARAMS.beta})")
    sub.add_argument("--sigma", type=float, help=f"volatility scale (default {DEFAULT_PARAMS.sigma})")
    if gamma:
        sub.add_argument("--gamma", type=float, help=f"volatility exponent (default {DEFAULT_PARAMS.gamma})")


def _resolve_params(args) -> ModelParams:
    base = load_params(args.params) if args.params else DEFAULT_PARAMS
    flags = {k: getattr(args, k, None) for k in ("alpha", "beta", "sigma", "gamma")}
    return validate_params(replace(base, **{k: v for k, v in flags.items() if v is not None}))


def _add_pde_flags(sub, tfinal: bool = True):
    """The grid flags, each stored under the PdeConfig field it sets."""
    d = PdeConfig()
    sub.add_argument("--nspace", type=int, dest="n_space", metavar="NSPACE",
                     help=f"spatial nodes (default {d.n_space})")
    sub.add_argument("--ntime", type=int, dest="n_time", metavar="NTIME", help=f"time steps (default {d.n_time})")
    sub.add_argument("--rmax", type=float, dest="r_max", metavar="RMAX", help=f"domain truncation (default {d.r_max})")
    if tfinal:
        sub.add_argument("--tfinal", type=float, dest="t_final", metavar="TFINAL",
                         help=f"maturity horizon (default: largest requested tau, "
                              f"{d.t_final} if every tau is 0)")


def _grid_flags(args) -> dict:
    """The PdeConfig fields set by the grid flags given."""
    return {k: v for k in ("n_space", "n_time", "r_max", "t_final") if (v := getattr(args, k, None)) is not None}


def _refuse_grid_flags(args, what: str) -> None:
    """Refuse the grid flags given to ``what``, which solves no PDE and would
    ignore them, as ``table`` refuses ``--gamma``."""
    if given := _grid_flags(args):
        flags = ", ".join("--" + k.replace("_", "") for k in given)
        raise ValidationError(f"{what} solves no PDE, so it takes no {flags}")


def _pde_config(args, taus) -> PdeConfig:
    """The grid flags, solved to ``--tfinal`` if given, else to the largest of
    ``taus``, else (every maturity 0) to the default horizon."""
    _check_maturity(*taus)
    return PdeConfig(**{"t_final": max(taus) or PdeConfig.t_final, **_grid_flags(args)})


def _stamp(args) -> str | None:
    return datetime.now(timezone.utc).isoformat() if args.stamp else None


def _parse_taus(text: str) -> list:
    """The maturities of a comma-separated ``--taus`` value, under the maturity rule."""
    try:
        taus = [float(t) for t in text.split(",")]
        _check_maturity(*taus)
    except ValueError as exc:  # a ValidationError is a ValueError
        raise ValidationError(f"bad --taus value: {exc}") from None
    return taus


def cmd_price(args) -> int:
    p = _resolve_params(args)
    if args.method == "pde":
        cfg = _pde_config(args, [args.tau])
        if not 0 <= args.rate <= cfg.r_max:
            raise ValidationError(f"--method pde prices rates on its grid [0, {cfg.r_max}], got {args.rate}")
        sol = solve(p, cfg, [args.tau])
        lnp = float(np.interp(args.rate, sol.rates, sol.log_price_at(args.tau)))
    else:
        _refuse_grid_flags(args, f"--method {args.method}")
        # the pricer refuses a non-finite lnP; no NumPy warning joins that line
        with np.errstate(over="ignore", invalid="ignore"):
            lnp = analysis.METHODS[args.method](p, args.tau, args.rate)
    try:
        price = math.exp(lnp)
    except OverflowError:
        raise ValidationError(f"--method {args.method} at tau={args.tau!r} gives lnP={lnp!r}: "
                              "the price is out of floating-point range") from None
    print(f"lnP={lnp:.17g} P={price:.17g}")
    return EXIT_OK


def cmd_table(args) -> int:
    p = _resolve_params(args)
    if not args.out and not args.check:
        raise ValidationError("table: need --out and/or --check")
    estimates = None
    if args.table == 3:
        cfg = _pde_config(args, analysis.T1_TAUS)
        solutions, estimates = analysis.compute_table3_solutions(p, cfg)
        table = analysis.build_table("T3", p, pde_solutions=solutions, error_estimates=estimates)
    else:
        _refuse_grid_flags(args, f"table {args.table}")
        table = analysis.build_table(f"T{args.table}", p)
    if args.out:
        table.to_csv(args.out, stamp=_stamp(args))
    if args.check:
        result = analysis.check_table(table, error_estimates=estimates)
        print(result.summary())
        if not result.ok:
            for label, got, want, tol, ok in result.cells:
                if not ok:
                    print(f"  out of tolerance: {label} got {got:.4e} want {want:.4e} band {tol:.2e}")
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_eoc(args) -> int:
    p = _resolve_params(args)
    taus = _parse_taus(args.taus)
    pair = tuple(args.method_pair.split(","))
    if len(pair) != 2:
        raise ValidationError(f"--method-pair needs two comma-separated names, got {args.method_pair!r}")
    grid = analysis.DEFAULT_NORM_GRID
    norm = analysis.linf_norm if args.norm == "linf" else analysis.l2_norm
    errs = [norm(analysis.difference_curve(p, pair, grid, tau)) for tau in taus]
    eocs = [repr(row.eoc) for row in analysis.eoc(errs, taus)] + [""]
    rows = ([repr(tau), repr(err), e] for tau, err, e in zip(taus, errs, eocs))
    _write_csv(args.out or sys.stdout, {}, ["tau", "err", "eoc"], rows)
    return EXIT_OK


def cmd_pde(args) -> int:
    p = _resolve_params(args)
    taus = sorted(_parse_taus(args.taus))
    sol = solve(p, _pde_config(args, taus), taus)
    sol.to_csv(args.out, stamp=_stamp(args))
    d = sol.diagnostics
    print(
        f"solved: {d.n_steps} steps ({d.n_rannacher_steps} implicit startup), "
        f"min pivot {d.min_pivot:.3e}, max linear-solve residual {d.max_linear_residual:.3e}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bondkit",
                                 description="Zero-coupon bond pricing under one-factor "
                                             "CKLS short-rate dynamics")
    sub = ap.add_subparsers(dest="command", required=True)

    price = sub.add_parser("price", help="price a single (tau, r) point")
    _add_model_flags(price)
    price.add_argument("--method", required=True,
                       choices=(*analysis.METHODS, "pde"))
    price.add_argument("--tau", type=float, required=True, help="maturity in years")
    price.add_argument("--rate", type=float, required=True, help="short rate (decimal)")
    _add_pde_flags(price)
    price.set_defaults(fn=cmd_price)

    table = sub.add_parser(
        "table", help="generate benchmark tables 1-3",
        description="Tables 1-2 price at gamma = 1/2 and table 3 solves its own four gammas "
                    f"({', '.join(map(str, analysis.T3_GAMMAS))}) to tau = {max(analysis.T1_TAUS)}, "
                    "so table takes no --gamma and no --tfinal; a --params file's gamma is not used. "
                    "Tables 1-2 solve no PDE and take no grid flag.")
    _add_model_flags(table, gamma=False)
    table.add_argument("--table", type=int, required=True, choices=(1, 2, 3))
    table.add_argument("--out", help="CSV output path")
    table.add_argument("--check", action="store_true",
                       help="compare against embedded golden values; exit 4 on deviation")
    table.add_argument("--stamp", action="store_true", help="add a timestamp metadata line")
    _add_pde_flags(table, tfinal=False)
    table.set_defaults(fn=cmd_table)

    eoc_p = sub.add_parser("eoc", help="error norms and EOC over a maturity ladder")
    _add_model_flags(eoc_p)
    eoc_p.add_argument("--taus", default="1,0.75,0.5,0.25", help="comma-separated maturities")
    eoc_p.add_argument("--method-pair", default="cw,cir", help="two pricer names, e.g. cw,cir")
    eoc_p.add_argument("--norm", choices=("linf", "l2"), default="linf")
    eoc_p.add_argument("--out", help="CSV output path (default: stdout)")
    eoc_p.set_defaults(fn=cmd_eoc)

    pde_p = sub.add_parser("pde", help="solve the pricing PDE and export snapshots")
    _add_model_flags(pde_p)
    pde_p.add_argument("--taus", default="0.25,0.5,0.75,1", help="comma-separated snapshot maturities")
    pde_p.add_argument("--out", required=True, help="CSV output path")
    pde_p.add_argument("--stamp", action="store_true", help="add a timestamp metadata line")
    _add_pde_flags(pde_p)
    pde_p.set_defaults(fn=cmd_pde)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BondkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        codes = {GammaMismatch: EXIT_METHOD_MISMATCH, UnstableSolve: EXIT_UNSTABLE}
        return codes.get(type(exc), EXIT_VALIDATION)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
