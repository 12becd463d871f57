"""Command-line front end.

Subcommands: ``price`` (single point), ``table`` (benchmark tables 1-3 as
CSV, optionally checked against golden values), ``eoc`` (error norms and
experimental order of convergence over a maturity ladder), ``pde`` (raw PDE
solve exported as CSV).

Exit codes: 0 success, 2 validation error, 3 method/gamma mismatch,
4 golden-check failure, 5 unstable solve.  Output is deterministic: no
timestamps unless ``--stamp`` is passed.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import analysis
from .errors import (
    BondkitError,
    GammaMismatch,
    GammaOutOfRange,
    UnstableSolve,
    ValidationError,
)
from .model import DEFAULT_PARAMS, MaturityGrid, ModelParams, load_params, validate_params
from .pde import PdeConfig, solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_METHOD_MISMATCH = 3
EXIT_CHECK_FAILED = 4
EXIT_UNSTABLE = 5


def _add_model_flags(sub):
    sub.add_argument("--params", metavar="FILE", help="parameter file (key = value lines)")
    sub.add_argument("--alpha", type=float, help=f"drift intercept (default {DEFAULT_PARAMS.alpha})")
    sub.add_argument("--beta", type=float, help=f"drift slope (default {DEFAULT_PARAMS.beta})")
    sub.add_argument("--sigma", type=float, help=f"volatility scale (default {DEFAULT_PARAMS.sigma})")
    sub.add_argument("--gamma", type=float, help=f"volatility exponent (default {DEFAULT_PARAMS.gamma})")
    sub.add_argument("--feller-check", action="store_true",
                     help="also require 2*alpha >= sigma^2 (off by default; the "
                          "benchmark parameter set violates it)")


def _resolve_params(args) -> ModelParams:
    base = load_params(args.params) if args.params else DEFAULT_PARAMS
    p = ModelParams(
        alpha=base.alpha if args.alpha is None else args.alpha,
        beta=base.beta if args.beta is None else args.beta,
        sigma=base.sigma if args.sigma is None else args.sigma,
        gamma=base.gamma if args.gamma is None else args.gamma,
    )
    return validate_params(p, requires_cir_condition=args.feller_check)


def _add_pde_flags(sub):
    d = PdeConfig()
    sub.add_argument("--nspace", type=int, default=d.n_space, help=f"spatial nodes (default {d.n_space})")
    sub.add_argument("--ntime", type=int, default=d.n_time, help=f"time steps (default {d.n_time})")
    sub.add_argument("--rmax", type=float, default=d.r_max, help=f"domain truncation (default {d.r_max})")
    sub.add_argument("--tfinal", type=float, default=None,
                     help="maturity horizon (default: largest requested tau)")
    sub.add_argument("--force-gamma", action="store_true",
                     help="allow gamma >= 1.5 despite the uniqueness caveat")


def _pde_config(args, t_final: float) -> PdeConfig:
    return PdeConfig(
        r_max=args.rmax, n_space=args.nspace, n_time=args.ntime, t_final=t_final,
        allow_gamma_beyond_range=args.force_gamma,
    )


def _stamp(args) -> str | None:
    if getattr(args, "stamp", False):
        return datetime.now(timezone.utc).isoformat()
    return None


def _parse_taus(text: str) -> list:
    """The finite maturities of a comma-separated ``--taus`` value."""
    try:
        taus = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad --taus value: {exc}") from None
    if not all(math.isfinite(t) for t in taus):
        raise ValidationError(f"--taus must be finite, got {text!r}")
    return taus


def cmd_price(args) -> int:
    p = _resolve_params(args)
    if not 0 <= args.tau < math.inf:
        raise ValidationError(f"tau must be finite and >= 0, got {args.tau}")
    if not math.isfinite(args.rate):
        raise ValidationError(f"rate must be finite, got {args.rate}")
    if args.method == "pde":
        if args.tau == 0:
            lnp = 0.0
        else:
            t_final = args.tfinal if args.tfinal is not None else args.tau
            sol = solve(p, _pde_config(args, t_final), [args.tau])
            lnp = float(np.interp(args.rate, sol.rates, sol.log_price_at(args.tau)))
    elif args.method in analysis.METHODS:
        lnp = analysis.METHODS[args.method](p, args.tau, args.rate)
    else:  # pragma: no cover - argparse choices guard this
        raise ValidationError(f"unknown method {args.method!r}")
    print(f"lnP={lnp:.17g} P={math.exp(lnp):.17g}")
    return EXIT_OK


def cmd_table(args) -> int:
    p = _resolve_params(args)
    if not args.out and not args.check:
        raise ValidationError("table: need --out and/or --check")
    estimates = None
    if args.table == 3:
        taus = analysis.T1_TAUS
        cfg = _pde_config(args, max(taus))
        solutions, estimates = analysis.compute_table3_solutions(p, cfg)
        table = analysis.build_table("T3", p, pde_solutions=solutions, error_estimates=estimates)
    else:
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
    taus = MaturityGrid(_parse_taus(args.taus))
    if len(taus) < 2:
        raise ValidationError("eoc needs at least two maturities")
    pair = tuple(args.method_pair.split(","))
    if len(pair) != 2:
        raise ValidationError(f"--method-pair needs two comma-separated names, got {args.method_pair!r}")
    grid = analysis.DEFAULT_NORM_GRID
    norm = analysis.linf_norm if args.norm == "linf" else analysis.l2_norm
    errs = [norm(analysis.difference_curve(p, pair, grid, tau)) for tau in taus]
    rows = analysis.eoc(errs, taus)
    lines = ["tau,err,eoc"]
    for i, tau in enumerate(taus):
        e = f"{rows[i].eoc!r}" if i < len(rows) else ""
        lines.append(f"{tau!r},{errs[i]!r},{e}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_pde(args) -> int:
    p = _resolve_params(args)
    taus = sorted(_parse_taus(args.taus))
    if any(t < 0 for t in taus):
        raise ValidationError("snapshot maturities must be >= 0")
    t_final = args.tfinal if args.tfinal is not None else max(taus)
    sol = solve(p, _pde_config(args, t_final), taus)
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
                       choices=("cw", "improved", "cir", "vasicek", "pde"))
    price.add_argument("--tau", type=float, required=True, help="maturity in years")
    price.add_argument("--rate", type=float, required=True, help="short rate (decimal)")
    _add_pde_flags(price)
    price.set_defaults(fn=cmd_price)

    table = sub.add_parser("table", help="generate benchmark tables 1-3")
    _add_model_flags(table)
    table.add_argument("--table", type=int, required=True, choices=(1, 2, 3))
    table.add_argument("--out", help="CSV output path")
    table.add_argument("--check", action="store_true",
                       help="compare against embedded golden values; exit 4 on deviation")
    table.add_argument("--stamp", action="store_true", help="add a timestamp metadata line")
    _add_pde_flags(table)
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
    except (GammaMismatch, GammaOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METHOD_MISMATCH
    except UnstableSolve as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (ValidationError, BondkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
