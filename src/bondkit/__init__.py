"""Zero-coupon bond pricing under one-factor CKLS short-rate dynamics.

Closed-form prices for the Vasicek and square-root special cases, a
closed-form small-maturity approximation valid for general volatility
exponents with explicit error-correction coefficients, a finite-volume PDE
benchmark solver, and error-norm / EOC analysis tooling with golden
reference tables.
"""

from .analysis import (
    CheckResult,
    EocRow,
    Table,
    build_table,
    check_table,
    compute_table3_solutions,
    difference_curve,
    eoc,
    evaluate_curve,
    l2_norm,
    linf_norm,
    relative_mispricing,
    yield_curve,
)
from .approximation import (
    b_factor,
    c5,
    c5_derivatives,
    c6,
    cw_log_price,
    cw_partials,
    improved_log_price,
    k4,
    k5,
    pde_residual,
    q_factor,
)
from .closed_form import cir_log_price, cir_partials, vasicek_log_price, vasicek_partials
from .errors import BondkitError, DomainError, ValidationError
from .model import (
    DEFAULT_PARAMS,
    LogPriceCurve,
    MaturityGrid,
    ModelParams,
    RateGrid,
    load_params,
    save_params,
    validate_params,
)
from .pde import PdeConfig, PdeSolution, solve

__version__ = "0.1.0"

__all__ = [
    "BondkitError", "CheckResult", "DEFAULT_PARAMS",
    "DomainError", "EocRow", "LogPriceCurve", "MaturityGrid", "ModelParams",
    "PdeConfig", "PdeSolution", "RateGrid", "Table", "ValidationError", "b_factor",
    "build_table", "c5", "c5_derivatives", "c6", "check_table",
    "cir_log_price", "cir_partials", "compute_table3_solutions", "cw_log_price",
    "cw_partials", "difference_curve", "eoc", "evaluate_curve", "improved_log_price",
    "k4", "k5", "l2_norm", "linf_norm", "load_params", "pde_residual", "q_factor",
    "relative_mispricing", "save_params", "solve", "validate_params", "vasicek_log_price",
    "vasicek_partials", "yield_curve",
]
