"""Zero-coupon bond pricing under one-factor CKLS short-rate dynamics.

Closed-form prices for the Vasicek and square-root special cases, a
closed-form small-maturity approximation valid for general volatility
exponents with explicit error-correction coefficients, a finite-volume PDE
benchmark solver, and error-norm / EOC analysis tooling with golden
reference tables.
"""

from . import analysis, approximation, closed_form, errors, model, pde
from .analysis import *  # noqa: F403
from .approximation import *  # noqa: F403
from .closed_form import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .pde import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (analysis, approximation, closed_form, errors, model, pde)
           for name in module.__all__]
