"""Exception taxonomy shared across the package.

Validation failures subclass ``ValueError`` so callers that only know the
standard library still catch them naturally; solver failures subclass
``RuntimeError``.
"""


class BondkitError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(BondkitError, ValueError):
    """A model parameter, grid, or curve violates an invariant."""


class NonPositiveAlpha(ValidationError):
    """Drift intercept alpha must be strictly positive."""


class NonPositiveSigma(ValidationError):
    """Volatility scale sigma must be strictly positive."""


class NegativeGamma(ValidationError):
    """Volatility exponent gamma must be non-negative."""


class FellerViolated(ValidationError):
    """2*alpha >= sigma**2 requested (square-root model) but not satisfied."""


class GammaMismatch(ValidationError):
    """A closed form was requested for a gamma it does not cover."""


class GammaOutOfRange(ValidationError):
    """gamma >= 3/2 requested from the PDE solver; uniqueness of the
    continuous problem is only guaranteed below 3/2."""


class DomainError(BondkitError, ValueError):
    """A coefficient function was evaluated where a negative power of r
    makes it singular or undefined."""


class StepTooLarge(BondkitError, ValueError):
    """Finite-difference step exceeds a quarter of tau or r."""


class GridMismatch(ValidationError):
    """Two curves that must share a grid and maturity do not."""


class ZeroMaturity(ValidationError):
    """Yields are undefined at tau == 0."""


class NonPositiveError(ValidationError):
    """An error norm of zero or less was fed to the EOC computation; the
    two pricers agree to machine precision and no order can be estimated."""


class MissingPdeSolution(ValidationError):
    """Table 3 assembly requires at least one PDE solution."""


class UnstableSolve(BondkitError, RuntimeError):
    """A non-finite value appeared during time stepping."""


class TridiagonalSingular(BondkitError, RuntimeError):
    """A pivot of the tridiagonal time-step matrix fell below 1e-300."""
