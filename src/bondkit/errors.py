"""Exception taxonomy shared across the package: one type per way a caller
reacts, each mapped to one ``bondkit`` CLI exit code.

- ``ValidationError`` (exit 2): a parameter, grid, maturity, curve or option
  violates an invariant.
- ``DomainError`` (exit 2): a formula was evaluated where it is singular or
  undefined.
- ``GammaMismatch`` (exit 3): a method does not cover this gamma.
- ``UnstableSolve`` (exit 5): the PDE solve failed.

Validation failures subclass ``ValueError`` so callers that only know the
standard library still catch them naturally; solver failures subclass
``RuntimeError``.
"""

__all__ = ["BondkitError", "ValidationError", "DomainError", "GammaMismatch", "UnstableSolve"]


class BondkitError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(BondkitError, ValueError):
    """A model parameter, grid, maturity, curve or option violates an
    invariant."""


class DomainError(BondkitError, ValueError):
    """A coefficient function was evaluated where a negative power of r
    makes it singular or undefined."""


class GammaMismatch(ValidationError):
    """A method was asked for a gamma it does not cover: a closed form off
    its gamma, or the PDE solver at gamma >= 3/2, where uniqueness of the
    continuous problem is not guaranteed."""


class UnstableSolve(BondkitError, RuntimeError):
    """The PDE solve failed: a time-step matrix pivot fell below 1e-300, or
    a non-finite or non-positive price appeared."""
