"""Model parameters and shared grid/curve types.

The short rate follows the one-factor dynamics

    dr = (alpha + beta*r) dt + sigma * r**gamma dW

under the pricing measure, with alpha > 0, sigma > 0, gamma >= 0 and beta any
real (mean reversion requires beta < 0).  Rates are annualized decimals
(0.15 means 15 percent) and maturities are in years.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModelParams",
    "RateGrid",
    "MaturityGrid",
    "LogPriceCurve",
    "DEFAULT_PARAMS",
    "validate_params",
    "load_params",
    "save_params",
]


@dataclass(frozen=True)
class ModelParams:
    """CKLS parameter set (alpha, beta, sigma, gamma).

    Construction never raises; run :func:`validate_params` to enforce the
    invariants.  Instances are immutable and safe to share across threads.
    """

    alpha: float
    beta: float
    sigma: float
    gamma: float

    def with_gamma(self, gamma: float) -> "ModelParams":
        return ModelParams(self.alpha, self.beta, self.sigma, gamma)


#: Benchmark parameter set used as the zero-configuration default throughout
#: the CLI and the golden tables: alpha=0.00315, beta=-0.0555, sigma=0.0894.
DEFAULT_PARAMS = ModelParams(alpha=0.00315, beta=-0.0555, sigma=0.0894, gamma=0.5)


def validate_params(p: ModelParams) -> ModelParams:
    """Return ``p`` unchanged if all invariants hold, else raise.

    The Feller condition ``2*alpha >= sigma**2`` is not an invariant: it
    matters for positivity of the rate process, not for any formula, and the
    benchmark parameter set violates it.
    """
    for name in _KEYS:
        if not math.isfinite(getattr(p, name)):
            raise ValidationError(f"{name} must be finite, got {getattr(p, name)}")
    if not p.alpha > 0:
        raise ValidationError(f"alpha must be > 0, got {p.alpha}")
    if not p.sigma > 0:
        raise ValidationError(f"sigma must be > 0, got {p.sigma}")
    if p.gamma < 0:
        raise ValidationError(f"gamma must be >= 0, got {p.gamma}")
    return p


def _check_maturity(*taus) -> None:
    """The one maturity rule of every entry point: refuse a negative, infinite
    or NaN tau, and one that is not a real scalar (an array of one or more
    maturities, a list, a string).  A Python float that passes is never
    asked its ndim."""
    for tau in taus:
        try:  # a Python number passes on its comparison alone, anything else on its ndim too
            if (0 <= tau < math.inf) is True or (np.ndim(tau) == 0 and 0 <= tau < math.inf):
                continue
            scalar = np.ndim(tau) == 0
        except (TypeError, ValueError):  # the comparison's own refusal of a non-number
            scalar = False
        if not scalar:
            raise ValidationError(f"maturity tau must be a real scalar, got {tau!r}")
        raise ValidationError(f"maturity tau must be finite and >= 0, got {tau}")


def _check_count(name: str, n, least: int) -> None:
    """The one rule for a grid size: an integer (not a bool) of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {n!r}")


@dataclass(frozen=True)
class RateGrid:
    """Uniform grid of ``n_points`` rates on [r_min, r_max]."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if not 0 <= self.r_min < self.r_max < math.inf:
            raise ValidationError(
                f"need 0 <= r_min < r_max < inf, got [{self.r_min}, {self.r_max}]"
            )
        _check_count("n_points", self.n_points, 2)

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)


@dataclass(frozen=True)
class MaturityGrid:
    """Strictly monotone sequence of positive, finite maturities (years)."""

    taus: tuple

    def __init__(self, taus):
        taus = tuple(taus)
        _check_maturity(*taus)
        object.__setattr__(self, "taus", tuple(map(float, taus)))
        if len(self.taus) == 0:
            raise ValidationError("need at least one maturity")
        if not all(t > 0 for t in self.taus):
            raise ValidationError(f"all maturities must be > 0, got {self.taus}")
        diffs = np.diff(self.taus)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValidationError(f"maturities must be strictly monotone, got {self.taus}")

    def __iter__(self):
        return iter(self.taus)

    def __len__(self):
        return len(self.taus)


@dataclass(frozen=True)
class LogPriceCurve:
    """Log bond prices sampled over a rate grid at a fixed maturity."""

    grid: RateGrid
    tau: float
    values: np.ndarray

    def __post_init__(self):
        _check_maturity(self.tau)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n_points,):
            raise ValidationError(
                f"values shape {vals.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("curve contains non-finite values")
        if self.tau == 0 and np.any(vals != 0.0):
            raise ValidationError("at tau=0 all log prices must be exactly 0 (P(0,r)=1)")


_LINE = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*([^#]+?)\s*(?:#.*)?$")
_KEYS = ("alpha", "beta", "sigma", "gamma")


def load_params(path) -> ModelParams:
    """Read a ``key = value`` parameter file (keys alpha/beta/sigma/gamma,
    decimal notation, ``#`` comments); a key given twice is refused."""
    found = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE.match(line)
        if not m:
            raise ValidationError(f"{path}:{lineno}: cannot parse {raw!r}")
        key, val = m.group(1).lower(), m.group(2)
        if key not in _KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in found:
            raise ValidationError(f"{path}:{lineno}: key {key!r} given twice")
        try:
            found[key] = float(val)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad number {val!r}") from None
    missing = [k for k in _KEYS if k not in found]
    if missing:
        raise ValidationError(f"{path}: missing keys {missing}")
    return ModelParams(**found)


def save_params(p: ModelParams, path) -> None:
    """Write ``p`` in the flat key-value format; floats use shortest
    round-trip representation so load(save(p)) == p exactly."""
    lines = [f"{k} = {float(getattr(p, k))!r}" for k in _KEYS]
    Path(path).write_text("\n".join(lines) + "\n")


def _params_text(p: ModelParams, keys=_KEYS) -> str:
    """``alpha=... beta=...``: each of ``keys`` as a Python float's shortest
    round-trip repr (a NumPy float would print as ``np.float64(...)``)."""
    return " ".join(f"{k}={float(getattr(p, k))!r}" for k in keys)


def _write_csv(path_or_buf, meta: dict, header, rows, stamp: str | None = None) -> None:
    """Write bondkit's one CSV layout: a ``# key: value`` line per ``meta``
    item, ``# generated: <stamp>`` when a stamp is given, the header, then the
    rows, each a sequence of formatted cells.  A path is opened and closed; a
    buffer is written to and left open."""
    if isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__"):
        with open(path_or_buf, "w") as buf:
            return _write_csv(buf, meta, header, rows, stamp)
    for key, val in meta.items():
        path_or_buf.write(f"# {key}: {val}\n")
    if stamp:
        path_or_buf.write(f"# generated: {stamp}\n")
    path_or_buf.write(",".join(header) + "\n")
    for row in rows:
        path_or_buf.write(",".join(row) + "\n")
