"""One maturity rule: every entry point that takes a maturity, library
function or CLI command, refuses a negative, NaN or infinite one, and one
that is not a real scalar, with the text of ``model._check_maturity``,
before any other check on its inputs."""

import math

import numpy as np
import pytest

from bondkit import (DEFAULT_PARAMS, LogPriceCurve, MaturityGrid, PdeConfig, RateGrid,
                     ValidationError, b_factor, cir_log_price, cir_partials, cw_log_price, cw_partials, eoc,
                     improved_log_price, pde_residual, solve, vasicek_log_price, vasicek_partials)
from bondkit.cli import main
from bondkit.model import _check_maturity

BAD = [-1.0, math.nan, math.inf]
#: Maturities that are not a real scalar: several in an array, one in an
#: array, a list and a string.
NOT_SCALAR = [np.array([1.0, 2.0]), np.array([1.0]), [1.0, 2.0], "1.0"]
GRID = RateGrid(0.0, 0.1, 3)
SMALL = PdeConfig(n_space=11, n_time=4)
VAS = DEFAULT_PARAMS.with_gamma(0.0)

#: Each entry point as a function of the maturity alone, at inputs it
#: otherwise accepts.
ENTRY_POINTS = {
    "b_factor": lambda tau: b_factor(DEFAULT_PARAMS.beta, tau),
    "cw_log_price": lambda tau: cw_log_price(DEFAULT_PARAMS, tau, 0.05),
    "improved_log_price": lambda tau: improved_log_price(DEFAULT_PARAMS, tau, 0.05),
    "cir_log_price": lambda tau: cir_log_price(DEFAULT_PARAMS, tau, 0.05),
    "vasicek_log_price": lambda tau: vasicek_log_price(VAS, tau, 0.05),
    "cw_partials": lambda tau: cw_partials(DEFAULT_PARAMS, tau, 0.05),
    "cir_partials": lambda tau: cir_partials(DEFAULT_PARAMS, tau, 0.05),
    "vasicek_partials": lambda tau: vasicek_partials(VAS, tau, 0.05),
    "MaturityGrid": lambda tau: MaturityGrid((2.0, tau)),
    "LogPriceCurve": lambda tau: LogPriceCurve(GRID, tau, np.zeros(3)),
    "eoc": lambda tau: eoc([1e-3, 1e-4], [2.0, tau]),
    "solve": lambda tau: solve(DEFAULT_PARAMS, SMALL, [tau]),
    "pde_residual": lambda tau: pde_residual(cw_partials, DEFAULT_PARAMS, tau, 0.05),
}


def rule_text(tau) -> str:
    with pytest.raises(ValidationError) as info:
        _check_maturity(tau)
    return str(info.value)


def test_rule_names_maturity_and_tau():
    for tau in BAD:
        assert rule_text(tau) == f"maturity tau must be finite and >= 0, got {tau}"
    for tau in (0.0, 1e-300, 1e308):
        _check_maturity(tau)


@pytest.mark.parametrize("tau", BAD + NOT_SCALAR, ids=repr)
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_library_entry_point(name, tau):
    with pytest.raises(ValidationError) as info:
        ENTRY_POINTS[name](tau)
    assert str(info.value) == rule_text(tau)


@pytest.mark.parametrize("tau", NOT_SCALAR, ids=repr)
def test_rule_names_a_non_scalar(tau):
    assert rule_text(tau) == f"maturity tau must be a real scalar, got {tau!r}"


@pytest.mark.parametrize("tau", [np.float64(1.0), np.array(1.0), 1], ids=repr)
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_a_numpy_scalar_or_0d_array_is_a_maturity(name, tau):
    ENTRY_POINTS[name](tau)


@pytest.mark.parametrize("fn", [cir_log_price, cir_partials, vasicek_log_price, vasicek_partials])
def test_rule_comes_before_the_gamma_guard(fn):
    with pytest.raises(ValidationError, match="maturity tau"):
        fn(DEFAULT_PARAMS.with_gamma(1.0), -1.0, 0.05)


#: Each command as a function of the maturity text; the pde ones write to
#: the path given.
COMMANDS = {
    "price-cw": lambda tau, path: ["price", "--method", "cw", f"--tau={tau}", "--rate", "0.05"],
    "price-pde": lambda tau, path: ["price", "--method", "pde", f"--tau={tau}", "--rate", "0.05",
                                    "--nspace", "11", "--ntime", "4"],
    "pde": lambda tau, path: ["pde", f"--taus={tau}", "--nspace", "11", "--ntime", "4", "--out", path],
    "eoc": lambda tau, path: ["eoc", f"--taus=2,{tau}"],
}


@pytest.mark.parametrize("tau", BAD)
@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_command_exit_2(capsys, tmp_path, name, tau):
    path = tmp_path / "x.csv"
    code = main(COMMANDS[name](repr(tau), str(path)))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and rule_text(tau) in err
    assert not path.exists()
