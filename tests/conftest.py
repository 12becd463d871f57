import numpy as np
import pytest

from bondkit import DEFAULT_PARAMS, PdeConfig, compute_table3_solutions


@pytest.fixture(scope="session")
def params():
    """Benchmark parameter set (gamma = 1/2)."""
    return DEFAULT_PARAMS


@pytest.fixture(scope="session")
def vas_params():
    return DEFAULT_PARAMS.with_gamma(0.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture(scope="session")
def desk_pde():
    """Desk-scale PDE solutions for all four table-3 gammas, with Richardson
    error estimates.  Takes ~8 s on two CPUs (~13 s on one); shared across
    the whole session."""
    import time

    t0 = time.perf_counter()
    solutions, estimates = compute_table3_solutions(DEFAULT_PARAMS, PdeConfig())
    elapsed = time.perf_counter() - t0
    return solutions, estimates, elapsed
