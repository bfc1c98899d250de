import numpy as np
import pytest

from selflow.grids import Grid
from selflow.initial import constant_director, smooth_unit_director
from selflow.noise import NoiseOperatorS


@pytest.fixture
def grid32():
    return Grid(32, 32)


@pytest.fixture
def grid_bounded():
    return Grid(32, 32, bc_director="neumann")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def noise32(grid32):
    return NoiseOperatorS(grid32, n_modes=8, sigma0=0.3)


@pytest.fixture
def h_const(grid32):
    return constant_director(grid32, (0.0, 0.0, 0.5))


def fit_order(errors, hs):
    """Least-squares slope of log(error) against log(h)."""
    e = np.log(np.asarray(errors, dtype=float))
    x = np.log(np.asarray(hs, dtype=float))
    return np.polyfit(x, e, 1)[0]


def taylor_green_rate(grid: Grid, k: int, mu: float) -> float:
    """Kinetic-energy decay rate 2 mu kappa^2 of the Taylor-Green solution."""
    ax = 2.0 * np.pi * k / grid.lx
    ay = 2.0 * np.pi * k / grid.ly
    return 2.0 * mu * (ax**2 + ay**2)


def subunit_director(grid: Grid, scale: float = 0.9, amp: float = 0.4) -> np.ndarray:
    """Smooth director with |d| <= scale < 1 everywhere (maximum-principle
    fixture)."""
    return scale * smooth_unit_director(grid, amp=amp)
