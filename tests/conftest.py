import numpy as np
import pytest

from selflow import operators as ops
from selflow.dynamics import director_terms
from selflow.grids import Grid
from selflow.initial import constant_director, smooth_unit_director
from selflow.noise import NoiseOperatorS
from selflow.projection import leray_project


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


def cross_terms(d: np.ndarray, h: np.ndarray):
    """(d x h, (d x h) x h) as the stepper builds them: the last two terms of
    :func:`~selflow.dynamics.director_terms` on a periodic grid of d's shape."""
    *_, dxh, dxhxh = director_terms(d, h, Grid(*d.shape[-2:]), 1.0)
    return dxh, dxhxh


def triple_product_defects(d: np.ndarray, h: np.ndarray):
    """Pointwise defects of <(d x h) x h, d> = -|d x h|^2 and <d x h, d> = 0."""
    dxh, dxhxh = cross_terms(d, h)
    return ops.dot3(dxhxh, d) + ops.dot3(dxh, dxh), ops.dot3(dxh, d)


def sphere_generator_drift(d: np.ndarray, h: np.ndarray, xi2: float = 1.0) -> np.ndarray:
    """Pointwise drift of |d|^2/2 for spatially constant d with u = 0:
    <d, 0.5 xi2^2 (d x h) x h> + 0.5 xi2^2 |d x h|^2, the step's Ito drift
    paired with d plus the noise's quadratic variation.  Identically zero by
    the vector triple product."""
    dxh, dxhxh = cross_terms(d, h)
    return ops.dot3(d, 0.5 * xi2**2 * dxhxh) + 0.5 * xi2**2 * ops.dot3(dxh, dxh)


def asym_velocity(grid, amp=0.2):
    """Multi-mode velocity with no lattice parity; projected."""
    X, Y = grid.meshgrid()
    v = np.stack(
        [
            amp * (np.sin(2 * np.pi * Y + 0.3)
                   + 0.4 * np.sin(4 * np.pi * X + 1.1) * np.cos(2 * np.pi * Y)),
            amp * 0.5 * np.cos(2 * np.pi * X) * np.sin(4 * np.pi * Y + 0.2),
        ]
    )
    return leray_project(v, grid)


def asym_director(grid):
    """Multi-mode unit director with cross-phase modes."""
    X, Y = grid.meshgrid()
    v1 = 0.4 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y) + 0.25 * np.cos(
        4 * np.pi * X + 0.7)
    v2 = 0.35 * np.cos(2 * np.pi * X + 0.4) * np.sin(2 * np.pi * Y)
    nrm = np.sqrt(v1**2 + v2**2 + 1.0)
    return np.stack([v1 / nrm, v2 / nrm, 1.0 / nrm])
