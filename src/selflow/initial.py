"""Initial data builders: velocities, directors, and synthetic fixtures."""

from __future__ import annotations

import numpy as np

from .grids import Grid
from .projection import leray_project


def zero_velocity(grid: Grid) -> np.ndarray:
    return np.zeros((2, grid.nx, grid.ny))


def taylor_green(grid: Grid, k: int = 1, amp: float = 0.1) -> np.ndarray:
    """Taylor-Green vortex, projected so the discrete divergence vanishes.

    On the torus this is an exact Navier-Stokes solution whose kinetic
    energy decays like exp(-2 mu kappa^2 t) with kappa^2 = ax^2 + ay^2.
    """
    X, Y = grid.meshgrid()
    ax = 2.0 * np.pi * k / grid.lx
    ay = 2.0 * np.pi * k / grid.ly
    v = np.stack(
        [
            amp * np.cos(ax * X) * np.sin(ay * Y),
            -amp * (ax / ay) * np.sin(ax * X) * np.cos(ay * Y),
        ]
    )
    u = leray_project(v, grid)
    return u


def constant_director(grid: Grid, vec) -> np.ndarray:
    d = np.empty((3, grid.nx, grid.ny))
    d[0], d[1], d[2] = vec
    return d


def smooth_unit_director(grid: Grid, amp: float = 0.4) -> np.ndarray:
    """Smooth unit-length director tilting away from the vertical axis.

    Periodic grids use torus-periodic modes; bounded grids use modes with
    vanishing normal derivative, compatible with the Neumann condition.
    """
    X, Y = grid.meshgrid()
    if grid.periodic:
        ax, ay = 2.0 * np.pi / grid.lx, 2.0 * np.pi / grid.ly
        v1 = amp * np.sin(ax * X) * np.sin(ay * Y)
        v2 = amp * np.cos(ax * X) * np.sin(ay * Y)
    else:
        ax, ay = np.pi / grid.lx, np.pi / grid.ly
        v1 = amp * np.cos(ax * X) * np.cos(ay * Y)
        v2 = amp * np.cos(2.0 * ax * X) * np.cos(ay * Y)
    norm = np.sqrt(v1**2 + v2**2 + 1.0)
    return np.stack([v1 / norm, v2 / norm, 1.0 / norm])


def mixed_unit_director(grid: Grid, amp: float = 0.4) -> np.ndarray:
    """Multi-mode unit director without lattice parity: cross-phase modes so
    none of the nonlinear pairings vanish by symmetry."""
    X, Y = grid.meshgrid()
    if grid.periodic:
        ax, ay = 2.0 * np.pi / grid.lx, 2.0 * np.pi / grid.ly
        v1 = amp * (np.sin(ax * X) * np.sin(ay * Y)
                    + 0.6 * np.cos(2 * ax * X + 0.7))
        v2 = amp * (np.cos(ax * X + 0.4) * np.sin(ay * Y)
                    + 0.5 * np.sin(ax * X + 2 * ay * Y + 1.1))
    else:
        ax, ay = np.pi / grid.lx, np.pi / grid.ly
        v1 = amp * (np.cos(ax * X) * np.cos(ay * Y)
                    + 0.6 * np.cos(2 * ax * X) * np.cos(3 * ay * Y))
        v2 = amp * (np.cos(2 * ax * X) * np.cos(ay * Y)
                    + 0.5 * np.cos(3 * ax * X) * np.cos(2 * ay * Y))
    norm = np.sqrt(v1**2 + v2**2 + 1.0)
    return np.stack([v1 / norm, v2 / norm, 1.0 / norm])


def vortex_director(grid: Grid, x0: float, y0: float, core: float) -> np.ndarray:
    """Degree-one director vortex with core size ``core``:
    d = (x - x0, y - y0, core) / sqrt(rho^2 + core^2), unit length, with the
    elastic energy concentrated on the core scale."""
    X, Y = grid.meshgrid()
    dx, dy = X - x0, Y - y0
    denom = np.sqrt(dx**2 + dy**2 + core**2)
    return np.stack([dx / denom, dy / denom, np.full_like(dx, core) / denom])


def smooth_test_director(grid: Grid, amps=(0.8, 0.6, 0.5)) -> np.ndarray:
    """Generic smooth non-unit director used by identity checks; every term
    of the elliptic identities is active (penalty included)."""
    X, Y = grid.meshgrid()
    if grid.periodic:
        ax, ay = 2.0 * np.pi / grid.lx, 2.0 * np.pi / grid.ly
    else:
        ax, ay = np.pi / grid.lx, np.pi / grid.ly
    return np.stack(
        [
            amps[0] * np.sin(ax * X) * np.cos(ay * Y),
            amps[1] * np.cos(ax * X) * np.sin(ay * Y),
            0.5 + amps[2] * np.sin(ax * X) * np.sin(ay * Y),
        ]
    )
