"""Rectangular 2-D grids: geometry, boundary-condition modes, quadrature weights.

Array layout convention used across the package: scalar samples have shape
(nx, ny) with axis -2 the x direction and axis -1 the y direction; vector
fields stack components in front, shape (k, nx, ny).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VELOCITY_BCS = ("periodic", "noslip")
DIRECTOR_BCS = ("periodic", "neumann", "dirichlet")


class GridError(ValueError):
    """Invalid grid geometry or mismatched grid/field combination."""


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid on [0, lx] x [0, ly].

    Periodic grids place nodes at i*h for i < n (no duplicated seam node,
    h = l/n); bounded grids include both endpoints (h = l/(n-1)).
    Periodic mode applies to velocity and director together or not at all.
    """

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0
    bc_velocity: str = "periodic"
    bc_director: str = "periodic"
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise GridError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise GridError("domain lengths must be positive")
        if self.bc_velocity not in VELOCITY_BCS:
            raise GridError(f"bc_velocity must be one of {VELOCITY_BCS}")
        if self.bc_director not in DIRECTOR_BCS:
            raise GridError(f"bc_director must be one of {DIRECTOR_BCS}")
        if (self.bc_velocity == "periodic") != (self.bc_director == "periodic"):
            raise GridError("periodic mode applies to both fields or neither")

    @property
    def periodic(self) -> bool:
        return self.bc_velocity == "periodic"

    @property
    def hx(self) -> float:
        return self.lx / self.nx if self.periodic else self.lx / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.ly / self.ny if self.periodic else self.ly / (self.ny - 1)

    @property
    def x(self) -> np.ndarray:
        return self.hx * np.arange(self.nx)

    @property
    def y(self) -> np.ndarray:
        return self.hy * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates X, Y, each of shape (nx, ny)."""
        return np.meshgrid(self.x, self.y, indexing="ij")

    def quad_weights(self) -> np.ndarray:
        """Quadrature weights, shape (nx, ny): rectangle rule on periodic
        grids, trapezoidal on bounded ones.  One rule everywhere so the
        discrete identities close."""
        key = "quad"
        if key not in self._cache:
            if self.periodic:
                w = np.full((self.nx, self.ny), self.hx * self.hy)
            else:
                wx = np.full(self.nx, self.hx)
                wx[0] = wx[-1] = 0.5 * self.hx
                wy = np.full(self.ny, self.hy)
                wy[0] = wy[-1] = 0.5 * self.hy
                w = np.outer(wx, wy)
            self._cache[key] = w
        return self._cache[key]

    @property
    def area(self) -> float:
        return self.lx * self.ly

    def check_values(self, values: np.ndarray) -> int:
        """Return the leading component count k of ``values`` (1 for scalars,
        first-axis length for vectors and tensors), or raise GridError."""
        if values.ndim < 2 or values.shape[-2:] != (self.nx, self.ny):
            raise GridError(
                f"field shape {values.shape} does not match grid {(self.nx, self.ny)}"
            )
        if values.ndim == 2:
            return 1
        k = values.shape[0]
        if values.ndim == 3 and k not in (1, 2, 3):
            raise GridError(f"component count must be 1, 2 or 3, got {k}")
        return k

    def contains_ball(self, x0: float, y0: float, r: float, margin_cells: int = 1) -> bool:
        """True if the closed ball B_r(x0, y0) sits inside the domain with a
        margin of ``margin_cells`` grid cells on every side."""
        mx = margin_cells * self.hx
        my = margin_cells * self.hy
        return (
            x0 - r >= mx
            and x0 + r <= self.lx - mx
            and y0 - r >= my
            and y0 + r <= self.ly - my
        )
