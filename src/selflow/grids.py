"""Rectangular 2-D grids: geometry, boundary-condition modes, quadrature weights.

A grid stores one boundary closure, the director's; the velocity closure
follows from it (periodic with a periodic director, no-slip otherwise).

Array layout convention used across the package: scalar samples have shape
(nx, ny) with axis -2 the x direction and axis -1 the y direction; vector
fields stack components in front, shape (k, nx, ny).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DIRECTOR_BCS = ("periodic", "neumann", "dirichlet")

# Grid nodes per lane group.  A step's temporaries scale with lanes x nodes;
# at 16384 nodes a director-sized (3-component) temporary is about 0.4 MB,
# so the working set of a step stays near a 2 MiB L2 cache.  The bounded
# Hilbert-Schmidt norm stacks its projected modes to the same budget.
LANE_NODES = 16384

# Spacings h for which h**4 and h**-4 are normal floats: the bounded
# projection's Gram matrix holds h**-4 terms, the quadrature h**2 ones.
_H_MIN = float(np.finfo(float).tiny) ** 0.25
_H_MAX = 1.0 / _H_MIN


class GridError(ValueError):
    """Invalid grid geometry or mismatched grid/field combination."""


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid on [0, lx] x [0, ly].

    Periodic grids place nodes at i*h for i < n (no duplicated seam node,
    h = l/n); bounded grids include both endpoints (h = l/(n-1)), with a
    no-slip velocity and a ``neumann`` or ``dirichlet`` director wall.
    """

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0
    bc_director: str = "periodic"
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise GridError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            raise GridError(f"domain lengths must be positive and finite, got {self.lx!r}, {self.ly!r}")
        if self.bc_director not in DIRECTOR_BCS:
            raise GridError(f"bc_director must be one of {DIRECTOR_BCS}")
        if not (_H_MIN < self.hx < _H_MAX and _H_MIN < self.hy < _H_MAX):
            raise GridError(f"grid spacing {self.hx!r} x {self.hy!r} is outside "
                            f"({_H_MIN:.1e}, {_H_MAX:.1e})")

    @property
    def periodic(self) -> bool:
        return self.bc_director == "periodic"

    @property
    def bc_velocity(self) -> str:
        return "periodic" if self.periodic else "noslip"

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
        margin of ``margin_cells`` grid cells on every side; elementwise
        for arrays of centers."""
        mx = margin_cells * self.hx
        my = margin_cells * self.hy
        return (
            (x0 - r >= mx)
            & (x0 + r <= self.lx - mx)
            & (y0 - r >= my)
            & (y0 + r <= self.ly - my)
        )
