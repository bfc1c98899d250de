"""Test functions and snapshot serialization.

The binary snapshot layout is: a 16-byte magic block (the ASCII bytes
``SELFLOW-FLD2\\0`` zero-padded to 16), little-endian uint32 {k, nx, ny},
one uint8 director-closure code (the index in ``grids.DIRECTOR_BCS``),
float64 {lx, ly}, then k*nx*ny float64 values in row-major order
(component plane, then x row, then y).  A snapshot records the whole grid
it was written on, so reading it back needs no geometry from the caller.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .grids import DIRECTOR_BCS, Grid, GridError
from .projection import PROJ_TOL, divergence_bound, interior_divergence_max, leray_project

MAGIC = b"SELFLOW-FLD2\x00".ljust(16, b"\x00")
_HEADER = struct.Struct("<IIIBdd")  # k, nx, ny, closure code, lx, ly


class SnapshotError(IOError):
    """Malformed field snapshot."""


@dataclass
class TestFunction:
    """Static test function for weak-form pairings.

    Velocity test functions (k = 2) must be discretely divergence-free to the
    :func:`~selflow.projection.divergence_bound` of the default tolerance,
    at every node on periodic grids and at the interior nodes on bounded
    ones (the nodes the bounded projection controls).  Director test
    functions have k = 3.
    """

    grid: Grid
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        k = self.grid.check_values(self.values)
        if k == 2:
            worst = interior_divergence_max(self.values, self.grid)
            if worst > divergence_bound(self.values, self.grid, PROJ_TOL):
                raise GridError(
                    f"velocity test function is not divergence-free (|div|_inf = {worst:.2e})"
                )
        elif k != 3:
            raise GridError("test functions are 2-vectors (velocity) or 3-vectors (director)")

    @property
    def bc(self) -> str:
        """Stencil closure: the grid's velocity closure for a velocity test; for
        a director test periodic, or Neumann on any bounded grid, a pinned
        wall included (:func:`director_test_function` builds cosine modes
        with zero normal derivative at the walls)."""
        if len(self.values) == 2:
            return self.grid.bc_velocity
        return "periodic" if self.grid.periodic else "neumann"


def solenoidal_test_function(grid: Grid, kx: int = 1, ky: int = 1, name: str = "") -> TestFunction:
    """Divergence-free velocity test function from a trigonometric stream
    function, then projected so the discrete divergence meets the tolerance."""
    X, Y = grid.meshgrid()
    ax, ay = 2.0 * np.pi * kx / grid.lx, 2.0 * np.pi * ky / grid.ly
    # phi = curl of chi = (d_y chi, -d_x chi) with chi = sin(ax x) sin(ay y)
    phi = np.stack(
        [
            ay * np.sin(ax * X) * np.cos(ay * Y),
            -ax * np.cos(ax * X) * np.sin(ay * Y),
        ]
    )
    return TestFunction(grid, leray_project(phi, grid), name or f"stream_{kx}{ky}")


def director_test_function(grid: Grid, kx: int = 1, ky: int = 1, component: int = 0,
                           name: str = "") -> TestFunction:
    X, Y = grid.meshgrid()
    ax, ay = 2.0 * np.pi * kx / grid.lx, 2.0 * np.pi * ky / grid.ly
    psi = np.zeros((3, grid.nx, grid.ny))
    psi[component] = np.cos(ax * X) * np.cos(ay * Y)
    return TestFunction(grid, psi, name or f"dir_{component}_{kx}{ky}")


def write_snapshot(path, grid: Grid, values: np.ndarray) -> None:
    """Write ``values`` sampled on ``grid``, with the grid in the header."""
    k = grid.check_values(values)
    payload = np.ascontiguousarray(values, dtype="<f8").reshape(k, grid.nx, grid.ny)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(k, grid.nx, grid.ny, DIRECTOR_BCS.index(grid.bc_director),
                              grid.lx, grid.ly))
        fh.write(payload.tobytes())


def read_snapshot(path) -> tuple[Grid, np.ndarray]:
    """Read a snapshot as (grid, values), the grid exactly as it was written.
    Values are (nx, ny) for one component and (k, nx, ny) otherwise."""
    with open(path, "rb") as fh:
        if fh.read(16) != MAGIC:
            raise SnapshotError(f"bad magic in {path}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SnapshotError("truncated snapshot header")
        k, nx, ny, code, lx, ly = _HEADER.unpack(header)
        if k not in (1, 2, 3):
            raise SnapshotError(f"snapshot holds {k} components, expected 1, 2 or 3")
        if code >= len(DIRECTOR_BCS):
            raise SnapshotError(f"unknown closure code {code}")
        try:
            grid = Grid(nx, ny, lx, ly, DIRECTOR_BCS[code])
        except GridError as exc:
            raise SnapshotError(f"snapshot grid: {exc}") from None
        # checked before reading, so a crafted header cannot force the
        # allocation of a payload the file does not hold
        size = 8 * k * nx * ny
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise SnapshotError("truncated snapshot payload")
        raw = fh.read(size)
    vals = np.frombuffer(raw, dtype="<f8").reshape(k, nx, ny).astype(float)
    return grid, vals[0] if k == 1 else vals
