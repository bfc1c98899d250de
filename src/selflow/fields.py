"""Grid-attached field records, test functions, and snapshot serialization.

The binary snapshot layout is: a 16-byte magic block (the ASCII bytes
``SELFLOW-FLD\\0`` zero-padded to 16), little-endian uint32 {k, nx, ny},
one uint8 boundary-mode code, then k*nx*ny float64 values in row-major
order (component plane, then x row, then y).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridError
from .projection import PROJ_TOL, interior_divergence_max, leray_project

MAGIC = b"SELFLOW-FLD\x00".ljust(16, b"\x00")

_BC_CODES = {"periodic": 0, "neumann": 1, "dirichlet": 2, "noslip": 3, "none": 4}
_BC_NAMES = {v: k for k, v in _BC_CODES.items()}


class SnapshotError(IOError):
    """Malformed field snapshot."""


@dataclass
class Field:
    """Values sampled on a grid with a boundary-condition mode: the record
    that snapshots and test functions carry.

    ``values`` has shape (nx, ny) for scalars and (k, nx, ny) for k-vectors.
    ``bc`` names the boundary closure the values are meant for.
    """

    grid: Grid
    values: np.ndarray
    bc: str = "periodic"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.k = self.grid.check_values(self.values)
        if self.bc not in _BC_CODES:
            raise GridError(f"unknown boundary mode {self.bc!r}")


@dataclass
class TestFunction:
    """Static test function for weak-form pairings.

    Velocity test functions (k = 2) must be discretely divergence-free; this
    is checked at construction, at every node on periodic grids and at the
    interior nodes on bounded ones (the nodes the bounded projection
    controls).  Director test functions have k = 3.
    """

    field: Field
    name: str = ""

    def __post_init__(self):
        if self.field.k == 2:
            worst = interior_divergence_max(self.field.values, self.field.grid)
            if worst > 10 * PROJ_TOL:
                raise GridError(
                    f"velocity test function is not divergence-free (|div|_inf = {worst:.2e})"
                )
        elif self.field.k != 3:
            raise GridError("test functions are 2-vectors (velocity) or 3-vectors (director)")


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
    u = leray_project(phi, grid)
    return TestFunction(Field(grid, u, grid.bc_velocity), name=name or f"stream_{kx}{ky}")


def director_test_function(grid: Grid, kx: int = 1, ky: int = 1, component: int = 0,
                           name: str = "") -> TestFunction:
    X, Y = grid.meshgrid()
    ax, ay = 2.0 * np.pi * kx / grid.lx, 2.0 * np.pi * ky / grid.ly
    psi = np.zeros((3, grid.nx, grid.ny))
    psi[component] = np.cos(ax * X) * np.cos(ay * Y)
    bc = "periodic" if grid.periodic else "neumann"
    return TestFunction(Field(grid, psi, bc), name=name or f"dir_{component}_{kx}{ky}")


def write_snapshot(path, f: Field) -> None:
    vals = f.values if f.values.ndim == 3 else f.values[None, :, :]
    k = vals.shape[0]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", k, f.grid.nx, f.grid.ny))
        fh.write(struct.pack("<B", _BC_CODES[f.bc]))
        fh.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())


def read_snapshot(path, lx: float = 1.0, ly: float = 1.0) -> Field:
    """Read a snapshot; the grid is reconstructed from the header and the
    given physical lengths (the format stores only counts and bc)."""
    with open(path, "rb") as fh:
        magic = fh.read(16)
        if magic != MAGIC:
            raise SnapshotError(f"bad magic in {path}")
        header = fh.read(13)
        if len(header) != 13:
            raise SnapshotError("truncated snapshot header")
        k, nx, ny, bc_code = struct.unpack("<IIIB", header)
        if bc_code not in _BC_NAMES:
            raise SnapshotError(f"unknown bc code {bc_code}")
        if k not in (1, 2, 3):
            raise SnapshotError(f"snapshot holds {k} components, expected 1, 2 or 3")
        if nx < 4 or ny < 4:
            raise SnapshotError(f"snapshot grid {nx}x{ny} is below 4x4")
        # checked before reading, so a crafted header cannot force the
        # allocation of a payload the file does not hold
        size = 8 * k * nx * ny
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise SnapshotError("truncated snapshot payload")
        raw = fh.read(size)
    vals = np.frombuffer(raw, dtype="<f8").reshape(k, nx, ny).astype(float)
    bc = _BC_NAMES[bc_code]
    periodic = bc == "periodic"
    grid = Grid(
        nx, ny, lx, ly,
        bc_velocity="periodic" if periodic else "noslip",
        bc_director="periodic" if periodic else "neumann",
    )
    return Field(grid, vals[0] if k == 1 else vals, bc)
