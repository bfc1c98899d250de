"""Grid-attached fields, test functions, and snapshot / CSV serialization.

The binary snapshot layout is: a 16-byte magic block (the ASCII bytes
``SELFLOW-FLD\\0`` zero-padded to 16), little-endian uint32 {k, nx, ny},
one uint8 boundary-mode code, then k*nx*ny float64 values in row-major
order (component plane, then x row, then y).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .grids import Grid, GridError
from .projection import PROJ_TOL, interior_divergence_max, leray_project

MAGIC = b"SELFLOW-FLD\x00".ljust(16, b"\x00")

_BC_CODES = {"periodic": 0, "neumann": 1, "dirichlet": 2, "noslip": 3, "none": 4}
_BC_NAMES = {v: k for k, v in _BC_CODES.items()}


class SnapshotError(IOError):
    """Malformed field snapshot."""


@dataclass
class Field:
    """Values sampled on a grid with a boundary-condition mode.

    ``values`` has shape (nx, ny) for scalars and (k, nx, ny) for k-vectors.
    ``bc`` selects the boundary closure of the differential operators.
    """

    grid: Grid
    values: np.ndarray
    bc: str = "periodic"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.k = self.grid.check_values(self.values)
        if self.bc not in _BC_CODES:
            raise GridError(f"unknown boundary mode {self.bc!r}")

    @classmethod
    def zeros(cls, grid: Grid, k: int, bc: str) -> "Field":
        return cls(grid, np.zeros(grid.shape_of(k)), bc)

    @classmethod
    def from_function(cls, grid: Grid, fn, k: int, bc: str) -> "Field":
        """Sample fn(X, Y) -> array of shape (k, nx, ny) or (nx, ny)."""
        X, Y = grid.meshgrid()
        return cls(grid, np.asarray(fn(X, Y), dtype=float), bc)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.bc)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def _like(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values, self.bc)


def _same_grid(f: Field, g: Field) -> None:
    if f.grid is not g.grid and (f.grid.nx, f.grid.ny, f.grid.lx, f.grid.ly) != (
        g.grid.nx,
        g.grid.ny,
        g.grid.lx,
        g.grid.ly,
    ):
        raise GridError("fields live on different grids")


def gradient(f: Field) -> Field:
    """Gradient field: scalar -> (2, nx, ny), k-vector -> (k, 2, nx, ny)."""
    return Field(f.grid, ops.gradient(f.values, f.grid, f.bc), f.bc)


def divergence(f: Field) -> Field:
    if f.k != 2:
        raise GridError("divergence needs a 2-vector field")
    return Field(f.grid, ops.divergence(f.values, f.grid, f.bc), f.bc)


def laplacian(f: Field) -> Field:
    return f._like(ops.laplacian(f.values, f.grid, f.bc))


def inner_product(f: Field, g: Field) -> float:
    _same_grid(f, g)
    if f.values.shape != g.values.shape:
        raise GridError(f"shape mismatch {f.values.shape} vs {g.values.shape}")
    return ops.inner(f.values, g.values, f.grid)


def norm_l2(f: Field) -> float:
    return ops.norm_l2(f.values, f.grid)


def project(f: Field, tol: float = PROJ_TOL, method: str = "auto") -> tuple[Field, Field]:
    """Leray projection of a velocity field; returns (divergence-free u, pressure p)."""
    if f.k != 2:
        raise GridError("projection needs a 2-vector field")
    u, p = leray_project(f.values, f.grid, tol=tol, method=method)
    return f._like(u), Field(f.grid, p, "neumann" if not f.grid.periodic else "periodic")


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
    compact_support: bool = False

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
    bc = "periodic" if grid.periodic else "noslip"
    u, _ = leray_project(phi, grid)
    return TestFunction(Field(grid, u, bc), name=name or f"stream_{kx}{ky}")


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
        k, nx, ny = struct.unpack("<III", fh.read(12))
        (bc_code,) = struct.unpack("<B", fh.read(1))
        if bc_code not in _BC_NAMES:
            raise SnapshotError(f"unknown bc code {bc_code}")
        raw = fh.read(8 * k * nx * ny)
        if len(raw) != 8 * k * nx * ny:
            raise SnapshotError("truncated snapshot payload")
    vals = np.frombuffer(raw, dtype="<f8").reshape(k, nx, ny).astype(float)
    bc = _BC_NAMES[bc_code]
    periodic = bc == "periodic"
    grid = Grid(
        nx, ny, lx, ly,
        bc_velocity="periodic" if periodic else "noslip",
        bc_director="periodic" if periodic else "neumann",
    )
    return Field(grid, vals[0] if k == 1 else vals, bc)


def write_csv(path, f: Field) -> None:
    vals = f.values if f.values.ndim == 3 else f.values[None, :, :]
    k = vals.shape[0]
    X, Y = f.grid.meshgrid()
    header = "x,y," + ",".join(f"c{i}" for i in range(k))
    cols = [X.ravel(), Y.ravel()] + [vals[i].ravel() for i in range(k)]
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")
