"""Test functions and snapshot serialization."""

import struct

import numpy as np
import pytest

from selflow import fields as fl
from selflow import operators as ops
from selflow.grids import Grid, GridError


def write_header(path, k, nx, ny, payload=b"\x00" * 64):
    """A periodic snapshot header declaring (k, nx, ny), then ``payload``."""
    path.write_bytes(fl.MAGIC + struct.pack("<IIIB", k, nx, ny, 0) + payload)


class TestField:
    def test_shape_validation(self, grid32, tmp_path):
        # the snapshot writer and test functions take values of the grid's shape
        path = tmp_path / "x.fld"
        with pytest.raises(GridError):
            fl.write_snapshot(path, grid32, np.zeros((2, 16, 16)))
        with pytest.raises(GridError):
            fl.write_snapshot(path, grid32, np.zeros((5, 32, 32)))
        with pytest.raises(GridError):
            fl.TestFunction(grid32, np.zeros((3, 16, 16)))
        assert not path.exists()

    def test_ops_roundtrip(self, grid32):
        X, Y = grid32.meshgrid()
        f = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
        g = ops.gradient(f, grid32, "periodic")
        assert g.shape == (2, 32, 32)
        lap = ops.laplacian(f, grid32, "periodic")
        # exact against the forward-link Dirichlet form, O(h^2) against the
        # central-gradient energy
        exact = ops.pair_scalar(lap, f, grid32) + ops.dirichlet_form_vec(f[None], f[None], grid32)
        assert abs(exact) <= 1e-10
        central = ops.pair_scalar(lap, f, grid32) + ops.pair_vec(g, g, grid32)
        assert abs(central) <= 250 * grid32.hx**2


class TestTestFunction:
    def test_divergence_free_enforced(self, grid32):
        X, Y = grid32.meshgrid()
        with pytest.raises(GridError):
            fl.TestFunction(grid32, np.stack([X * 0 + np.sin(2 * np.pi * X), Y * 0]))

    def test_bounded_checks_interior_divergence(self, grid_bounded):
        # wall rows use one-sided stencils the bounded projection does not
        # control; the interior divergence is what must vanish
        tf = fl.solenoidal_test_function(grid_bounded, 1, 1)
        wall = np.max(np.abs(ops.divergence(tf.values, grid_bounded, tf.bc)))
        assert wall > 1.0
        X, Y = grid_bounded.meshgrid()
        with pytest.raises(GridError):
            fl.TestFunction(grid_bounded,
                            np.stack([np.sin(np.pi * X) * np.sin(np.pi * Y), 0 * Y]))

    def test_solenoidal_factory(self, grid32):
        tf = fl.solenoidal_test_function(grid32, 1, 2)
        div = ops.divergence(tf.values, grid32, tf.bc)
        assert np.max(np.abs(div)) <= 1e-10

    def test_director_test_function_shape(self, grid32):
        tf = fl.director_test_function(grid32, component=2)
        assert tf.values.shape == (3, 32, 32)

    @pytest.mark.parametrize("bc_director, velocity_bc, director_bc", [
        ("periodic", "periodic", "periodic"),
        ("neumann", "noslip", "neumann"),
        ("dirichlet", "noslip", "neumann"),
    ])
    def test_stencil_closure_follows_the_grid(self, bc_director, velocity_bc, director_bc):
        # a director test takes Neumann stencils on a pinned wall too
        grid = Grid(16, 12, lx=1.0, ly=0.8, bc_director=bc_director)
        assert fl.solenoidal_test_function(grid).bc == velocity_bc
        assert fl.director_test_function(grid).bc == director_bc


class TestSnapshot:
    def test_header_layout(self, grid32, tmp_path):
        path = tmp_path / "d.fld"
        fl.write_snapshot(path, grid32, np.arange(3 * 32 * 32, dtype=float).reshape(3, 32, 32))
        raw = path.read_bytes()
        assert raw[:16] == b"SELFLOW-FLD\x00\x00\x00\x00\x00"
        k, nx, ny = struct.unpack("<III", raw[16:28])
        assert (k, nx, ny) == (3, 32, 32)
        (bc_code,) = struct.unpack("<B", raw[28:29])
        assert bc_code == 0  # periodic
        assert len(raw) == 29 + 8 * 3 * 32 * 32
        # row-major float64 payload
        first = struct.unpack("<d", raw[29:37])[0]
        assert first == 0.0

    def test_roundtrip(self, grid_bounded, tmp_path, rng):
        vals = rng.standard_normal((3, 32, 32))
        path = tmp_path / "snap.fld"
        fl.write_snapshot(path, grid_bounded, vals)
        grid, values = fl.read_snapshot(path)
        assert grid == grid_bounded
        assert np.array_equal(values, vals)

    def test_dirichlet_snapshot_keeps_its_closure(self, tmp_path):
        grid = Grid(16, 12, bc_director="dirichlet")
        path = tmp_path / "d.fld"
        fl.write_snapshot(path, grid, np.ones((3, 16, 12)))
        snap, _ = fl.read_snapshot(path)
        assert (snap.bc_director, snap.bc_velocity) == ("dirichlet", "noslip")
        assert snap == grid

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("bc_director", ["periodic", "neumann", "dirichlet"])
    def test_roundtrip_keeps_grid_and_closure(self, tmp_path, rng, bc_director, k):
        # the header carries the grid's closure for the field kind, so the
        # grid read back is the one written, spacing included; a velocity
        # records only its no-slip wall, so a pinned-wall grid's velocity is
        # read back onto the neumann grid of the same geometry
        grid = Grid(16, 12, lx=1.0, ly=0.8, bc_director=bc_director)
        vals = rng.standard_normal((k, 16, 12) if k > 1 else (16, 12))
        path = tmp_path / "f.fld"
        fl.write_snapshot(path, grid, vals)
        (code,) = struct.unpack("<B", path.read_bytes()[28:29])
        closure = grid.bc_velocity if k == 2 else grid.bc_director
        assert fl._BC_NAMES[code] == closure
        snap, values = fl.read_snapshot(path, lx=1.0, ly=0.8)
        read_as = "neumann" if (k, bc_director) == (2, "dirichlet") else bc_director
        assert snap == Grid(16, 12, lx=1.0, ly=0.8, bc_director=read_as)
        assert (snap.hx, snap.hy) == (grid.hx, grid.hy)
        assert values.shape == vals.shape and np.array_equal(values, vals)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fld"
        path.write_bytes(b"NOT-A-SNAPSHOT-!" + b"\x00" * 64)
        with pytest.raises(fl.SnapshotError):
            fl.read_snapshot(path)

    def test_truncated_rejected(self, grid32, tmp_path):
        path = tmp_path / "t.fld"
        fl.write_snapshot(path, grid32, np.zeros((32, 32)))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(fl.SnapshotError):
            fl.read_snapshot(path)

    # A header declaring more values than the file holds is rejected before
    # the payload is read, so these tests allocate nothing of its size.
    def test_oversized_header_rejected(self, tmp_path):
        path = tmp_path / "huge.fld"
        write_header(path, 3, 2**20, 2**20)
        with pytest.raises(fl.SnapshotError, match="truncated"):
            fl.read_snapshot(path)

    @pytest.mark.parametrize("k", [0, 4, 2**31])
    def test_component_count_checked(self, tmp_path, k):
        path = tmp_path / "k.fld"
        write_header(path, k, 8, 8)
        with pytest.raises(fl.SnapshotError, match="components"):
            fl.read_snapshot(path)

    @pytest.mark.parametrize("nx, ny", [(2, 2), (0, 8), (8, 3)])
    def test_grid_below_minimum_rejected(self, tmp_path, nx, ny):
        path = tmp_path / "g.fld"
        write_header(path, 3, nx, ny)
        with pytest.raises(fl.SnapshotError, match="below 4x4"):
            fl.read_snapshot(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "h.fld"
        write_header(path, 3, 8, 8)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(fl.SnapshotError, match="header"):
            fl.read_snapshot(path)

