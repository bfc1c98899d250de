"""Test functions and snapshot serialization."""

import struct

import numpy as np
import pytest

from selflow import fields as fl
from selflow import operators as ops
from selflow.grids import DIRECTOR_BCS, Grid, GridError


def write_header(path, k, nx, ny, payload=b"\x00" * 64, code=0, lx=1.0, ly=1.0):
    """A snapshot header declaring (k, nx, ny, closure code, lx, ly), then
    ``payload``; by default a periodic unit square."""
    path.write_bytes(fl.MAGIC + struct.pack("<IIIBdd", k, nx, ny, code, lx, ly) + payload)


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
    def test_header_layout(self, tmp_path):
        grid = Grid(32, 24, lx=1.2, ly=0.9, bc_director="dirichlet")
        path = tmp_path / "d.fld"
        fl.write_snapshot(path, grid, np.arange(3 * 32 * 24, dtype=float).reshape(3, 32, 24))
        raw = path.read_bytes()
        assert raw[:16] == b"SELFLOW-FLD2\x00\x00\x00\x00"
        k, nx, ny = struct.unpack("<III", raw[16:28])
        assert (k, nx, ny) == (3, 32, 24)
        (code,) = struct.unpack("<B", raw[28:29])
        assert code == 2  # DIRECTOR_BCS.index("dirichlet")
        assert struct.unpack("<dd", raw[29:45]) == (1.2, 0.9)
        assert len(raw) == 45 + 8 * 3 * 32 * 24
        # row-major float64 payload
        assert struct.unpack("<dd", raw[45:61]) == (0.0, 1.0)

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
    @pytest.mark.parametrize("bc_director", DIRECTOR_BCS)
    def test_roundtrip_keeps_grid_and_closure(self, tmp_path, rng, bc_director, k):
        # the header records the whole grid, so the grid read back is the
        # one written, lengths and director closure included, whatever the
        # field kind: a pinned-wall grid's velocity reads back as dirichlet
        grid = Grid(16, 12, lx=1.0, ly=0.8, bc_director=bc_director)
        vals = rng.standard_normal((k, 16, 12) if k > 1 else (16, 12))
        path = tmp_path / "f.fld"
        fl.write_snapshot(path, grid, vals)
        (code,) = struct.unpack("<B", path.read_bytes()[28:29])
        assert DIRECTOR_BCS[code] == bc_director
        snap, values = fl.read_snapshot(path)
        assert snap == grid
        assert (snap.hx, snap.hy) == (grid.hx, grid.hy)
        assert values.shape == vals.shape and np.array_equal(values, vals)

    @pytest.mark.parametrize("lx, ly", [(0.0, 1.0), (1.0, -0.5), (np.nan, 1.0),
                                        (1.0, np.inf), (1e300, 1.0), (1.0, 1e-300)])
    def test_bad_lengths_rejected(self, tmp_path, lx, ly):
        path = tmp_path / "l.fld"
        write_header(path, 3, 8, 8, bytes(8 * 3 * 8 * 8), lx=lx, ly=ly)
        with pytest.raises(fl.SnapshotError, match="snapshot grid"):
            fl.read_snapshot(path)

    @pytest.mark.parametrize("code", [3, 4, 255])
    def test_unknown_closure_code_rejected(self, tmp_path, code):
        path = tmp_path / "c.fld"
        write_header(path, 3, 8, 8, bytes(8 * 3 * 8 * 8), code=code)
        with pytest.raises(fl.SnapshotError, match="closure code"):
            fl.read_snapshot(path)

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
        with pytest.raises(fl.SnapshotError, match="at least 4x4"):
            fl.read_snapshot(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "h.fld"
        write_header(path, 3, 8, 8)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(fl.SnapshotError, match="header"):
            fl.read_snapshot(path)

