"""Field wrappers, test functions, and snapshot / CSV serialization."""

import struct

import numpy as np
import pytest

from selflow import fields as fl
from selflow.grids import GridError


class TestField:
    def test_shape_validation(self, grid32):
        with pytest.raises(GridError):
            fl.Field(grid32, np.zeros((2, 16, 16)))
        with pytest.raises(GridError):
            fl.Field(grid32, np.zeros((5, 32, 32)))

    def test_ops_roundtrip(self, grid32):
        from selflow import operators as ops

        X, Y = grid32.meshgrid()
        f = fl.Field(grid32, np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y))
        g = fl.gradient(f)
        assert g.values.shape == (2, 32, 32)
        lap = fl.laplacian(f)
        # exact against the forward-link Dirichlet form, O(h^2) against the
        # central-gradient energy
        exact = fl.inner_product(lap, f) + ops.dirichlet_form_vec(f.values[None], f.values[None], grid32)
        assert abs(exact) <= 1e-10
        central = fl.inner_product(lap, f) + fl.inner_product(g, g)
        assert abs(central) <= 250 * grid32.hx**2

    def test_project_wrapper(self, grid32, rng):
        v = fl.Field(grid32, rng.standard_normal((2, 32, 32)))
        u, p = fl.project(v)
        div = fl.divergence(u)
        assert np.max(np.abs(div.values)) <= 1e-10
        assert p.values.shape == (32, 32)


class TestTestFunction:
    def test_divergence_free_enforced(self, grid32):
        X, Y = grid32.meshgrid()
        bad = fl.Field(grid32, np.stack([X * 0 + np.sin(2 * np.pi * X), Y * 0]))
        with pytest.raises(GridError):
            fl.TestFunction(bad)

    def test_bounded_checks_interior_divergence(self, grid_bounded):
        # wall rows use one-sided stencils the bounded projection does not
        # control; the interior divergence is what must vanish
        tf = fl.solenoidal_test_function(grid_bounded, 1, 1)
        wall = np.max(np.abs(fl.divergence(tf.field).values))
        assert wall > 1.0
        X, Y = grid_bounded.meshgrid()
        bad = fl.Field(grid_bounded, np.stack([np.sin(np.pi * X) * np.sin(np.pi * Y), 0 * Y]),
                       "noslip")
        with pytest.raises(GridError):
            fl.TestFunction(bad)

    def test_solenoidal_factory(self, grid32):
        tf = fl.solenoidal_test_function(grid32, 1, 2)
        div = fl.divergence(tf.field)
        assert np.max(np.abs(div.values)) <= 1e-10

    def test_director_test_function_shape(self, grid32):
        tf = fl.director_test_function(grid32, component=2)
        assert tf.field.values.shape == (3, 32, 32)


class TestSnapshot:
    def test_header_layout(self, grid32, tmp_path):
        f = fl.Field(grid32, np.arange(3 * 32 * 32, dtype=float).reshape(3, 32, 32))
        path = tmp_path / "d.fld"
        fl.write_snapshot(path, f)
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
        f = fl.Field(grid_bounded, vals, "neumann")
        path = tmp_path / "snap.fld"
        fl.write_snapshot(path, f)
        g = fl.read_snapshot(path)
        assert g.bc == "neumann"
        assert np.array_equal(g.values, vals)
        assert not g.grid.periodic

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fld"
        path.write_bytes(b"NOT-A-SNAPSHOT-!" + b"\x00" * 64)
        with pytest.raises(fl.SnapshotError):
            fl.read_snapshot(path)

    def test_truncated_rejected(self, grid32, tmp_path):
        f = fl.Field(grid32, np.zeros((32, 32)))
        path = tmp_path / "t.fld"
        fl.write_snapshot(path, f)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(fl.SnapshotError):
            fl.read_snapshot(path)


class TestCsv:
    def test_header_and_shape(self, grid32, tmp_path, rng):
        f = fl.Field(grid32, rng.standard_normal((2, 32, 32)))
        path = tmp_path / "f.csv"
        fl.write_csv(path, f)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,c0,c1"
        assert len(lines) == 1 + 32 * 32
