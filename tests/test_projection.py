"""Leray projection: exactness, idempotence, a conjugate-gradient oracle,
failure modes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selflow
from selflow import operators as ops
from selflow.grids import Grid
from selflow.projection import (
    ProjectionError,
    gradient_norm_sq,
    interior_divergence_max,
    leray_project,
)


def _wide_laplacian_periodic(p, grid):
    out = (np.roll(p, -2, axis=-2) - 2.0 * p + np.roll(p, 2, axis=-2)) / (4.0 * grid.hx**2)
    out += (np.roll(p, -2, axis=-1) - 2.0 * p + np.roll(p, 2, axis=-1)) / (4.0 * grid.hy**2)
    return out


def cg_project(v, grid, tol):
    """Oracle for the periodic projection of one field: the same wide-Laplacian
    pressure system solved by matrix-free conjugate gradients."""
    b = ops.divergence(v, grid, "periodic")
    b -= b.mean()
    # CG on the positive-semidefinite operator -L; the right-hand side is
    # orthogonal to the (constant + Nyquist) kernel by construction.
    p = np.zeros_like(b)
    r = -b.copy()
    z = r.copy()
    rs = np.vdot(r, r).real
    for _ in range(60 * max(grid.nx, grid.ny)):
        if np.max(np.abs(r)) <= tol:
            break
        az = -_wide_laplacian_periodic(z, grid)
        alpha = rs / np.vdot(z, az).real
        p += alpha * z
        r -= alpha * az
        rs_new = np.vdot(r, r).real
        z = r + (rs_new / rs) * z
        rs = rs_new
    else:
        raise AssertionError(f"pressure CG did not converge ({np.max(np.abs(r)):.3e})")
    return v - ops.gradient(p, grid, "periodic")


class TestPeriodic:
    def test_divergence_free_input_unchanged(self, grid32):
        X, Y = grid32.meshgrid()
        v = np.stack([np.sin(2 * np.pi * Y), np.zeros_like(Y)])
        u = leray_project(v, grid32)
        assert np.max(np.abs(u - v)) <= 1e-10

    def test_annihilates_gradients(self, grid32):
        X, Y = grid32.meshgrid()
        q = np.sin(2 * np.pi * X + 0.3) * np.cos(4 * np.pi * Y)
        u = leray_project(ops.gradient(q, grid32, "periodic"), grid32)
        assert np.max(np.abs(u)) <= 1e-12

    def test_random_divergence_below_tolerance(self, grid32, rng):
        v = rng.standard_normal((2, 32, 32))
        u = leray_project(v, grid32)
        assert np.max(np.abs(ops.divergence(u, grid32, "periodic"))) <= 1e-10

    def test_fft_and_cg_agree(self, grid32, rng):
        v = rng.standard_normal((2, 32, 32))
        u1 = leray_project(v, grid32)
        u2 = cg_project(v, grid32, tol=1e-13)
        assert np.max(np.abs(u1 - u2)) <= 1e-10

    def test_idempotent(self, grid32, rng):
        u1 = leray_project(rng.standard_normal((2, 32, 32)), grid32)
        u2 = leray_project(u1, grid32)
        assert np.max(np.abs(u2 - u1)) <= 2e-10

    def test_one_spectral_cache_entry(self, rng):
        # the projection and the Parseval norm read one per-grid table
        grid = Grid(24, 20)
        v = rng.standard_normal((2, 24, 20))
        leray_project(v, grid)
        gradient_norm_sq(v, grid)
        assert list(grid._cache) == ["spectral"]

    def test_nonfinite_rejected(self, grid32):
        v = np.zeros((2, 32, 32))
        v[0, 3, 3] = np.nan
        with pytest.raises(ValueError):
            leray_project(v, grid32)

    def test_batched_equals_lanewise(self, grid32, rng):
        v = rng.standard_normal((3, 2, 32, 32))
        ub = leray_project(v, grid32)
        for m in range(3):
            um = leray_project(v[m], grid32)
            assert np.array_equal(ub[m], um)


# even square, odd (no Nyquist column), and non-square with ly != 1
parseval_grids = pytest.mark.parametrize(
    "grid", [Grid(32, 32), Grid(33, 31), Grid(32, 48, ly=1.7)],
    ids=["32x32", "33x31", "32x48-ly1.7"])


def solenoidal_norm_sq(v, grid):
    """||P v||^2 as the full norm minus the gradient part (Parseval)."""
    return ops.pair_vec(v, v, grid) - gradient_norm_sq(v, grid)


class TestSolenoidalNormSq:
    """||P v||^2 by Parseval against the norm of the projected field."""

    @parseval_grids
    def test_matches_explicit_projection(self, grid, rng):
        v = rng.standard_normal((3, 2, grid.nx, grid.ny))
        assert np.max(np.abs(ops.divergence(v, grid, "periodic"))) > 1.0
        pv = leray_project(v, grid)
        explicit = ops.pair_vec(pv, pv, grid)
        batched = solenoidal_norm_sq(v, grid)
        assert batched.shape == (3,)
        assert np.max(np.abs(batched - explicit) / explicit) <= 1e-12
        single = solenoidal_norm_sq(v[0], grid)
        assert abs(single - explicit[0]) <= 1e-12 * explicit[0]

    @parseval_grids
    def test_gradient_field_is_all_gradient(self, grid, rng):
        X, Y = grid.meshgrid()
        phi = np.sin(2 * np.pi * X / grid.lx + 0.3) * np.cos(4 * np.pi * Y / grid.ly)
        phis = np.stack([phi, rng.standard_normal((grid.nx, grid.ny))])
        v = ops.gradient(phis, grid, "periodic")
        vals = solenoidal_norm_sq(v, grid)
        full = ops.pair_vec(v, v, grid)
        assert np.all(np.abs(vals) <= 1e-12 * full)

    def test_bounded_grid_rejected(self, grid_bounded):
        with pytest.raises(ValueError):
            gradient_norm_sq(np.zeros((2, 32, 32)), grid_bounded)


class TestBounded:
    def test_interior_divergence_below_tol(self, grid_bounded, rng):
        v = rng.standard_normal((2, 32, 32))
        u = leray_project(v, grid_bounded)
        assert interior_divergence_max(u, grid_bounded) <= 1e-10
        assert np.max(np.abs(u[:, 0, :])) == 0.0
        assert np.max(np.abs(u[:, :, -1])) == 0.0

    def test_smooth_field(self, grid_bounded):
        X, Y = grid_bounded.meshgrid()
        v = np.stack(
            [np.sin(np.pi * X) * np.sin(np.pi * Y), X * (1 - X) * Y * (1 - Y)]
        )
        u = leray_project(v, grid_bounded)
        assert interior_divergence_max(u, grid_bounded) <= 1e-10

    def test_interior_divergence_per_lane(self, grid_bounded, rng):
        # the interior slice keeps the lane axis: lane 0 carries the peak
        v = rng.standard_normal((3, 2, 32, 32))
        v[1:] *= 1e-3
        per_lane = interior_divergence_max(v, grid_bounded)
        assert per_lane.shape == (3,)
        for m in range(3):
            assert per_lane[m] == interior_divergence_max(v[m], grid_bounded)
        assert np.argmax(per_lane) == 0


bounded_grids = pytest.mark.parametrize(
    "grid",
    [Grid(32, 32, bc_velocity="noslip", bc_director="neumann"),
     Grid(24, 20, bc_velocity="noslip", bc_director="dirichlet")],
    ids=["noslip-neumann-32x32", "noslip-dirichlet-24x20"])


class _CountingLU:
    """Stands in for the cached factorization and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


class TestBoundedBatch:
    """All leading axes of a bounded field go through one pass."""

    @bounded_grids
    @pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["3", "2x3"])
    def test_batched_equals_single_lanes(self, grid, lead, rng):
        v = rng.standard_normal(lead + (2, grid.nx, grid.ny))
        v *= rng.uniform(0.1, 10.0, size=lead + (1, 1, 1))
        ub = leray_project(v, grid)
        assert ub.shape == v.shape
        for idx in np.ndindex(*lead):
            assert np.array_equal(ub[idx], leray_project(v[idx], grid))

    @bounded_grids
    def test_quiet_lane_equals_single_lanes(self, grid, rng):
        # a zero lane never refines, so every round gathers the other columns
        v = rng.standard_normal((4, 2, grid.nx, grid.ny))
        v[1] = 0.0
        ub = leray_project(v, grid)
        assert not np.any(ub[1])
        for m in range(4):
            assert np.array_equal(ub[m], leray_project(v[m], grid))

    def test_failure_carries_worst_lane(self, grid_bounded, rng):
        v = rng.standard_normal((3, 2, 32, 32))
        v[1] *= 10.0
        lone = []
        for m in range(3):
            with pytest.raises(ProjectionError) as err:
                leray_project(v[m], grid_bounded, tol=1e-30)
            lone.append(err.value.achieved)
        with pytest.raises(ProjectionError) as err:
            leray_project(v, grid_bounded, tol=1e-30)
        assert err.value.achieved == max(lone)

    def test_one_solve_per_refinement_round(self, rng):
        # a per-lane loop would make at least one solve per lane (8 here)
        grid = Grid(32, 32, bc_velocity="noslip", bc_director="neumann")
        v = rng.standard_normal((8, 2, 32, 32))
        leray_project(v[0], grid)
        A, At, lu = grid._cache["leray_bounded"]
        counting = _CountingLU(lu)
        grid._cache["leray_bounded"] = (A, At, counting)
        u = leray_project(v, grid)
        assert 1 <= counting.solves <= 4
        assert np.max(interior_divergence_max(u, grid)) <= 1e-10


def test_import_leaves_scipy_sparse_unloaded():
    # only the bounded solve needs scipy.sparse, and it imports it itself
    src = str(Path(selflow.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, selflow; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
