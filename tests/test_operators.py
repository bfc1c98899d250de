"""Stencil exactness, quadrature, and the discrete identities the energy
budget relies on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selflow import operators as ops
from selflow.grids import Grid, GridError
from conftest import fit_order


class TestGradient:
    def test_constant_field(self, grid32):
        g = ops.gradient(np.full((32, 32), 3.7), grid32, "periodic")
        assert np.max(np.abs(g)) == 0.0

    def test_linear_exact_interior(self):
        grid = Grid(16, 16, bc_director="neumann")
        X, Y = grid.meshgrid()
        f = 2.0 * X + 3.0 * Y
        g = ops.gradient(f, grid, "noslip")
        assert np.allclose(g[0], 2.0, atol=1e-12)
        assert np.allclose(g[1], 3.0, atol=1e-12)

    def test_sine_refinement_factor_four(self):
        errs, hs = [], []
        for n in (32, 64, 128):
            grid = Grid(n, n)
            X, _ = grid.meshgrid()
            f = np.sin(2 * np.pi * X / grid.lx)
            exact = (2 * np.pi / grid.lx) * np.cos(2 * np.pi * X / grid.lx)
            g = ops.gradient(f, grid, "periodic")
            errs.append(np.max(np.abs(g[0] - exact)))
            hs.append(grid.hx)
        # error drops by ~4x per halving
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5

    def test_neumann_edges_have_zero_normal_derivative(self, grid_bounded):
        X, Y = grid_bounded.meshgrid()
        f = np.cos(np.pi * X) * np.cos(np.pi * Y) + 0.2
        g = ops.gradient(f, grid_bounded, "neumann")
        assert np.max(np.abs(g[0][0, :])) == 0.0
        assert np.max(np.abs(g[0][-1, :])) == 0.0

    def test_shape_mismatch_raises(self, grid32):
        with pytest.raises(GridError):
            ops.divergence(np.zeros((2, 16, 16)), grid32, "periodic")


class TestDivergence:
    def test_constant(self, grid32):
        v = np.stack([np.full((32, 32), 1.0), np.full((32, 32), -2.0)])
        assert np.max(np.abs(ops.divergence(v, grid32, "periodic"))) == 0.0

    def test_linear_exact(self):
        grid = Grid(16, 16, bc_director="neumann")
        X, Y = grid.meshgrid()
        v = np.stack([X, -Y])
        div = ops.divergence(v, grid, "noslip")
        assert np.max(np.abs(div)) < 1e-12

    def test_orthogonal_sines_cancel(self, grid32):
        X, Y = grid32.meshgrid()
        v = np.stack([np.sin(2 * np.pi * Y), np.sin(2 * np.pi * X)])
        div = ops.divergence(v, grid32, "periodic")
        assert np.max(np.abs(div)) <= 1e-12


class TestLaplacian:
    def test_constant(self, grid32):
        lap = ops.laplacian(np.full((32, 32), 5.0), grid32, "periodic")
        assert np.max(np.abs(lap)) == 0.0

    def test_quadratic_exact_interior(self):
        grid = Grid(16, 16, bc_director="neumann")
        X, _ = grid.meshgrid()
        lap = ops.laplacian(X**2, grid, "noslip")
        assert np.allclose(lap[1:-1, 1:-1], 2.0, atol=1e-10)

    def test_sine_second_order(self):
        errs, hs = [], []
        for n in (32, 64, 128):
            grid = Grid(n, n)
            X, _ = grid.meshgrid()
            k = 2 * np.pi / grid.lx
            f = np.sin(k * X)
            lap = ops.laplacian(f, grid, "periodic")
            errs.append(np.max(np.abs(lap + k**2 * f)))
            hs.append(grid.hx)
        assert fit_order(errs, hs) > 1.9


class TestQuadrature:
    def test_norm_positive_definite(self, grid32, rng):
        f = rng.standard_normal((32, 32))
        assert ops.pair_scalar(f, f, grid32) >= 0
        assert ops.pair_scalar(np.zeros((32, 32)), np.zeros((32, 32)), grid32) == 0.0

    def test_unit_constant(self, grid32):
        one = np.ones((32, 32))
        assert abs(ops.pair_scalar(one, one, grid32) - 1.0) <= 1e-12

    def test_unit_constant_trapezoid(self, grid_bounded):
        one = np.ones((32, 32))
        assert abs(ops.pair_scalar(one, one, grid_bounded) - 1.0) <= 1e-12

    def test_sine_norm_half(self):
        for n in (32, 64):
            grid = Grid(n, n)
            X, _ = grid.meshgrid()
            f = np.sin(2 * np.pi * X)
            err = abs(ops.pair_scalar(f, f, grid) - 0.5)
            assert err <= 1e-12  # rectangle rule is exact for this mode


class TestDiscreteIdentities:
    def test_integration_by_parts_periodic(self, grid32, rng):
        f = rng.standard_normal((32, 32))
        g = rng.standard_normal((2, 32, 32))
        lhs = sum(
            ops.pair_scalar(ops.gradient(f, grid32, "periodic")[j], g[j], grid32)
            for j in range(2)
        )
        rhs = -ops.pair_scalar(f, ops.divergence(g, grid32, "periodic"), grid32)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_integration_by_parts_bounded_smooth(self, grid_bounded):
        X, Y = grid_bounded.meshgrid()
        f = np.sin(np.pi * X) * np.sin(np.pi * Y)
        g = np.stack([X * (1 - X) * Y * (1 - Y), (X * (1 - X) * Y * (1 - Y)) ** 2])
        lhs = sum(
            ops.pair_scalar(ops.gradient(f, grid_bounded, "noslip")[j], g[j], grid_bounded)
            for j in range(2)
        )
        rhs = -ops.pair_scalar(f, ops.divergence(g, grid_bounded, "noslip"), grid_bounded)
        assert abs(lhs - rhs) <= 50 * grid_bounded.hx**2

    def test_laplacian_symmetry(self, grid32, rng):
        f = rng.standard_normal((32, 32))
        g = rng.standard_normal((32, 32))
        lhs = ops.pair_scalar(ops.laplacian(f, grid32, "periodic"), g, grid32)
        rhs = ops.pair_scalar(f, ops.laplacian(g, grid32, "periodic"), grid32)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    @pytest.mark.parametrize("mode", ["periodic", "neumann", "zero-boundary"])
    def test_dirichlet_form_matches_laplacian(self, rng, mode):
        if mode == "periodic":
            grid, bc = Grid(24, 20), "periodic"
            f = rng.standard_normal((24, 20))
            g = rng.standard_normal((24, 20))
        else:
            grid = Grid(24, 20, bc_director="neumann")
            f = rng.standard_normal((24, 20))
            g = rng.standard_normal((24, 20))
            if mode == "zero-boundary":
                bc = "noslip"
                for a in (f, g):
                    a[0, :] = a[-1, :] = a[:, 0] = a[:, -1] = 0.0
            else:
                bc = "neumann"
        lhs = ops.pair_scalar(ops.laplacian(f, grid, bc), g, grid)
        rhs = -ops.dirichlet_form_vec(f[None], g[None], grid)
        assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(["periodic", "neumann", "zero-boundary"]),
           nx=st.integers(6, 33), ny=st.integers(6, 33), lx=st.floats(0.5, 2.0),
           k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_dirichlet_form_matches_laplacian_on_smooth_fields(self, mode, nx, ny, lx, k, seed):
        # the contract the step-by-step budget rests on, for random
        # low-mode (k, nx, ny) fields; modes are periodic on the torus and
        # sines that vanish on the walls otherwise, with the wall nodes set
        # to exactly 0 in zero-boundary mode
        rng = np.random.default_rng(seed)
        if mode == "periodic":
            grid, bc = Grid(nx, ny, lx=lx), "periodic"
        else:
            grid = Grid(nx, ny, lx=lx, bc_director="neumann")
            bc = "neumann" if mode == "neumann" else "noslip"
        X, Y = grid.meshgrid()

        def smooth():
            out = np.zeros((k, nx, ny))
            for p in range(1, 4):
                for q in range(1, 4):
                    a, ph = rng.standard_normal((k, 1, 1)), rng.uniform(0, 2 * np.pi, (k, 1, 1))
                    if mode == "periodic":
                        out += a * np.cos(2 * np.pi * (p * X / grid.lx + q * Y / grid.ly) + ph)
                    elif mode == "neumann":
                        out += a * np.cos(p * np.pi * X / grid.lx + ph) * np.cos(q * np.pi * Y / grid.ly)
                    else:
                        out += a * np.sin(p * np.pi * X / grid.lx) * np.sin(q * np.pi * Y / grid.ly)
            if mode == "zero-boundary":
                out[..., 0, :] = out[..., -1, :] = out[..., :, 0] = out[..., :, -1] = 0.0
            return out

        f, g = smooth(), smooth()
        lhs = ops.pair_vec(ops.laplacian(f, grid, bc), g, grid)
        rhs = -ops.dirichlet_form_vec(f, g, grid)
        assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs))

    def test_skew_advection_pairing_vanishes(self, grid32, rng):
        from selflow.projection import leray_project

        u = leray_project(rng.standard_normal((2, 32, 32)), grid32)
        pairing = ops.pair_vec(ops.advect_skew(u, u, grid32, "periodic"), u, grid32)
        assert abs(pairing) <= 1e-12 * (1 + np.sqrt(ops.pair_vec(u, u, grid32)) ** 3)

    def test_skew_advection_antisymmetric_trilinear(self, grid32, rng):
        u = rng.standard_normal((2, 32, 32))
        f = rng.standard_normal((3, 32, 32))
        g = rng.standard_normal((3, 32, 32))
        afg = ops.pair_vec(ops.advect_skew(u, f, grid32, "periodic"), g, grid32)
        agf = ops.pair_vec(ops.advect_skew(u, g, grid32, "periodic"), f, grid32)
        assert abs(afg + agf) <= 1e-11 * (1 + abs(afg))


# non-square, non-power-of-two periodic grid: hx*hy is not a power of two,
# so scaling a plain sum by it rounds unlike summing weighted entries
ODD = Grid(48, 40, lx=1.3, ly=0.7)
LEADS = [(), (3,), (5, 2)]


def _roll_links(a, grid, axis):
    h = grid.hx if axis == 0 else grid.hy
    return (np.roll(a, -1, axis=axis - 2) - a) / h


class TestPeriodicStencilsMatchRoll:
    """The periodic stencils are the np.roll formulas, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(lead=st.sampled_from(LEADS), strided=st.booleans(),
           scale=st.sampled_from([1e-8, 1.0, 1e6]), seed=st.integers(0, 2**32 - 1))
    def test_array_equal_to_roll(self, lead, strided, scale, seed):
        rng = np.random.default_rng(seed)
        shape = lead + (ODD.nx, ODD.ny)
        if strided:
            a = scale * rng.standard_normal(lead + (2, ODD.nx, ODD.ny))[..., 0, :, :]
        else:
            a = scale * rng.standard_normal(shape)
        lap = 0.0
        for axis, h in ((0, ODD.hx), (1, ODD.hy)):
            up, down = np.roll(a, -1, axis=axis - 2), np.roll(a, 1, axis=axis - 2)
            got = ops.deriv(a, ODD, axis, "periodic")
            assert got.shape == shape
            assert np.array_equal(got, (up - down) / (2.0 * h))
            assert np.array_equal(ops._forward_links(a, ODD, axis, True),
                                  _roll_links(a, ODD, axis))
            lap = lap + (up - 2.0 * a + down) / h**2
        assert np.array_equal(ops.laplacian(a, ODD, "periodic"), lap)


BOUNDED = [Grid(4, 4, lx=0.7, ly=1.1, bc_director="neumann"),
           Grid(24, 20, lx=1.3, ly=0.9, bc_director="neumann"),
           Grid(25, 31, lx=0.8, ly=1.7, bc_director="dirichlet")]
BOUNDED_BCS = ["noslip", "dirichlet", "neumann"]


def _slice_second_diff(a, grid, axis, bc):
    """The bounded second difference as whole-slice expressions."""
    h2 = (grid.hx if axis == 0 else grid.hy) ** 2
    a = np.moveaxis(a, axis - 2, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - 2.0 * a[1:-1] + a[:-2]) / h2
    if bc == "neumann":
        out[0] = 2.0 * (a[1] - a[0]) / h2
        out[-1] = 2.0 * (a[-2] - a[-1]) / h2
    else:
        out[0] = (2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]) / h2
        out[-1] = (2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]) / h2
    return np.moveaxis(out, 0, axis - 2)


class TestBoundedStencilsMatchGradient:
    """The bounded stencils are numpy's edge_order=2 gradient and the slice
    formula of the second difference, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(grid=st.sampled_from(BOUNDED), bc=st.sampled_from(BOUNDED_BCS),
           lead=st.sampled_from(LEADS), strided=st.booleans(), into=st.booleans(),
           scale=st.sampled_from([1e-8, 1.0, 1e6]), seed=st.integers(0, 2**32 - 1))
    def test_array_equal_to_gradient(self, grid, bc, lead, strided, into, scale, seed):
        rng = np.random.default_rng(seed)
        shape = lead + (grid.nx, grid.ny)
        if strided:
            a = scale * rng.standard_normal(lead + (2, grid.nx, grid.ny))[..., 1, :, :]
        else:
            a = scale * rng.standard_normal(shape)
        lap = 0.0
        for axis, h in ((0, grid.hx), (1, grid.hy)):
            want = np.gradient(a, h, axis=axis - 2, edge_order=2)
            if bc == "neumann":
                want[ops._at(axis - 2, 0)] = 0.0
                want[ops._at(axis - 2, -1)] = 0.0
            if into:  # a strided slot, as gradient() passes
                slots = np.full(lead + (2, grid.nx, grid.ny), np.nan)
                got = ops.deriv(a, grid, axis, bc, out=slots[..., axis, :, :])
                assert np.shares_memory(got, slots)
            else:
                got = ops.deriv(a, grid, axis, bc)
            assert got.shape == shape
            assert np.array_equal(got, want)
            lap = lap + _slice_second_diff(a, grid, axis, bc)
        assert np.array_equal(ops.laplacian(a, grid, bc), lap)

    @settings(max_examples=20, deadline=None)
    @given(grid=st.sampled_from(BOUNDED), lead=st.sampled_from(LEADS),
           strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_interior_divergence_is_the_sliced_divergence(self, grid, lead, strided, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(lead + (2, grid.nx, grid.ny, 2 if strided else 1))[..., 0]
        got = ops.interior_divergence(u, grid)
        assert got.shape == lead + (grid.nx - 2, grid.ny - 2)
        assert np.array_equal(got, ops.divergence(u, grid, "noslip")[..., 1:-1, 1:-1])

    def test_unknown_mode_raises(self):
        # "none" is no closure name either: noslip gives its one-sided stencils
        a = np.zeros((BOUNDED[1].nx, BOUNDED[1].ny))
        for mode in ("reflect", "none"):
            with pytest.raises(GridError):
                ops.deriv(a, BOUNDED[1], 0, mode)
            with pytest.raises(GridError):
                ops.laplacian(a, BOUNDED[1], mode)


class TestPeriodicLedgerForms:
    """The periodic quadrature forms scale each lane's plain sum by hx*hy;
    they agree with the explicit weighted-array sums to rounding, and each
    lane of a batch is bit-identical to its lone evaluation."""

    def test_match_weighted_arrays_and_lanes(self, rng):
        a = rng.standard_normal((5, 3, ODD.nx, ODD.ny))
        b = a + 0.5 * rng.standard_normal(a.shape)
        w = np.full((ODD.nx, ODD.ny), ODD.hx * ODD.hy)
        axes = (-3, -2, -1)

        def dirichlet_ref(f, g):
            return sum(np.sum(_roll_links(f, ODD, ax) * _roll_links(g, ODD, ax) * w, axis=axes)
                       for ax in (0, 1))

        cases = {
            "dirichlet self": (lambda f, g: ops.dirichlet_form_vec(f, f, ODD), dirichlet_ref(a, a)),
            "dirichlet cross": (lambda f, g: ops.dirichlet_form_vec(f, g, ODD), dirichlet_ref(a, b)),
            "pair_vec": (lambda f, g: ops.pair_vec(f, g, ODD), np.sum(a * b * w, axis=axes)),
            "pair_scalar": (lambda f, g: ops.pair_scalar(f[..., 0, :, :], g[..., 0, :, :], ODD),
                            np.sum(a[:, 0] * b[:, 0] * w, axis=(-2, -1))),
        }
        worst = {}
        for name, (form, ref) in cases.items():
            got = form(a, b)
            worst[name] = float(np.max(np.abs(got - ref) / np.abs(ref)))
            for m in range(5):
                assert np.array_equal(form(a[m], b[m]), got[m]), (name, m)
        print("\nlargest relative deviation: "
              + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
        assert max(worst.values()) <= 1e-14, worst


class TestVectorAlgebra:
    def test_cross_matches_numpy(self, rng):
        a = rng.standard_normal((3, 5, 5))
        b = rng.standard_normal((3, 5, 5))
        expect = np.cross(a, b, axis=0)
        assert np.allclose(ops.cross(a, b), expect, atol=1e-15)

    def test_batched_shapes(self, rng):
        a = rng.standard_normal((4, 3, 5, 5))
        b = rng.standard_normal((3, 5, 5))
        out = ops.cross(a, b)
        assert out.shape == (4, 3, 5, 5)
        assert np.allclose(out[2], np.cross(a[2], b, axis=0))
        assert ops.dot3(a, a).shape == (4, 5, 5)
