"""Wiener drivers, the noise operator and the magnetic field."""

import numpy as np
import pytest

from selflow import operators as ops
from selflow.noise import (
    MagneticField,
    NoiseOperatorS,
    WienerDriver,
    coarsen_normals,
    split_seed,
)
from selflow.grids import Grid
from selflow.projection import leray_project


def applied(S, u, dB):
    """sum_i S(u)(e_i) dB_i: the mode mix, projected once."""
    out = leray_project(S.mix_increments(u, dB), S.grid)
    return out


class TestWienerDriver:
    def test_same_seed_identical(self):
        d1 = WienerDriver(9, 6)
        d2 = WienerDriver(9, 6)
        for _ in range(20):
            assert np.array_equal(d1.normal_table(1), d2.normal_table(1))

    def test_rows_independent_of_chunking(self):
        whole = WienerDriver(9, 6).normal_table(20)
        drv = WienerDriver(9, 6)
        parts = np.concatenate([drv.normal_table(n) for n in (1, 7, 12)])
        assert np.array_equal(whole, parts)

    def test_moments(self):
        # 1e5 draws at dt = 0.01: mean within 4*sqrt(dt/1e5), var within 5%
        dt = 0.01
        n = 100_000
        table = WienerDriver(123, 1).normal_table(n) * np.sqrt(dt)
        w2 = table[:, 1]
        assert abs(w2.mean()) <= 4.0 * np.sqrt(dt / n)
        assert abs(w2.var() - dt) <= 0.05 * dt

    def test_ito_isometry(self):
        # mean over paths of (sum f dB)^2 ~ f^2 T within 5 SE, constant f
        dt, n_steps, m = 0.01, 50, 400
        f = 1.7
        totals = np.empty(m)
        for p in range(m):
            tab = WienerDriver(split_seed(5, p), 1).normal_table(n_steps)
            totals[p] = np.sum(f * tab[:, 0] * np.sqrt(dt))
        sq = totals**2
        target = f**2 * dt * n_steps
        se = sq.std(ddof=1) / np.sqrt(m)
        assert abs(sq.mean() - target) <= 5 * se

    def test_mode_independence(self):
        table = WienerDriver(77, 6).normal_table(4000)
        corr = np.corrcoef(table.T)
        off = corr[~np.eye(7, dtype=bool)]
        assert np.max(np.abs(off)) <= 4.0 / np.sqrt(4000)

    def test_coarsen_preserves_path(self):
        fine = WienerDriver(3, 2).normal_table(16)
        coarse = coarsen_normals(fine, 4)
        dt_f, dt_c = 0.001, 0.004
        w_fine = np.sum(fine * np.sqrt(dt_f), axis=0)
        w_coarse = np.sum(coarse * np.sqrt(dt_c), axis=0)
        assert np.allclose(w_fine, w_coarse, atol=1e-14)

    def test_split_seed_distinct(self):
        seeds = {split_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestNoiseOperator:
    def test_zero_increments_zero_field(self, grid32, noise32):
        u = np.ones((2, 32, 32))
        out = applied(noise32, u, np.zeros(8))
        assert np.max(np.abs(out)) == 0.0

    def test_zero_velocity_zero_field(self, grid32, noise32, rng):
        out = applied(noise32, np.zeros((2, 32, 32)), rng.standard_normal(8))
        assert np.max(np.abs(out)) <= 1e-14

    def test_single_mode_identity(self, grid32, rng):
        S1 = NoiseOperatorS(grid32, n_modes=1, sigma0=0.8, shapes=np.ones((1, 32, 32)))
        u = leray_project(rng.standard_normal((2, 32, 32)), grid32)
        out = applied(S1, u, np.array([2.5]))
        rest = out - 0.8 * 2.5 * u
        assert np.sqrt(ops.pair_vec(rest, rest, grid32)) <= 1e-10

    def test_output_divergence_free(self, grid32, noise32, rng):
        out = applied(noise32, rng.standard_normal((2, 32, 32)), rng.standard_normal(8))
        assert np.max(np.abs(ops.divergence(out, grid32, "periodic"))) <= 8 * 1e-10

    def test_increment_length_checked(self, grid32, noise32):
        with pytest.raises(ValueError):
            noise32.mix_increments(np.zeros((2, 32, 32)), np.zeros(5))

    def test_hs_zero_at_origin(self, grid32, noise32):
        assert noise32.hs_norm_sq(np.zeros((2, 32, 32))) <= 1e-28

    def test_hs_single_mode_value(self, grid32, rng):
        S1 = NoiseOperatorS(grid32, n_modes=1, sigma0=0.6, shapes=np.ones((1, 32, 32)))
        u = leray_project(rng.standard_normal((2, 32, 32)), grid32)
        val = S1.hs_norm_sq(u)
        expect = 0.6**2 * ops.pair_vec(u, u, grid32)
        assert abs(val - expect) <= 2e-10 * (1 + expect)

    def test_linear_growth_never_violated(self, grid32, noise32, rng):
        C = noise32.linear_growth_constant()
        for _ in range(100):
            u = rng.standard_normal((2, 32, 32)) * rng.uniform(0.1, 5.0)
            assert noise32.hs_norm_sq(u) <= C * (1 + ops.pair_vec(u, u, grid32))

    def test_growth_bound_under_doubling(self, grid32, noise32, rng):
        C = noise32.linear_growth_constant()
        u = rng.standard_normal((2, 32, 32))
        doubled = noise32.hs_norm_sq(2.0 * u)
        assert doubled <= 4.0 * noise32.hs_norm_sq(u) + 1e-12
        assert doubled <= C * (1 + ops.pair_vec(2.0 * u, 2.0 * u, grid32))

    def test_hs_batched_matches(self, grid32, noise32, rng):
        u = rng.standard_normal((4, 2, 32, 32))
        batched = noise32.hs_norm_sq(u)
        singles = np.array([noise32.hs_norm_sq(u[m]) for m in range(4)])
        assert np.allclose(batched, singles, rtol=1e-12)

    @pytest.mark.parametrize("bounded", [False, True], ids=["periodic", "bounded"])
    @pytest.mark.parametrize("seeded", [False, True], ids=["multiplicative", "additive"])
    def test_hs_matches_explicit_projection(self, grid32, grid_bounded, rng, bounded, seeded):
        grid = grid_bounded if bounded else grid32
        n = 8
        additive = rng.standard_normal((n, 2, 32, 32)) if seeded else None
        S = NoiseOperatorS(grid, n_modes=n, sigma0=0.3, additive=additive)
        u = rng.standard_normal((4, 2, 32, 32))

        def explicit(ul):
            total = 0.0
            for i in range(n):
                v = S.decay[i] * (S.shapes[i] * ul + S.additive[i])
                pv = leray_project(v, grid)
                total = total + ops.pair_vec(pv, pv, grid)
            return total

        want = explicit(u)
        batched = S.hs_norm_sq(u)
        assert batched.shape == (4,)
        assert np.max(np.abs(batched - want) / want) <= 1e-12
        single = S.hs_norm_sq(u[1])
        assert isinstance(single, float)
        assert abs(single - want[1]) <= 1e-12 * want[1]

    def test_hs_any_shapes(self, grid32, rng):
        # the Parseval route does not rely on the default cos.cos shapes
        shapes = rng.uniform(-1.0, 1.0, (3, 32, 32))
        S = NoiseOperatorS(grid32, n_modes=3, sigma0=0.7, shapes=shapes)
        u = rng.standard_normal((2, 32, 32))
        want = 0.0
        for i in range(3):
            pv = leray_project(S.decay[i] * S.shapes[i] * u, grid32)
            want += ops.pair_vec(pv, pv, grid32)
        assert abs(S.hs_norm_sq(u) - want) <= 1e-12 * want

    def test_additive_seeds(self, grid32, rng):
        # with additive seeds the operator is affine: at u = 0 the output is
        # the weighted projected seed sum and the HS norm is positive
        g = np.zeros((2, 2, 32, 32))
        raw = rng.standard_normal((2, 32, 32))
        g[0] = leray_project(raw, grid32)
        S = NoiseOperatorS(grid32, n_modes=2, sigma0=0.5, shapes=np.ones((2, 32, 32)),
                           additive=g)
        out = applied(S, np.zeros((2, 32, 32)), np.array([2.0, 0.0]))
        rest = out - 0.5 * 2.0 * g[0]
        assert np.sqrt(ops.pair_vec(rest, rest, grid32)) <= 1e-10
        hs0 = S.hs_norm_sq(np.zeros((2, 32, 32)))
        assert hs0 > 0
        C = S.linear_growth_constant()
        assert hs0 <= C

    @pytest.mark.parametrize("seeded", [False, True], ids=["multiplicative", "additive"])
    def test_hs_folded_norm_on_odd_grid(self, rng, seeded):
        # non-square, non-power-of-two cells; reference: each mode projected
        # and weighed with the quadrature-weight array
        grid = Grid(48, 40, lx=1.3, ly=0.7)
        n = 8
        additive = None
        if seeded:
            additive = leray_project(rng.standard_normal((n, 2, 48, 40)), grid)
        S = NoiseOperatorS(grid, n_modes=n, sigma0=0.3, additive=additive)
        u = rng.standard_normal((5, 2, 48, 40))
        want = 0.0
        for i in range(n):
            pv = leray_project(S.decay[i] * (S.shapes[i] * u + S.additive[i]), grid)
            want = want + np.sum(pv * pv * grid.quad_weights(), axis=(-3, -2, -1))
        got = S.hs_norm_sq(u)
        worst = float(np.max(np.abs(got - want) / want))
        print(f"\nhs_norm_sq largest relative deviation: {worst:.2e}")
        assert worst <= 1e-14
        for m in range(5):
            assert np.array_equal(S.hs_norm_sq(u[m]), got[m])


class TestDirectorNoise:
    # the director noise increment (d x h) dW2, as step_coupled builds it
    def test_parallel_vectors_vanish(self, rng):
        d = rng.standard_normal((3, 8, 8))
        assert np.max(np.abs(ops.cross(d, 2.0 * d))) <= 1e-13

    def test_cross_product_example(self):
        d = np.zeros((3, 4, 4))
        d[0] = 1.0
        h = np.zeros((3, 4, 4))
        h[2] = 1.0
        out = ops.cross(d, h)
        assert np.allclose(out[1], -1.0) and np.allclose(out[0], 0) and np.allclose(out[2], 0)

    def test_orthogonal_to_director(self, rng):
        d = rng.standard_normal((3, 8, 8))
        h = rng.standard_normal((3, 8, 8))
        out = ops.cross(d, h) * 0.7
        assert np.max(np.abs(ops.dot3(out, d))) <= 1e-13


class TestMagneticField:
    def test_constant_bounded(self, grid32):
        h = MagneticField.constant(grid32, (0, 0, 0.7))
        assert h.max_abs == pytest.approx(0.7)
