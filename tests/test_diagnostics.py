"""Energy budget, pointwise identities, stress pairings, weak residuals,
multiplier residuals, defect detection, and the coupled sweep."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from selflow import diagnostics
from selflow import operators as ops
from selflow.diagnostics import (
    GeometryError,
    WeakFormTracker,
    budget_residual_series,
    default_defect_radius,
    default_defect_threshold,
    defect_detect,
    energy_budget_residual,
    pohozaev_residual,
    stress_pairing,
    traceless_stress,
)
from selflow.config import RunConfig, build_grid, build_params, checked_field, parse_config
from selflow.dynamics import Params, stability_dt
from selflow.ensemble import coupled_sweep, run_path
from selflow.fields import director_test_function, solenoidal_test_function
from selflow.grids import Grid
from selflow.initial import (
    constant_director,
    smooth_unit_director,
    taylor_green,
    vortex_director,
)
from selflow.noise import NoiseOperatorS, WienerDriver
from selflow.pathrun import simulate_batch, simulate_path
from conftest import (
    asym_director,
    asym_velocity,
    fit_order,
    sphere_generator_drift,
    triple_product_defects,
)


def _run(grid, params, S, h, seed=0, u_amp=0.2, d_amp=0.4, budget=True, **kw):
    u0 = taylor_green(grid, 1, u_amp)
    d0 = smooth_unit_director(grid, d_amp)
    return simulate_path(grid, params, u0, d0, S, h, WienerDriver(seed, S.n_modes),
                         track_budget=budget, **kw)


def smooth_test_director(grid, amps=(0.8, 0.6, 0.5)):
    """Generic smooth non-unit director used by identity checks; every term
    of the elliptic identities is active (penalty included)."""
    X, Y = grid.meshgrid()
    if grid.periodic:
        ax, ay = 2.0 * np.pi / grid.lx, 2.0 * np.pi / grid.ly
    else:
        ax, ay = np.pi / grid.lx, np.pi / grid.ly
    return np.stack(
        [
            amps[0] * np.sin(ax * X) * np.cos(ay * Y),
            amps[1] * np.cos(ax * X) * np.sin(ay * Y),
            0.5 + amps[2] * np.sin(ax * X) * np.sin(ay * Y),
        ]
    )


def local_energy(d, grid, eps, center, r):
    """Relaxation energy 0.5 |grad d|^2 + F_eps integrated over the discrete
    ball (cell-center inclusion; periodic distance on the torus, where r
    may reach half the shorter period)."""
    from selflow.diagnostics import _ball_energy, _energy_density

    return _ball_energy(_energy_density(d, grid, eps, grid.bc_director), grid, center, r)


class TestEnergyRecord:
    def test_rest_state_all_zero(self, grid32, noise32, h_const):
        from selflow.dynamics import SimState
        from selflow.pathrun import record_columns

        params = Params(eps=0.5, dt=1e-4, T=1.0)
        state = SimState.initial(grid32, np.zeros((2, 32, 32)),
                                 constant_director(grid32, (0, 0, 1)))
        rec = record_columns(state, params, noise32, h_const)
        assert rec["kinetic"] == 0.0
        assert rec["dirichlet"] == 0.0
        assert rec["penalty"] <= 1e-14
        assert rec["dissipation_u"] == 0.0
        assert rec["dissipation_d"] <= 1e-12
        # d || e3, h || e3: the whole stochastic-drift block vanishes
        assert abs(rec["strat_drift"]) <= 1e-14
        assert rec["hs"] == 0.0  # u = 0

    def test_planar_wave_dirichlet_energy(self):
        for n in (32, 64):
            grid = Grid(n, n)
            X, _ = grid.meshgrid()
            k = 2 * np.pi
            d = np.stack([np.cos(k * X), np.sin(k * X), np.zeros_like(X)])
            val = 0.5 * ops.dirichlet_form_vec(d, d, grid)
            assert abs(val - 2 * np.pi**2) <= 30 * grid.hx**2 * 4 * np.pi**2

    @pytest.mark.parametrize("grid", [Grid(33, 31, lx=1.7), Grid(32, 32, bc_director="neumann"),
                                      Grid(24, 20, bc_director="dirichlet")],
                             ids=["periodic", "neumann", "dirichlet"])
    def test_sphere_columns_are_the_records(self, rng, grid):
        # a sweep row takes penalty and dev_norm from sphere_columns; they
        # are the record's columns bit for bit, per lane and batched
        from selflow.dynamics import SimState
        from selflow.pathrun import record_columns, sphere_columns

        S = NoiseOperatorS(grid, n_modes=4, sigma0=0.3)
        h = constant_director(grid, (0.0, 0.0, 0.5))
        u = taylor_green(grid, 1, 0.2)
        d = smooth_unit_director(grid, 0.4) + 0.1 * rng.standard_normal((4, 3, grid.nx, grid.ny))
        params = Params(eps=0.3, dt=1e-4, T=1.0)
        rec = record_columns(SimState.initial(grid, np.stack([u] * 4), d), params, S, h)
        sphere = sphere_columns(d, grid, params.eps)
        assert list(sphere) == ["penalty", "dev_norm"]
        for name, col in sphere.items():
            assert col.shape == (4,)
            assert np.array_equal(col, rec[name]), name
            for m in range(4):
                lone = record_columns(SimState.initial(grid, u, d[m]), params, S, h)
                assert np.array_equal(sphere_columns(d[m], grid, params.eps)[name], lone[name])
                assert np.array_equal(col[m], lone[name]), name

    def test_penalty_of_zero_director(self, grid32, noise32, h_const):
        from selflow.dynamics import SimState
        from selflow.pathrun import record_columns

        params = Params(eps=1.0, dt=1e-4, T=1.0)
        state = SimState.initial(grid32, np.zeros((2, 32, 32)), np.zeros((3, 32, 32)))
        rec = record_columns(state, params, noise32, h_const)
        assert abs(rec["penalty"] - 0.25) <= 1e-12


class TestEnergyBudget:
    def test_deterministic_residual_linear_in_dt(self, grid32, h_const):
        S = NoiseOperatorS(grid32, n_modes=4, sigma0=0.3)
        resids = []
        for k in (1, 2, 4):
            dt = stability_dt(0.5, grid32, 1, 1) / k
            params = Params(eps=0.5, xi1=0.0, xi2=0.0, dt=dt, T=0.02)
            res = _run(grid32, params, S, h_const)
            resids.append(abs(energy_budget_residual(res.series, params)))
        assert resids[0] > resids[1] > resids[2]
        assert resids[0] / resids[2] > 3.0  # ~first order

    def test_budget_bit_reproducible(self, grid32, h_const):
        S = NoiseOperatorS(grid32, n_modes=4, sigma0=0.3)
        params = Params(eps=0.5, dt=1e-4, T=0.01)
        r1 = energy_budget_residual(_run(grid32, params, S, h_const, seed=5).series, params)
        r2 = energy_budget_residual(_run(grid32, params, S, h_const, seed=5).series, params)
        assert r1 == r2

    def test_budget_closes_with_nonunit_constants(self, grid32):
        # gamma, lam, xi2 != 1 exercise the coefficient bookkeeping
        S = NoiseOperatorS(grid32, n_modes=4, sigma0=0.2)
        h = constant_director(grid32, (0.1, 0.0, 0.4))
        resids = []
        for k in (1, 4):
            dt = stability_dt(0.5, grid32, 0.8, 1.3) / k
            params = Params(eps=0.5, mu=0.8, lam=1.7, gamma=1.3, xi1=0.9, xi2=0.7,
                            dt=dt, T=0.02)
            res = _run(grid32, params, S, h, seed=3)
            resids.append(abs(energy_budget_residual(res.series, params)))
        assert resids[1] < 0.6 * resids[0]

    def test_pinned_wall_residual_linear_in_dt(self):
        # the simulate_bounded_dirichlet golden config without noise: tau is
        # paired at the nodes the step updates only, so the residual halves
        # with dt (counting the pinned wall left a floor near 2.1e-2, 7% of
        # the dissipation)
        cfg = parse_config("sim.grid = 25x20\nsim.lx = 1.3\nsim.ly = 0.9\n"
                           "sim.bc = bounded-dirichlet\nsim.eps = 0.3\nsim.T = 0.02\n"
                           "noise.xi1 = 0\nnoise.xi2 = 0\nnoise.modes = 4\n"
                           "noise.sigma0 = 0.3\ninit.u = taylor-green:1,0.2\n"
                           "init.d = unit-smooth:0.4\nfield.h = wave:0.2,0.2,0.5\n"
                           "out.checkpoint_every = 1000000\n")
        grid = build_grid(cfg)
        dt0 = build_params(cfg, grid, umax=float(np.max(np.abs(checked_field(
            cfg, grid, "init_u"))))).dt
        resids = []
        for k in (1, 2, 4, 8, 16):
            run = replace(cfg, dt=dt0 / k)
            resids.append(abs(energy_budget_residual(run_path(run).series,
                                                     build_params(run, grid))))
        ratios = np.array(resids[:-1]) / resids[1:]
        assert np.all((ratios > 1.8) & (ratios < 2.2)), ratios

    def test_series_column(self, grid32, h_const):
        S = NoiseOperatorS(grid32, n_modes=4, sigma0=0.3)
        params = Params(eps=0.5, dt=1e-4, T=0.01)
        res = _run(grid32, params, S, h_const, checkpoint_every=20)
        col = budget_residual_series(res.series, params)
        assert col.shape == res.series.columns["t"].shape
        assert col[0] == 0.0

    def test_batch_rows_are_lane_residuals(self):
        # each row of a (paths, n_checkpoints) table is measured from its own
        # first checkpoint, as the lane's own 1-D table is
        grid = Grid(16, 16)
        S = NoiseOperatorS(grid, n_modes=4, sigma0=0.3)
        h = constant_director(grid, (0.0, 0.0, 0.5))
        params = Params(eps=0.5, dt=stability_dt(0.5, grid, 1, 1), T=0.01)
        batch = simulate_batch(grid, params, taylor_green(grid, 1, 0.2),
                               smooth_unit_director(grid, 0.4), S, h,
                               [WienerDriver(40 + p, S.n_modes) for p in range(3)],
                               checkpoint_every=5)
        rows = budget_residual_series(batch.series, params)
        finals = energy_budget_residual(batch.series, params)
        assert rows.shape == batch.series.columns["t"].shape and finals.shape == (3,)
        for i in range(3):
            lane = batch.lane(i).series
            assert np.array_equal(rows[i], budget_residual_series(lane, params))
            assert finals[i] == energy_budget_residual(lane, params)
        assert np.all(finals != 0.0)


class TestPointwiseIdentities:
    def test_triple_products_exact(self, rng):
        d = rng.uniform(-1, 1, (3, 100, 100))
        h = rng.uniform(-1, 1, (3, 100, 100))
        t1, t2 = triple_product_defects(d, h)
        assert np.max(np.abs(t1)) <= 1e-14
        assert np.max(np.abs(t2)) <= 1e-14

    def test_sphere_generator_drift_zero(self, rng):
        d = rng.uniform(-1, 1, (3, 32, 32))
        h = rng.uniform(-1, 1, (3, 32, 32))
        assert np.max(np.abs(sphere_generator_drift(d, h, xi2=1.4))) <= 1e-13

    def test_penalty_force_orthogonal_to_noise_direction(self, rng):
        from selflow.dynamics import gl_force

        d = rng.uniform(-1, 1, (3, 16, 16))
        h = rng.uniform(-1, 1, (3, 16, 16))
        f = gl_force(d, 0.44)
        assert np.max(np.abs(ops.dot3(f, ops.cross(d, h)))) <= 1e-13


class TestStressPairing:
    def test_traceless_exactly(self, grid32, rng):
        d = rng.standard_normal((3, 32, 32))
        T = traceless_stress(d, grid32)
        trace = T[0, 0] + T[1, 1]
        assert np.max(np.abs(trace)) == 0.0

    def test_constant_director_zero(self, grid32):
        phi = solenoidal_test_function(grid32)
        val = stress_pairing(constant_director(grid32, (1, 0, 0)), grid32, [phi])[phi.name]
        assert val == 0.0

    def test_planar_wave_tensor_value(self, grid32):
        X, _ = grid32.meshgrid()
        k = 2 * np.pi
        d = np.stack([np.cos(k * X), np.sin(k * X), np.zeros_like(X)])
        T = traceless_stress(d, grid32)
        k_eff = np.sin(k * grid32.hx) / grid32.hx
        assert np.allclose(T[0, 0], 0.5 * k_eff**2, rtol=1e-12)
        assert np.allclose(T[1, 1], -0.5 * k_eff**2, rtol=1e-12)
        assert np.max(np.abs(T[0, 1])) <= 1e-12

    def test_pairing_matches_direct_quadrature(self, grid32, rng):
        d = smooth_test_director(grid32)
        phi = solenoidal_test_function(grid32, 2, 1)
        val = stress_pairing(d, grid32, [phi])[phi.name]
        T = traceless_stress(d, grid32)
        gphi = ops.gradient(phi.values, grid32, "periodic")
        direct = float(
            np.sum((T[0, 0] * gphi[0, 0] + T[0, 1] * (gphi[0, 1] + gphi[1, 0])
                    + T[1, 1] * gphi[1, 1]) * grid32.quad_weights())
        )
        assert abs(val - direct) <= 1e-12 * (1 + abs(val))

    @pytest.mark.parametrize("bounded", [False, True])
    def test_batched_equals_per_lane(self, rng, bounded):
        # the sweep pairs every lane of a batch at once; each lane must be
        # the one-director value bit for bit
        grid = (Grid(32, 32, bc_director="neumann") if bounded
                else Grid(33, 31, lx=1.7))
        d = rng.standard_normal((5, 3, grid.nx, grid.ny))
        phis = [solenoidal_test_function(grid, 1, 1), solenoidal_test_function(grid, 2, 1)]
        batched = stress_pairing(d, grid, phis)
        lanes = [stress_pairing(lane, grid, phis) for lane in d]
        assert list(batched) == [phi.name for phi in phis]
        for phi in phis:
            assert batched[phi.name].shape == (5,)
            assert all(type(lane[phi.name]) is float for lane in lanes)
            assert np.array_equal(batched[phi.name], [lane[phi.name] for lane in lanes])

    @pytest.mark.parametrize("grid", [Grid(33, 31, lx=1.7), Grid(32, 32, bc_director="neumann"),
                                      Grid(24, 20, bc_director="dirichlet")],
                             ids=["periodic", "neumann", "dirichlet"])
    def test_one_stress_equals_one_build_per_test_function(self, rng, grid):
        # one traceless stress shared by all test functions gives, bit for
        # bit, the pairing that rebuilds the stress for every test function
        d = rng.standard_normal((3, 3, grid.nx, grid.ny))
        phis = [solenoidal_test_function(grid, 1, 1), solenoidal_test_function(grid, 2, 1),
                solenoidal_test_function(grid, 1, 2)]
        got = stress_pairing(d, grid, phis)
        assert list(got) == [phi.name for phi in phis]
        for phi in phis:
            gphi = ops.gradient(phi.values, grid, phi.bc)
            lone = np.sum(traceless_stress(d, grid) * gphi * grid.quad_weights(),
                          axis=(-4, -3, -2, -1))
            assert np.array_equal(got[phi.name], lone)


class TestWeakResiduals:
    def _tracker(self, grid, params):
        return WeakFormTracker(
            grid, params,
            u_tests=[solenoidal_test_function(grid, 1, 1, name="phi")],
            d_tests=[director_test_function(grid, 1, 1, component=0, name="psi")],
        )

    def test_zero_data_zero_residual(self, grid32, h_const):
        S = NoiseOperatorS(grid32, n_modes=4, sigma0=0.3)
        params = Params(eps=0.5, xi1=0.0, xi2=0.0, dt=1e-4, T=0.005)
        tracker = self._tracker(grid32, params)
        res = simulate_path(grid32, params, np.zeros((2, 32, 32)),
                            np.zeros((3, 32, 32)),
                            S, constant_director(grid32, (0, 0, 0)),
                            WienerDriver(0, 4), weak_tracker=tracker,
                            track_budget=False)
        ru = tracker.residual_u(res.state.u)["phi"]
        rd = tracker.residual_d(res.state.d)["psi"]
        assert abs(ru) <= 1e-12
        assert abs(rd) <= 1e-12

    def test_deterministic_refinement(self, h_const):
        # joint refinement: dt tied to h^2 by stability, so halving h cuts
        # the O(dt + h^2) residual by ~4 (asymmetric data so no lattice
        # parity hides the nonlinear pairings)
        resids = []
        for n in (16, 32, 64):
            grid = Grid(n, n)
            S = NoiseOperatorS(grid, n_modes=2, sigma0=0.0)
            h = constant_director(grid, (0, 0, 0.5))
            dt = stability_dt(0.5, grid, 1, 1)
            params = Params(eps=0.5, xi1=0.0, xi2=0.0, dt=dt, T=0.02)
            tracker = self._tracker(grid, params)
            res = simulate_path(grid, params, asym_velocity(grid),
                                asym_director(grid), S, h,
                                WienerDriver(0, 2), weak_tracker=tracker,
                                track_budget=False)
            ru = abs(tracker.residual_u(res.state.u)["phi"])
            rd = abs(tracker.residual_d(res.state.d)["psi"])
            resids.append(ru + rd)
        assert resids[1] <= resids[0] / 2.5
        assert resids[2] <= resids[1] / 2.5

    def test_stochastic_mean_matches_deterministic_bias(self, grid32):
        # ensemble mean of the weak residual within 3 SE of the
        # deterministic-run residual
        S = NoiseOperatorS(grid32, n_modes=4, sigma0=0.25)
        h = constant_director(grid32, (0, 0, 0.5))
        dt = stability_dt(0.5, grid32, 1, 1)
        base = Params(eps=0.5, dt=dt, T=0.01)
        det = Params(eps=0.5, xi1=0.0, xi2=0.0, dt=dt, T=0.01)
        tracker = self._tracker(grid32, det)
        res = simulate_path(grid32, det, taylor_green(grid32, 1, 0.2),
                            smooth_unit_director(grid32, 0.4), S, h,
                            WienerDriver(0, 4), weak_tracker=tracker,
                            track_budget=False)
        bias = tracker.residual_u(res.state.u)["phi"]
        vals = []
        for p in range(24):
            trk = self._tracker(grid32, base)
            r = simulate_path(grid32, base, taylor_green(grid32, 1, 0.2),
                              smooth_unit_director(grid32, 0.4), S, h,
                              WienerDriver(1000 + p, 4), weak_tracker=trk,
                              track_budget=False)
            vals.append(trk.residual_u(r.state.u)["phi"])
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - bias) <= 3 * se + 1e-12


class TestPohozaev:
    def test_constant_director_all_terms_zero(self, grid_bounded):
        d = constant_director(grid_bounded, (0.6, 0.0, 0.8))
        rep = pohozaev_residual(d, grid_bounded, 0.5, (0.5, 0.5), 0.2, "radial")
        for term in (rep.boundary_kinetic, rep.bulk_stress, rep.bulk_div,
                     rep.boundary_energy, rep.rhs, rep.residual):
            assert abs(term) <= 1e-13

    @staticmethod
    def cross_director(grid):
        # cross-phase modes so every identity term, the off-diagonal stress
        # included, is active
        X, Y = grid.meshgrid()
        return np.stack(
            [
                0.8 * np.sin(np.pi * X) * np.cos(np.pi * Y)
                + 0.3 * np.sin(2 * np.pi * (X + Y)),
                0.6 * np.cos(np.pi * X) * np.sin(np.pi * Y)
                + 0.2 * np.cos(np.pi * (X + 2 * Y)),
                0.5 + 0.3 * np.sin(np.pi * X) * np.sin(np.pi * Y),
            ]
        )

    @pytest.mark.parametrize("choice", ["radial", "x1", "shear"])
    def test_refinement_order_at_least_one(self, choice):
        resids, hs = [], []
        for n in (32, 64, 128):
            grid = Grid(n, n, bc_director="neumann")
            d = self.cross_director(grid)
            rep = pohozaev_residual(d, grid, 0.4, (0.5, 0.5), 0.25, choice)
            resids.append(abs(rep.residual))
            hs.append(grid.hx)
        assert resids[2] < resids[0]
        assert fit_order(resids, hs) >= 1.0

    def test_unknown_choice_rejected(self, grid_bounded):
        d = constant_director(grid_bounded, (0.6, 0.0, 0.8))
        with pytest.raises(ValueError, match="X choice must be one of"):
            pohozaev_residual(d, grid_bounded, 0.5, (0.5, 0.5), 0.2, "twist")

    def test_planar_wave_x1_bulk_value(self):
        # X = (x1, 0): bulk terms reduce to 0.5 int(|d2 d|^2 - |d1 d|^2) + int F;
        # a pinned wall takes one-sided stencils at every wall
        grid = Grid(96, 96, bc_director="dirichlet")
        X, _ = grid.meshgrid()
        k = 2 * np.pi
        d = np.stack([np.cos(k * X), np.sin(k * X), np.zeros_like(X)])
        r = 0.25
        rep = pohozaev_residual(d, grid, 0.5, (0.5, 0.5), r, "x1")
        area = np.pi * r**2
        expect = -0.5 * k**2 * area
        assert abs((rep.bulk_stress + rep.bulk_div) - expect) <= 0.05 * abs(expect)

    def test_smooth_director_relative_residual_small(self):
        # one grid, no refinement: the residual is a small share of the
        # identity's largest terms
        grid = Grid(48, 48, bc_director="neumann")
        rep = pohozaev_residual(smooth_test_director(grid), grid, 0.5, (0.5, 0.5),
                                0.25, "radial")
        assert abs(rep.residual) < 0.2 * (abs(rep.rhs) + abs(rep.bulk_div))

    def test_ball_outside_domain_rejected(self, grid_bounded):
        d = constant_director(grid_bounded, (0, 0, 1))
        with pytest.raises(GeometryError):
            pohozaev_residual(d, grid_bounded, 0.5, (0.1, 0.5), 0.2, "radial")


@pytest.mark.parametrize("r", [0.0, -0.1], ids=["zero", "negative"])
def test_nonpositive_radius_rejected(grid_bounded, r):
    d = constant_director(grid_bounded, (0, 0, 1))
    with pytest.raises(ValueError, match="radius"):
        pohozaev_residual(d, grid_bounded, 0.5, (0.5, 0.5), r, "radial")
    with pytest.raises(ValueError, match="radius"):
        local_energy(d, grid_bounded, 0.5, (0.5, 0.5), r)
    with pytest.raises(ValueError, match="radius"):
        defect_detect(d, grid_bounded, 0.5, r, 0.1)


class TestPeriodicRadius:
    """A periodic ball may reach half the shorter period, not beyond."""

    GRID = Grid(32, 24, lx=1.0, ly=0.6)  # half the shorter period: 0.3

    def test_beyond_half_period_rejected(self):
        d = smooth_unit_director(self.GRID, 0.4)
        with pytest.raises(ValueError, match="half the shorter period"):
            local_energy(d, self.GRID, 0.2, (0.5, 0.3), 0.31)
        with pytest.raises(ValueError, match="half the shorter period"):
            defect_detect(d, self.GRID, 0.2, 0.31, 0.1)
        assert local_energy(d, self.GRID, 0.2, (0.5, 0.3), 0.3) > 0.0
        defect_detect(d, self.GRID, 0.2, 0.3, 0.1)

    def test_bounded_grids_are_not_capped(self, grid_bounded):
        d = constant_director(grid_bounded, (0, 0, 1))
        assert local_energy(d, grid_bounded, 0.2, (0.5, 0.5), 0.6) == 0.0

    @pytest.mark.parametrize("grid, r", [
        (Grid(32, 32), 8 / 32),
        (Grid(12, 12), 0.5),
        (Grid(12, 24, ly=2.0), 0.5),
        (Grid(40, 10, lx=1.3, ly=0.35), 0.175),
        # 8h = 8/7 exceeds the domain; the scan node 4/7 holds a ball of 3/7
        (Grid(8, 8, bc_director="neumann"), 3 / 7),
    ], ids=["32", "12", "12x24", "40x10", "bounded8"])
    def test_default_radius(self, grid, r):
        assert default_defect_radius(grid) == pytest.approx(r, rel=1e-15)
        if grid.periodic:
            default_defect_threshold(grid, 0.2, default_defect_radius(grid))  # accepted


class TestBoundedRadius:
    """On bounded grids the scan refuses a ball that no scan center holds,
    and the default radius is one that some scan center holds."""

    def test_ball_no_center_holds_rejected(self, grid_bounded):
        d = vortex_director(grid_bounded, 0.5, 0.5, 2 * grid_bounded.hx)
        with pytest.raises(GeometryError, match="no scan center"):
            defect_detect(d, grid_bounded, 0.2, 0.6, 0.1)

    @pytest.mark.parametrize("nx", [4, 5, 6, 7, 8, 13, 16, 17, 33])
    @pytest.mark.parametrize("ny, ly, bc", [(4, 1.0, "neumann"), (9, 0.7, "dirichlet"),
                                            (16, 1.0, "neumann"), (21, 2.3, "dirichlet")])
    def test_default_radius_is_held(self, nx, ny, ly, bc):
        grid = Grid(nx, ny, lx=1.3, ly=ly, bc_director=bc)
        r = default_defect_radius(grid)
        assert 0.0 < r <= 8.0 * max(grid.hx, grid.hy)
        d = vortex_director(grid, 0.5 * grid.lx, 0.5 * grid.ly, 2 * grid.hx)
        centers = defect_detect(d, grid, 0.2, r, -1.0)
        assert len(centers) >= 1  # a negative threshold makes every scan center a hit
        # no larger ball fits around a scan center
        with pytest.raises(GeometryError):
            defect_detect(d, grid, 0.2, r * (1.0 + 1e-12), -1.0)


class TestDefects:
    def test_uniform_director_empty(self, grid_bounded):
        d = constant_director(grid_bounded, (0, 0, 1))
        thr = default_defect_threshold(grid_bounded, 0.2, default_defect_radius(grid_bounded))
        centers = defect_detect(d, grid_bounded, 0.2, 8 * grid_bounded.hx, thr)
        assert len(centers) == 0

    def test_vortex_detected_at_core(self):
        grid = Grid(64, 64, bc_director="neumann")
        core = 2 * grid.hx
        d = vortex_director(grid, 0.5, 0.5, core)
        r = 8 * grid.hx
        thr = default_defect_threshold(grid, 0.2, default_defect_radius(grid))
        centers = defect_detect(d, grid, 0.2, r, thr)
        assert len(centers) == 1
        x, y, _ = centers[0]
        assert np.hypot(x - 0.5, y - 0.5) <= 2 * grid.hx
        # local energy contrast between core and far field
        near = local_energy(d, grid, 0.2, (0.5, 0.5), r)
        far = local_energy(d, grid, 0.2, (0.5 + 4 * r, 0.5), r)
        assert near >= 5 * far

    def test_threshold_monotonicity(self):
        grid = Grid(64, 64, bc_director="neumann")
        d = vortex_director(grid, 0.4, 0.6, 2 * grid.hx)
        r = 8 * grid.hx
        lo = defect_detect(d, grid, 0.2, r, 1e-4)
        hi = defect_detect(d, grid, 0.2, r, 1e-1)
        lo_centers = {(x, y) for x, y, _ in lo}
        hi_centers = {(x, y) for x, y, _ in hi}
        assert hi_centers <= lo_centers

    def test_threshold_above_total_energy_empty(self, grid_bounded):
        d = vortex_director(grid_bounded, 0.5, 0.5, 2 * grid_bounded.hx)
        total = local_energy(d, grid_bounded, 0.2, (0.5, 0.5), 0.45)
        centers = defect_detect(d, grid_bounded, 0.2, 8 * grid_bounded.hx, 10 * total)
        assert len(centers) == 0


def per_center_defect_detect(d, grid, eps, r, delta0_sq, stride=2):
    """Reference: the per-center scan that defined defect_detect, one
    distance field, mask and full-grid sum per center."""
    from selflow.diagnostics import _energy_density, _wrapped_dist_sq

    e_w = _energy_density(d, grid, eps, grid.bc_director) * grid.quad_weights()
    xs = grid.x
    ys = grid.y

    hits = []
    for i in range(0, grid.nx, stride):
        for j in range(0, grid.ny, stride):
            x0, y0 = xs[i], ys[j]
            if not grid.periodic and not grid.contains_ball(x0, y0, r, margin_cells=0):
                continue
            mask = _wrapped_dist_sq(grid, x0, y0) <= r**2
            energy = float(np.sum(e_w * mask))
            if energy > delta0_sq:
                hits.append((energy, x0, y0))

    hits.sort(key=lambda t: (-t[0], t[1], t[2]))
    centers = []
    for energy, x0, y0 in hits:
        clash = False
        for cx, cy, _ in centers:
            dx, dy = x0 - cx, y0 - cy
            if grid.periodic:
                dx -= grid.lx * round(dx / grid.lx)
                dy -= grid.ly * round(dy / grid.ly)
            if dx * dx + dy * dy <= (2.0 * r) ** 2:
                clash = True
                break
        if not clash:
            centers.append((x0, y0, energy))
    return centers


def scan_at_stride(stride, *args):
    """defect_detect(*args) on the lattice of every stride-th node."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "SCAN_STRIDE", stride)
        return defect_detect(*args)


def mean_ball_energy(d, grid, eps, r):
    """Total relaxation energy times the ball's area fraction: the average
    local energy over scan centers, so fractions of it give mixed hit sets
    (non-finite nodes left out)."""
    from selflow.diagnostics import _energy_density

    e = _energy_density(d, grid, eps, grid.bc_director) * grid.quad_weights()
    return float(np.sum(e[np.isfinite(e)])) * np.pi * r**2 / (grid.lx * grid.ly)


def scan_fields(grid):
    # the noisy director is off the sphere, so the penalty term counts too;
    # one NaN node makes every ball's exact energy NaN (NaN * 0 = NaN), and
    # an infinite one leaves inf on the balls that hold every inf node
    rng = np.random.default_rng(7)
    nan, inf = smooth_unit_director(grid, 0.4), smooth_unit_director(grid, 0.4)
    nan[1, grid.nx // 3, grid.ny // 2] = np.nan
    inf[1, grid.nx // 3, grid.ny // 2] = np.inf
    return {
        "smooth": smooth_unit_director(grid, 0.4),
        "vortex": vortex_director(grid, 0.37 * grid.lx, 0.61 * grid.ly, 2 * grid.hx),
        "noisy": smooth_unit_director(grid, 0.4) + 0.3 * rng.standard_normal((3, grid.nx, grid.ny)),
        "nan": nan,
        "inf": inf,
    }


SCAN_GRIDS = {
    "periodic64": Grid(64, 64),
    "periodic48x40": Grid(48, 40, ly=1.3),
    "periodic33x31": Grid(33, 31, lx=1.7),
    # 8h is half the period: the verify window must reach the +-n/2 node
    "periodic16": Grid(16, 16),
    "bounded32": Grid(32, 32, bc_director="neumann"),
    "bounded41x37": Grid(41, 37, bc_director="neumann"),
    # lx != ly; 8h does not fit, so the default radius is capped
    "dirichlet25x20": Grid(25, 20, lx=1.3, ly=0.9, bc_director="dirichlet"),
}


# inf * 0 in the exact sums of the "inf" scan field, in the scan as in the reference
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
class TestDefectScanEquivalence:
    """The bound-then-verify scan reproduces the per-center definition bit
    for bit: counts, centers, energies and the suppression order."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SCAN_GRIDS))
    def test_equals_per_center_scan(self, name, stride):
        grid = SCAN_GRIDS[name]
        r = default_defect_radius(grid)
        for d in scan_fields(grid).values():
            base = mean_ball_energy(d, grid, 0.2, r)
            for q in (0.5, 0.8, 1.0):
                thr = q * base
                centers = scan_at_stride(stride, d, grid, 0.2, r, thr)
                assert centers == per_center_defect_detect(d, grid, 0.2, r, thr, stride=stride)

    @pytest.mark.parametrize("cells", [5.0, 3.3])
    @pytest.mark.parametrize("name", sorted(SCAN_GRIDS))
    def test_equals_per_center_scan_at_smaller_radii(self, name, cells):
        grid = SCAN_GRIDS[name]
        r = cells * max(grid.hx, grid.hy)
        for d in scan_fields(grid).values():
            base = mean_ball_energy(d, grid, 0.2, r)
            for q in (0.5, 1.0):
                centers = defect_detect(d, grid, 0.2, r, q * base)
                assert centers == per_center_defect_detect(d, grid, 0.2, r, q * base)

    @pytest.mark.parametrize("thr", [-1.0, 0.0])
    @pytest.mark.parametrize("name", sorted(SCAN_GRIDS))
    def test_equals_per_center_scan_at_thresholds_up_to_zero(self, name, thr):
        # -1: every center is a hit; 0: the zero energy of a constant director is none
        grid = SCAN_GRIDS[name]
        r = default_defect_radius(grid)
        fields = dict(scan_fields(grid), constant=constant_director(grid, (0, 0, 1)))
        for d in fields.values():
            centers = scan_at_stride(3, d, grid, 0.2, r, thr)
            assert centers == per_center_defect_detect(d, grid, 0.2, r, thr, stride=3)

    def test_symmetric_ties_keep_their_order(self):
        # exact energy ties of the symmetric smooth director: a sum over the
        # in-ball nodes only reorders them and merges 4 centers into 2
        grid = Grid(48, 40, ly=1.3)
        r = 8 * max(grid.hx, grid.hy)
        d = smooth_unit_director(grid, 0.4)
        thr = 0.8 * mean_ball_energy(d, grid, 0.2, r)
        centers = scan_at_stride(3, d, grid, 0.2, r, thr)
        assert len(centers) == 4
        assert centers == per_center_defect_detect(d, grid, 0.2, r, thr, stride=3)

    def test_centers_are_plain_floats(self):
        grid = SCAN_GRIDS["periodic48x40"]
        d = scan_fields(grid)["vortex"]
        centers = defect_detect(d, grid, 0.2, 8 * grid.hy, 0.0)
        assert len(centers) > 0
        assert all(type(v) is float for c in centers for v in c)

    @settings(max_examples=25, deadline=None)
    @given(
        coeffs=arrays(np.float64, (2, 3, 3), elements=st.floats(-0.6, 0.6)),
        q=st.floats(0.3, 1.5),
        stride=st.integers(1, 3),
        bounded=st.booleans(),
    )
    def test_random_smooth_director(self, coeffs, q, stride, bounded):
        grid = (Grid(20, 18, bc_director="neumann") if bounded
                else Grid(20, 18, lx=1.2))
        X, Y = grid.meshgrid()
        k = 2 * np.pi * np.arange(3)
        modes = (np.cos(k[:, None, None, None] * X / grid.lx + 0.3)
                 * np.cos(k[None, :, None, None] * Y / grid.ly + 0.7))  # (3, 3, nx, ny)
        v1, v2 = np.einsum("ckl,klxy->cxy", coeffs, modes)
        norm = np.sqrt(v1**2 + v2**2 + 1.0)
        d = np.stack([v1 / norm, v2 / norm, 1.0 / norm])
        r = 4 * max(grid.hx, grid.hy)
        thr = q * mean_ball_energy(d, grid, 0.2, r)
        centers = scan_at_stride(stride, d, grid, 0.2, r, thr)
        assert centers == per_center_defect_detect(d, grid, 0.2, r, thr, stride=stride)

    @settings(max_examples=20, deadline=None)
    @given(
        x0=st.floats(0.05, 0.95),
        y0=st.floats(0.05, 0.95),
        core=st.floats(0.01, 0.2),
        q=st.floats(0.2, 3.0),
        stride=st.integers(1, 3),
        kind=st.sampled_from(["periodic", "neumann", "dirichlet"]),
    )
    def test_random_vortex(self, x0, y0, core, q, stride, kind):
        # hit-heavy: many centers pass the bound and are verified exactly
        grid = (Grid(20, 18, lx=1.2) if kind == "periodic" else
                Grid(20, 18, lx=1.2, bc_director=kind))
        d = vortex_director(grid, x0 * grid.lx, y0 * grid.ly, core)
        r = 4 * max(grid.hx, grid.hy)
        thr = q * mean_ball_energy(d, grid, 0.2, r)
        centers = scan_at_stride(stride, d, grid, 0.2, r, thr)
        assert centers == per_center_defect_detect(d, grid, 0.2, r, thr, stride=stride)


BOUND_GRIDS = [
    Grid(16, 16),
    Grid(20, 14, lx=1.3, ly=0.9),
    Grid(17, 16, bc_director="neumann"),
    Grid(20, 14, lx=1.3, ly=0.9, bc_director="dirichlet"),
]


class TestBallEnergyBound:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        grid=st.sampled_from(BOUND_GRIDS),
        cells=st.sampled_from([8.0, 5.0, 3.3, None]),
    )
    def test_bound_holds_at_every_node(self, data, grid, cells):
        # None: half the shorter side (the half period on periodic grids)
        from selflow.diagnostics import _ball_energy_bound, _bound_margin, _wrapped_dist_sq

        e_w = data.draw(arrays(np.float64, (grid.nx, grid.ny), elements=st.floats(0.0, 1e3)))
        r = 0.5 * min(grid.lx, grid.ly) if cells is None else cells * max(grid.hx, grid.hy)
        bound = _ball_energy_bound(e_w, grid, r) + _bound_margin(e_w)
        for i, x0 in enumerate(grid.x):
            for j, y0 in enumerate(grid.y):
                exact = np.sum(e_w * (_wrapped_dist_sq(grid, x0, y0) <= r**2))
                assert exact <= bound[i, j]

    @pytest.mark.parametrize("grid", BOUND_GRIDS, ids=["periodic", "periodic-lxly",
                                                       "bounded", "dirichlet-lxly"])
    def test_bound_holds_for_subnormal_energy(self, grid):
        # the FFT drops a lone subnormal value; the margin's floor keeps the bound
        from selflow.diagnostics import _ball_energy_bound, _bound_margin, _wrapped_dist_sq

        e_w = np.zeros((grid.nx, grid.ny))
        e_w[grid.nx // 2, grid.ny // 3] = 5e-324
        r = 3.3 * max(grid.hx, grid.hy)
        bound = _ball_energy_bound(e_w, grid, r) + _bound_margin(e_w)
        for i, x0 in enumerate(grid.x):
            for j, y0 in enumerate(grid.y):
                assert np.sum(e_w * (_wrapped_dist_sq(grid, x0, y0) <= r**2)) <= bound[i, j]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), grid=st.sampled_from(BOUND_GRIDS))
    def test_bound_is_tight_off_the_walls(self, data, grid):
        # the circular sum counts the ball's nodes alone on periodic grids,
        # and on bounded grids when e_w vanishes within r of the walls; at
        # 3.3 cells no lattice distance ties with r, so the bound is then the
        # exact energy up to rounding.  A kernel shifted by one node fails.
        from selflow.diagnostics import _ball_energy_bound, _bound_margin, _wrapped_dist_sq

        e_w = data.draw(arrays(np.float64, (grid.nx, grid.ny), elements=st.floats(0.0, 1e3)))
        r = 3.3 * max(grid.hx, grid.hy)
        if not grid.periodic:
            k = int(r / min(grid.hx, grid.hy)) + 1
            e_w[:k], e_w[-k:], e_w[:, :k], e_w[:, -k:] = 0.0, 0.0, 0.0, 0.0
        margin = _bound_margin(e_w)
        bound = _ball_energy_bound(e_w, grid, r)
        for i, x0 in enumerate(grid.x):
            for j, y0 in enumerate(grid.y):
                exact = np.sum(e_w * (_wrapped_dist_sq(grid, x0, y0) <= r**2))
                assert abs(bound[i, j] - exact) <= margin


class TestDefectScanCost:
    """The scan sums exactly only the centers its bound cannot rule out, and
    keeps no state between calls."""

    @staticmethod
    def _verified(monkeypatch):
        import selflow.diagnostics as dg

        seen = []
        real = dg._exact_ball_energies

        def counting(e_w, grid, r, ci, cj):
            seen.extend(zip(ci.tolist(), cj.tolist()))
            return real(e_w, grid, r, ci, cj)

        monkeypatch.setattr(dg, "_exact_ball_energies", counting)
        return seen

    @pytest.mark.parametrize("name", ["periodic48x40", "bounded32"])
    def test_threshold_above_every_bound_builds_no_mask(self, monkeypatch, name):
        from selflow.diagnostics import _energy_density

        grid = SCAN_GRIDS[name]
        seen = self._verified(monkeypatch)
        d = scan_fields(grid)["vortex"]
        # no ball holds more than the whole energy
        total = np.sum(_energy_density(d, grid, 0.2, grid.bc_director) * grid.quad_weights())
        assert len(defect_detect(d, grid, 0.2, default_defect_radius(grid), 1.01 * total)) == 0
        assert seen == []

    @pytest.mark.parametrize("name", ["periodic48x40", "bounded32"])
    def test_negative_threshold_verifies_each_center_once(self, monkeypatch, name):
        grid = SCAN_GRIDS[name]
        seen = self._verified(monkeypatch)
        r = default_defect_radius(grid)
        found = defect_detect(scan_fields(grid)["smooth"], grid, 0.2, r, -1.0)
        centers = [(i, j) for i in range(0, grid.nx, 2) for j in range(0, grid.ny, 2)
                   if grid.periodic or grid.contains_ball(grid.x[i], grid.y[j], r, 0)]
        assert sorted(seen) == centers
        assert len(found) > 0

    def test_scan_writes_nothing_to_the_grid_cache(self):
        grid = Grid(32, 32)
        grid.quad_weights()
        before = dict(grid._cache)
        for name in ("smooth", "vortex", "noisy"):
            defect_detect(scan_fields(grid)[name], grid, 0.2, default_defect_radius(grid), 0.0)
        assert grid._cache.keys() == before.keys()
        assert all(grid._cache[k] is v for k, v in before.items())


class TestEpsilonSweep:
    def _sweep(self, seed=0, eps_list=(0.3, 0.15), T=0.01, n=16):
        cfg = RunConfig(grid=f"{n}x{n}", eps=eps_list[0], T=T, dt="auto", modes=4,
                        sigma0=0.3, h_spec="const:0,0,0.5", init_u="taylor-green:1,0.2",
                        init_d="unit-smooth:0.4", track_budget=False, paths=1, seed=seed,
                        checkpoint_every=50, sweep_eps=",".join(map(str, eps_list)))
        return coupled_sweep(cfg)

    def test_deterministic_same_seed(self):
        r1 = self._sweep(seed=4)
        r2 = self._sweep(seed=4)
        for name in ("pairing_phi11", "pairing_phi21", "pairing_phi12", "penalty"):
            assert np.array_equal(r1.series.columns[name], r2.series.columns[name]), name

    def test_shapes_and_cauchy(self):
        r = self._sweep(eps_list=(0.4, 0.2, 0.1))
        cols = r.series.columns
        n_check = cols["t"].shape[-1]
        assert list(cols) == ["t", "penalty", "dev_norm", "defect_count",
                              "pairing_phi11", "pairing_phi21", "pairing_phi12"]
        for name, col in cols.items():
            assert col.shape == (1, 3, n_check), name
        assert list(r.cauchy.columns) == ["eps_hi", "eps_lo", "phi11", "phi21", "phi12"]
        for name, col in r.cauchy.columns.items():
            assert col.shape == (2,), name

    def test_eps_list_must_decrease(self):
        with pytest.raises(ValueError):
            self._sweep(eps_list=(0.1, 0.2))

    def test_penalty_deviation_bound(self):
        # || |d|^2-1 || <= 2 eps sqrt(sup int F_eps): algebraic consequence
        # of the definition of F_eps, checked on the sweep output
        r = self._sweep(eps_list=(0.3, 0.15), T=0.02)
        for a, eps in enumerate(r.eps_list):
            bound = 2.0 * eps * np.sqrt(max(r.series.columns["penalty"][0, a].max(), 0.0))
            assert r.series.columns["dev_norm"][0, a, -1] <= bound * (1 + 1e-9) + 1e-12


class TestGronwall:
    def test_zero_noise_no_growth(self, grid32):
        S = NoiseOperatorS(grid32, n_modes=2, sigma0=0.0)
        h = constant_director(grid32, (0, 0, 0))
        dt = stability_dt(0.5, grid32, 1, 1)
        params = Params(eps=0.5, xi1=0.0, xi2=0.0, dt=dt, T=0.02)
        res = _run(grid32, params, S, h, seed=1, checkpoint_every=20)
        total = res.series.columns["total"]
        assert np.max(total) <= total[0] * (1 + 1e-9)
