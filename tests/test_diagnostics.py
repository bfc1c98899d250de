"""Energy budget, pointwise identities, stress pairings, weak residuals,
multiplier residuals, defect detection, and the coupled sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from selflow import operators as ops
from selflow.diagnostics import (
    GeometryError,
    WeakFormTracker,
    budget_residual_series,
    default_defect_radius,
    default_defect_threshold,
    defect_detect,
    energy_budget_residual,
    gronwall_bound_check,
    local_energy,
    pohozaev_residual,
    sphere_generator_drift,
    stress_pairing,
    traceless_stress,
    triple_product_defects,
)
from selflow.config import RunConfig
from selflow.dynamics import Params, stability_dt
from selflow.ensemble import coupled_sweep
from selflow.fields import director_test_function, solenoidal_test_function
from selflow.grids import Grid
from selflow.initial import (
    constant_director,
    smooth_test_director,
    smooth_unit_director,
    taylor_green,
    vortex_director,
)
from selflow.noise import MagneticField, NoiseOperatorS, WienerDriver
from selflow.pathrun import simulate_path
from conftest import fit_order


def _run(grid, params, S, h, seed=0, u_amp=0.2, d_amp=0.4, budget=True, **kw):
    u0 = taylor_green(grid, 1, u_amp)
    d0 = smooth_unit_director(grid, d_amp)
    return simulate_path(grid, params, u0, d0, S, h, WienerDriver(seed, S.n_modes),
                         track_budget=budget, **kw)


def asym_velocity(grid, amp=0.2):
    """Multi-mode velocity with no lattice parity; projected."""
    from selflow.projection import leray_project

    X, Y = grid.meshgrid()
    v = np.stack(
        [
            amp * (np.sin(2 * np.pi * Y + 0.3)
                   + 0.4 * np.sin(4 * np.pi * X + 1.1) * np.cos(2 * np.pi * Y)),
            amp * 0.5 * np.cos(2 * np.pi * X) * np.sin(4 * np.pi * Y + 0.2),
        ]
    )
    u = leray_project(v, grid)
    return u


def asym_director(grid):
    """Multi-mode unit director with cross-phase modes."""
    X, Y = grid.meshgrid()
    v1 = 0.4 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y) + 0.25 * np.cos(
        4 * np.pi * X + 0.7)
    v2 = 0.35 * np.cos(2 * np.pi * X + 0.4) * np.sin(2 * np.pi * Y)
    nrm = np.sqrt(v1**2 + v2**2 + 1.0)
    return np.stack([v1 / nrm, v2 / nrm, 1.0 / nrm])


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
        assert rec["hs"] == 0.0  # u = 0 and additive seeds are zero

    def test_planar_wave_dirichlet_energy(self):
        for n in (32, 64):
            grid = Grid(n, n)
            X, _ = grid.meshgrid()
            k = 2 * np.pi
            d = np.stack([np.cos(k * X), np.sin(k * X), np.zeros_like(X)])
            val = 0.5 * ops.dirichlet_form_vec(d, d, grid)
            assert abs(val - 2 * np.pi**2) <= 30 * grid.hx**2 * 4 * np.pi**2

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
        h = MagneticField.constant(grid32, (0.1, 0.0, 0.4))
        resids = []
        for k in (1, 4):
            dt = stability_dt(0.5, grid32, 0.8, 1.3) / k
            params = Params(eps=0.5, mu=0.8, lam=1.7, gamma=1.3, xi1=0.9, xi2=0.7,
                            dt=dt, T=0.02)
            res = _run(grid32, params, S, h, seed=3)
            resids.append(abs(energy_budget_residual(res.series, params)))
        assert resids[1] < 0.6 * resids[0]

    def test_series_column(self, grid32, h_const):
        S = NoiseOperatorS(grid32, n_modes=4, sigma0=0.3)
        params = Params(eps=0.5, dt=1e-4, T=0.01)
        res = _run(grid32, params, S, h_const, checkpoint_every=20)
        col = budget_residual_series(res.series, params)
        assert col.shape == res.series.columns["t"].shape
        assert col[0] == 0.0


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
        T = traceless_stress(d, grid32, "periodic")
        trace = T[0, 0] + T[1, 1]
        assert np.max(np.abs(trace)) == 0.0

    def test_constant_director_zero(self, grid32):
        phi = solenoidal_test_function(grid32)
        val = stress_pairing(constant_director(grid32, (1, 0, 0)), grid32,
                             "periodic", phi)
        assert val == 0.0

    def test_planar_wave_tensor_value(self, grid32):
        X, _ = grid32.meshgrid()
        k = 2 * np.pi
        d = np.stack([np.cos(k * X), np.sin(k * X), np.zeros_like(X)])
        T = traceless_stress(d, grid32, "periodic")
        k_eff = np.sin(k * grid32.hx) / grid32.hx
        assert np.allclose(T[0, 0], 0.5 * k_eff**2, rtol=1e-12)
        assert np.allclose(T[1, 1], -0.5 * k_eff**2, rtol=1e-12)
        assert np.max(np.abs(T[0, 1])) <= 1e-12

    def test_pairing_matches_direct_quadrature(self, grid32, rng):
        d = smooth_test_director(grid32)
        phi = solenoidal_test_function(grid32, 2, 1)
        val = stress_pairing(d, grid32, "periodic", phi)
        T = traceless_stress(d, grid32, "periodic")
        gphi = ops.gradient(phi.field.values, grid32, "periodic")
        direct = float(
            np.sum((T[0, 0] * gphi[0, 0] + T[0, 1] * (gphi[0, 1] + gphi[1, 0])
                    + T[1, 1] * gphi[1, 1]) * grid32.quad_weights())
        )
        assert abs(val - direct) <= 1e-12 * (1 + abs(val))

    @pytest.mark.parametrize("bounded", [False, True])
    def test_batched_equals_per_lane(self, rng, bounded):
        # the sweep pairs every lane of a batch at once; each lane must be
        # the one-director value bit for bit
        grid = (Grid(32, 32, bc_velocity="noslip", bc_director="neumann") if bounded
                else Grid(33, 31, lx=1.7))
        d = rng.standard_normal((5, 3, grid.nx, grid.ny))
        for phi in (solenoidal_test_function(grid, 1, 1), solenoidal_test_function(grid, 2, 1)):
            batched = stress_pairing(d, grid, grid.bc_director, phi)
            lanes = [stress_pairing(lane, grid, grid.bc_director, phi) for lane in d]
            assert batched.shape == (5,)
            assert all(type(v) is float for v in lanes)
            assert np.array_equal(batched, lanes)


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
                            S, MagneticField.constant(grid32, (0, 0, 0)),
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
            h = MagneticField.constant(grid, (0, 0, 0.5))
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
        h = MagneticField.constant(grid32, (0, 0, 0.5))
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
        rep = pohozaev_residual(d, grid_bounded, 0.5, (0.5, 0.5), 0.2, "radial",
                                bc="neumann")
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
            grid = Grid(n, n, bc_velocity="noslip", bc_director="neumann")
            d = self.cross_director(grid)
            rep = pohozaev_residual(d, grid, 0.4, (0.5, 0.5), 0.25, choice,
                                    bc="neumann")
            resids.append(abs(rep.residual))
            hs.append(grid.hx)
        assert resids[2] < resids[0]
        assert fit_order(resids, hs) >= 1.0

    def test_planar_wave_x1_bulk_value(self):
        # X = (x1, 0): bulk terms reduce to 0.5 int(|d2 d|^2 - |d1 d|^2) + int F
        grid = Grid(96, 96, bc_velocity="noslip", bc_director="neumann")
        X, _ = grid.meshgrid()
        k = 2 * np.pi
        d = np.stack([np.cos(k * X), np.sin(k * X), np.zeros_like(X)])
        r = 0.25
        rep = pohozaev_residual(d, grid, 0.5, (0.5, 0.5), r, "x1", bc="none")
        area = np.pi * r**2
        expect = -0.5 * k**2 * area
        assert abs((rep.bulk_stress + rep.bulk_div) - expect) <= 0.05 * abs(expect)

    def test_smooth_director_relative_residual_small(self):
        # one grid, no refinement: the residual is a small share of the
        # identity's largest terms
        grid = Grid(48, 48, bc_velocity="noslip", bc_director="neumann")
        rep = pohozaev_residual(smooth_test_director(grid), grid, 0.5, (0.5, 0.5),
                                0.25, "radial", bc="neumann")
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
        (Grid(8, 8, bc_velocity="noslip", bc_director="neumann"), 8 / 7),
    ], ids=["32", "12", "12x24", "40x10", "bounded8"])
    def test_default_radius(self, grid, r):
        assert default_defect_radius(grid) == pytest.approx(r, rel=1e-15)
        if grid.periodic:
            default_defect_threshold(grid, 0.2)  # the default ball is accepted


class TestDefects:
    def test_uniform_director_empty(self, grid_bounded):
        d = constant_director(grid_bounded, (0, 0, 1))
        thr = default_defect_threshold(grid_bounded, 0.2)
        rep = defect_detect(d, grid_bounded, 0.2, 8 * grid_bounded.hx, thr,
                            bc="neumann")
        assert rep.count == 0

    def test_vortex_detected_at_core(self):
        grid = Grid(64, 64, bc_velocity="noslip", bc_director="neumann")
        core = 2 * grid.hx
        d = vortex_director(grid, 0.5, 0.5, core)
        r = 8 * grid.hx
        thr = default_defect_threshold(grid, 0.2)
        rep = defect_detect(d, grid, 0.2, r, thr, bc="neumann")
        assert rep.count == 1
        x, y, _ = rep.centers[0]
        assert np.hypot(x - 0.5, y - 0.5) <= 2 * grid.hx
        # local energy contrast between core and far field
        near = local_energy(d, grid, 0.2, (0.5, 0.5), r, bc="neumann")
        far = local_energy(d, grid, 0.2, (0.5 + 4 * r, 0.5), r, bc="neumann")
        assert near >= 5 * far

    def test_threshold_monotonicity(self):
        grid = Grid(64, 64, bc_velocity="noslip", bc_director="neumann")
        d = vortex_director(grid, 0.4, 0.6, 2 * grid.hx)
        r = 8 * grid.hx
        lo = defect_detect(d, grid, 0.2, r, 1e-4, bc="neumann")
        hi = defect_detect(d, grid, 0.2, r, 1e-1, bc="neumann")
        lo_centers = {(x, y) for x, y, _ in lo.centers}
        hi_centers = {(x, y) for x, y, _ in hi.centers}
        assert hi_centers <= lo_centers

    def test_threshold_above_total_energy_empty(self, grid_bounded):
        d = vortex_director(grid_bounded, 0.5, 0.5, 2 * grid_bounded.hx)
        total = local_energy(d, grid_bounded, 0.2, (0.5, 0.5), 0.45, bc="neumann")
        rep = defect_detect(d, grid_bounded, 0.2, 8 * grid_bounded.hx,
                            10 * total, bc="neumann")
        assert rep.count == 0


def per_center_defect_detect(d, grid, eps, r, delta0_sq, bc=None, stride=2):
    """Reference: the per-center scan that defined defect_detect, one
    distance field, mask and full-grid sum per center."""
    from selflow.diagnostics import _energy_density, _wrapped_dist_sq

    if bc is None:
        bc = grid.bc_director
    e_w = _energy_density(d, grid, eps, bc) * grid.quad_weights()
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


def mean_ball_energy(d, grid, eps, r):
    """Total relaxation energy times the ball's area fraction: the average
    local energy over scan centers, so fractions of it give mixed hit sets."""
    from selflow.diagnostics import _energy_density

    e = _energy_density(d, grid, eps, grid.bc_director)
    return float(np.sum(e * grid.quad_weights())) * np.pi * r**2 / grid.area


def scan_fields(grid):
    # the noisy director is off the sphere, so the penalty term counts too
    rng = np.random.default_rng(7)
    return {
        "smooth": smooth_unit_director(grid, 0.4),
        "vortex": vortex_director(grid, 0.37 * grid.lx, 0.61 * grid.ly, 2 * grid.hx),
        "noisy": smooth_unit_director(grid, 0.4) + 0.3 * rng.standard_normal((3, grid.nx, grid.ny)),
    }


SCAN_GRIDS = {
    "periodic64": Grid(64, 64),
    "periodic48x40": Grid(48, 40, ly=1.3),
    "periodic33x31": Grid(33, 31, lx=1.7),
    "bounded32": Grid(32, 32, bc_velocity="noslip", bc_director="neumann"),
    "bounded41x37": Grid(41, 37, bc_velocity="noslip", bc_director="neumann"),
}


class TestDefectScanEquivalence:
    """The cached, vectorized scan reproduces the per-center definition
    bit for bit: counts, centers, energies and the suppression order."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SCAN_GRIDS))
    def test_equals_per_center_scan(self, name, stride):
        grid = SCAN_GRIDS[name]
        r = 8 * max(grid.hx, grid.hy)
        for d in scan_fields(grid).values():
            base = mean_ball_energy(d, grid, 0.2, r)
            for q in (0.5, 0.8, 1.0):
                thr = q * base
                rep = defect_detect(d, grid, 0.2, r, thr, stride=stride)
                assert rep.centers == per_center_defect_detect(d, grid, 0.2, r, thr, stride=stride)
                assert rep.r == r and rep.delta0_sq == thr

    def test_symmetric_ties_keep_their_order(self):
        # exact energy ties of the symmetric smooth director: a sum over the
        # in-ball nodes only reorders them and merges 4 centers into 2
        grid = Grid(48, 40, ly=1.3)
        r = 8 * max(grid.hx, grid.hy)
        d = smooth_unit_director(grid, 0.4)
        thr = 0.8 * mean_ball_energy(d, grid, 0.2, r)
        rep = defect_detect(d, grid, 0.2, r, thr, stride=3)
        assert rep.count == 4
        assert rep.centers == per_center_defect_detect(d, grid, 0.2, r, thr, stride=3)

    def test_centers_are_plain_floats(self):
        grid = SCAN_GRIDS["periodic48x40"]
        d = scan_fields(grid)["vortex"]
        rep = defect_detect(d, grid, 0.2, 8 * grid.hy, 0.0)
        assert rep.count > 0
        assert all(type(v) is float for c in rep.centers for v in c)

    @settings(max_examples=25, deadline=None)
    @given(
        coeffs=arrays(np.float64, (2, 3, 3), elements=st.floats(-0.6, 0.6)),
        q=st.floats(0.3, 1.5),
        stride=st.integers(1, 3),
        bounded=st.booleans(),
    )
    def test_random_smooth_director(self, coeffs, q, stride, bounded):
        grid = (Grid(20, 18, bc_velocity="noslip", bc_director="neumann") if bounded
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
        rep = defect_detect(d, grid, 0.2, r, thr, stride=stride)
        assert rep.centers == per_center_defect_detect(d, grid, 0.2, r, thr, stride=stride)

    def test_masks_built_once_per_grid_radius_and_stride(self, monkeypatch):
        import selflow.diagnostics as dg

        builds = []
        real = dg._wrapped_dist_sq

        def counting(grid, x0, y0):
            builds.append((x0, y0))
            return real(grid, x0, y0)

        monkeypatch.setattr(dg, "_wrapped_dist_sq", counting)
        grid = Grid(32, 32)
        d = smooth_unit_director(grid, 0.4)
        r = 8 * grid.hx
        first = defect_detect(d, grid, 0.2, r, 0.0, stride=2)
        assert len(builds) == 16 * 16
        again = defect_detect(smooth_unit_director(grid, 0.2), grid, 0.1, r, 0.0, stride=2)
        assert len(builds) == 16 * 16
        assert first.count > 0 and again.count > 0
        defect_detect(d, grid, 0.2, r, 0.0, stride=3)
        assert len(builds) == 16 * 16 + 11 * 11


class TestEpsilonSweep:
    def _sweep(self, seed=0, eps_list=(0.3, 0.15), T=0.01, n=16):
        cfg = RunConfig(grid=f"{n}x{n}", eps=eps_list[0], T=T, dt="auto", modes=4,
                        sigma0=0.3, h_spec="const:0,0,0.5", init_u="taylor-green:1,0.2",
                        init_d="unit-smooth:0.4", track_budget=False, paths=1, seed=seed,
                        checkpoint_every=50, sweep_eps=",".join(map(str, eps_list)))
        return coupled_sweep(cfg).per_path[0]

    def test_deterministic_same_seed(self):
        r1 = self._sweep(seed=4)
        r2 = self._sweep(seed=4)
        assert np.array_equal(r1.pairings, r2.pairings)
        assert np.array_equal(r1.penalty, r2.penalty)

    def test_shapes_and_cauchy(self):
        r = self._sweep(eps_list=(0.4, 0.2, 0.1))
        assert r.pairings.shape[0] == 3
        assert r.cauchy().shape == (2, 3)
        assert r.sup_penalty.shape == (3,)

    def test_eps_list_must_decrease(self):
        with pytest.raises(ValueError):
            self._sweep(eps_list=(0.1, 0.2))

    def test_penalty_deviation_bound(self):
        # || |d|^2-1 || <= 2 eps sqrt(sup int F_eps): algebraic consequence
        # of the definition of F_eps, checked on the sweep output
        r = self._sweep(eps_list=(0.3, 0.15), T=0.02)
        for a, eps in enumerate(r.eps_list):
            bound = 2.0 * eps * np.sqrt(max(r.sup_penalty[a], 0.0))
            assert r.dev_norm[a, -1] <= bound * (1 + 1e-9) + 1e-12


class TestGronwall:
    def test_two_horizon_growth(self, grid32):
        S = NoiseOperatorS(grid32, n_modes=4, sigma0=0.3)
        h = MagneticField.constant(grid32, (0, 0, 0.5))
        dt = stability_dt(0.5, grid32, 1, 1)
        params = Params(eps=0.5, dt=dt, T=0.02)
        series = []
        for p in range(8):
            res = _run(grid32, params, S, h, seed=100 + p,
                       checkpoint_every=20)
            series.append(res.series)
        rep = gronwall_bound_check(series, params, S, h)
        assert rep.growth_ok
        assert np.isfinite(rep.second_moment)
        assert rep.second_moment_stable

    def test_zero_noise_no_growth(self, grid32):
        S = NoiseOperatorS(grid32, n_modes=2, sigma0=0.0)
        h = MagneticField.constant(grid32, (0, 0, 0))
        dt = stability_dt(0.5, grid32, 1, 1)
        params = Params(eps=0.5, xi1=0.0, xi2=0.0, dt=dt, T=0.02)
        res = _run(grid32, params, S, h, seed=1, checkpoint_every=20)
        total = res.series.columns["total"]
        assert np.max(total) <= total[0] * (1 + 1e-9)
