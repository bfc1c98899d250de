"""Pointwise forces, single steps, the coupled stepper, and stability caps."""

import numpy as np
import pytest

from selflow import operators as ops
from selflow.dynamics import (
    BlowUpError,
    Params,
    SimState,
    StabilityError,
    gl_force,
    penalty_density,
    stability_dt,
    step_coupled,
    strat_correction,
)
from selflow.diagnostics import ericksen_tensor
from selflow.fields import solenoidal_test_function
from selflow.grids import Grid
from selflow.initial import (
    constant_director,
    smooth_unit_director,
    taylor_green,
)
from selflow.noise import MagneticField, NoiseOperatorS, WienerDriver, coarsen_normals
from selflow.pathrun import record_columns, simulate_path
from selflow.projection import leray_project
from conftest import fit_order, subunit_director, taylor_green_rate


class TestGlForce:
    def test_unit_sphere_vanishes(self, grid32):
        d = smooth_unit_director(grid32)
        assert np.max(np.abs(gl_force(d, 0.3))) <= 1e-12

    def test_zero_vanishes(self):
        assert np.max(np.abs(gl_force(np.zeros((3, 4, 4)), 1.0))) == 0.0

    def test_direct_value(self):
        d = np.zeros((3, 4, 4))
        d[0] = 2.0
        out = gl_force(d, 1.0)
        assert np.allclose(out[0], 6.0) and np.allclose(out[1:], 0.0)

    def test_eps_positive_required(self):
        with pytest.raises(ValueError):
            gl_force(np.zeros((3, 4, 4)), 0.0)


class TestPenalty:
    def test_sphere_zero(self, grid32):
        assert np.max(penalty_density(smooth_unit_director(grid32), 0.5)) <= 1e-12

    def test_origin_value(self):
        assert penalty_density(np.zeros((3, 4, 4)), 1.0)[0, 0] == 0.25

    def test_gradient_consistency_finite_differences(self, rng):
        # central-difference oracle in the three director components
        d = rng.uniform(-1.2, 1.2, (3, 6, 6))
        eps = 0.37
        force = gl_force(d, eps)
        delta = 1e-6
        for c in range(3):
            dp = d.copy()
            dm = d.copy()
            dp[c] += delta
            dm[c] -= delta
            fd = (penalty_density(dp, eps) - penalty_density(dm, eps)) / (2 * delta)
            denom = np.max(np.abs(force[c])) + 1e-12
            assert np.max(np.abs(fd - force[c])) / denom <= 1e-6


class TestStratCorrection:
    def test_parallel_vanishes(self, rng):
        d = rng.standard_normal((3, 6, 6))
        assert np.max(np.abs(strat_correction(d, 3.0 * d))) <= 1e-12

    def test_triple_product_value(self):
        d = np.zeros((3, 4, 4))
        d[0] = 1.0
        h = np.zeros((3, 4, 4))
        h[2] = 1.0
        out = strat_correction(d, h, xi2=1.0)
        assert np.allclose(out[0], -0.5) and np.allclose(out[1:], 0.0)

    def test_pairing_with_director(self, rng):
        d = rng.standard_normal((3, 6, 6))
        h = rng.standard_normal((3, 6, 6))
        xi2 = 1.3
        dxh = ops.cross(d, h)
        lhs = ops.dot3(strat_correction(d, h, xi2), d)
        rhs = -0.5 * xi2**2 * ops.dot3(dxh, dxh)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * (1 + np.max(np.abs(rhs)))


def _stress_div(d, grid, bc):
    """Reference divergence of the Ericksen tensor of an unbatched director,
    (div sigma)_j = d_i sigma_ij."""
    sig = ericksen_tensor(d, grid, bc)
    return np.stack([ops.deriv(sig[0, j], grid, 0, bc) + ops.deriv(sig[1, j], grid, 1, bc)
                     for j in range(2)])


class TestEricksenStress:
    def test_constant_director_zero(self, grid32):
        d = constant_director(grid32, (0.4, -0.3, 0.8))
        assert np.max(np.abs(_stress_div(d, grid32, "periodic"))) == 0.0

    def test_planar_wave_tensor(self, grid32):
        X, _ = grid32.meshgrid()
        k = 2 * np.pi
        d = np.stack([np.cos(k * X), np.sin(k * X), np.zeros_like(X)])
        sig = ericksen_tensor(d, grid32, "periodic")
        k_eff = np.sin(k * grid32.hx) / grid32.hx  # central-difference symbol
        assert np.allclose(sig[0, 0], k_eff**2, rtol=1e-12)
        assert np.max(np.abs(sig[0, 1])) <= 1e-12
        assert np.max(np.abs(sig[1, 1])) <= 1e-12
        div = _stress_div(d, grid32, "periodic")
        assert np.max(np.abs(div)) <= 1e-10  # constant tensor

    def test_adjoint_consistency(self, rng):
        # <div sigma, phi> = -<sigma, grad phi> within O(h^2)
        errs = []
        for n in (32, 64):
            grid = Grid(n, n)
            X, Y = grid.meshgrid()
            d = np.stack(
                [
                    0.5 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y),
                    0.4 * np.cos(2 * np.pi * X),
                    0.8 + 0.1 * np.sin(2 * np.pi * Y),
                ]
            )
            phi = solenoidal_test_function(grid, 1, 1).field.values
            div = _stress_div(d, grid, "periodic")
            sig = ericksen_tensor(d, grid, "periodic")
            gphi = ops.gradient(phi, grid, "periodic")
            lhs = ops.pair_vec(div, phi, grid)
            rhs = -float(np.sum(sig * gphi * grid.quad_weights()))
            errs.append(abs(lhs - rhs))
        assert errs[0] <= 1e-10 or errs[1] < errs[0] / 2

    def test_reduced_equals_divergence_up_to_gradient(self, grid32):
        # the stepper's reduced stress force and the tensor divergence
        # differ by a near-gradient: after projection they agree to O(h^2).
        # From rest with dt = lam = 1 and no noise, one step gives
        # u+ = P(-reduced force).
        S = NoiseOperatorS(grid32, n_modes=1, sigma0=0.0)
        h = MagneticField.constant(grid32, (0.0, 0.0, 0.0))
        d = smooth_unit_director(grid32, 0.5)
        params = Params(eps=0.5, xi1=0.0, xi2=0.0, dt=1.0, T=1.0)
        state = SimState.initial(grid32, np.zeros((2, 32, 32)), d)
        step_coupled(state, params, S, h, np.zeros(2))
        rest = state.u - leray_project(-_stress_div(d, grid32, "periodic"), grid32)
        assert np.sqrt(ops.pair_vec(rest, rest, grid32)) <= 30 * grid32.hx**2


def _setup(grid, eps=0.2, xi1=1.0, xi2=1.0, dt=None, T=0.01, sigma0=0.3, h3=0.5):
    if dt is None:
        dt = stability_dt(eps, grid, 1.0, 1.0)
    params = Params(eps=eps, xi1=xi1, xi2=xi2, dt=dt, T=T)
    S = NoiseOperatorS(grid, n_modes=4, sigma0=sigma0)
    h = MagneticField.constant(grid, (0.0, 0.0, h3))
    return params, S, h


def _step_from(grid, params, S, h, u0, d0, normals=None):
    """One step_coupled from (u0, d0); zero normals unless given."""
    state = SimState.initial(grid, u0, d0)
    if normals is None:
        normals = np.zeros(S.n_modes + 1)
    return step_coupled(state, params, S, h, normals)


class TestStepDirector:
    def test_stationary_unit_constant(self, grid32):
        params, S, h = _setup(grid32, xi2=0.0)
        d0 = constant_director(grid32, (0.6, 0.0, 0.8))
        state = _step_from(grid32, params, S, h, np.zeros((2, 32, 32)), d0)
        assert np.max(np.abs(state.d - d0)) <= 1e-14

    def test_pure_relaxation_step_value(self, grid32):
        # single explicit step: d = (2,0,0), eps=1, gamma=1, dt=0.01 -> 1.94
        params = Params(eps=1.0, xi1=0.0, xi2=0.0, dt=0.01, T=1.0)
        S = NoiseOperatorS(grid32, n_modes=1, sigma0=0.0)
        h = MagneticField.constant(grid32, (0.0, 0.0, 0.0))
        state = _step_from(grid32, params, S, h, np.zeros((2, 32, 32)),
                           constant_director(grid32, (2.0, 0.0, 0.0)))
        assert np.allclose(state.d[0], 1.94, atol=1e-12)
        assert np.max(np.abs(state.d[1:])) == 0.0

    def test_generator_drift_of_sphere_functional(self, grid32):
        # drift of |d|^2/2 for constant unit d, u = 0, xi2 = 1: exact zero
        from selflow.diagnostics import sphere_generator_drift

        d = constant_director(grid32, (0.36, 0.48, 0.8))
        h = MagneticField.constant(grid32, (0.0, 0.0, 1.0))
        drift = sphere_generator_drift(d, h.values, xi2=1.0)
        assert np.max(np.abs(drift)) <= 1e-15


class TestStepVelocity:
    def test_rest_state_stays(self, grid32):
        params, S, h = _setup(grid32, xi1=0.0)
        state = _step_from(grid32, params, S, h, np.zeros((2, 32, 32)),
                           constant_director(grid32, (0, 0, 1)))
        assert np.max(np.abs(state.u)) <= 1e-14

    def test_taylor_green_decay(self):
        # kinetic energy decays at rate 2 mu kappa^2 within 2%
        grid = Grid(128, 128)
        mu = 1.0
        u0 = taylor_green(grid, 1, 0.1)
        d0 = constant_director(grid, (0, 0, 1))
        dt = stability_dt(0.5, grid, mu, 1.0)
        params = Params(eps=0.5, mu=mu, xi1=0.0, xi2=0.0, dt=dt, T=1.0)
        S = NoiseOperatorS(grid, n_modes=1, sigma0=0.0)
        h = MagneticField.constant(grid, (0, 0, 0))
        state = SimState.initial(grid, u0, d0)
        rate = taylor_green_rate(grid, 1, mu)
        T = 1.2 / rate
        n = int(round(T / dt))
        e0 = 0.5 * ops.pair_vec(u0, u0, grid)
        for _ in range(n):
            step_coupled(state, params, S, h, np.zeros(2))
        e1 = 0.5 * ops.pair_vec(state.u, state.u, grid)
        expected = e0 * np.exp(-rate * n * dt)
        assert abs(e1 - expected) / expected <= 0.02

    def test_noise_step_divergence_free(self, grid32, rng):
        params, S, h = _setup(grid32)
        u0 = leray_project(rng.standard_normal((2, 32, 32)) * 0.1, grid32)
        state = _step_from(grid32, params, S, h, u0, smooth_unit_director(grid32),
                           rng.standard_normal(5) * 0.01 / np.sqrt(params.dt))
        div = ops.divergence(state.u, grid32, "periodic")
        assert np.max(np.abs(div)) <= 1e-10


class TestStepCoupled:
    def test_deterministic_ledgers_stay_zero(self, grid32):
        params, S, h = _setup(grid32, xi1=0.0, xi2=0.0)
        state = SimState.initial(grid32, taylor_green(grid32, 1, 0.1),
                                 smooth_unit_director(grid32))
        for normals in WienerDriver(0, 4).normal_table(5):
            step_coupled(state, params, S, h, normals)
        assert state.ledgers.noise_u == 0.0
        assert float(np.abs(state.ledgers.noise_d)) == 0.0

    def test_same_seed_bit_identical(self, grid32):
        params, S, h = _setup(grid32)
        outs = []
        for _ in range(2):
            state = SimState.initial(grid32, taylor_green(grid32, 1, 0.1),
                                     smooth_unit_director(grid32))
            for normals in WienerDriver(99, 4).normal_table(10):
                step_coupled(state, params, S, h, normals)
            outs.append((state.u.copy(), state.d.copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_strong_order_under_path_coupling(self, grid32):
        # same Brownian path, dt halved twice: terminal difference shrinks
        # with observed strong order >= 0.5
        params, S, h = _setup(grid32, eps=0.5, T=0.02)
        u0 = taylor_green(grid32, 1, 0.1)
        d0 = smooth_unit_director(grid32)
        dt0 = params.dt
        n0 = int(round(0.02 / dt0))
        fine = WienerDriver(7, 4).normal_table(4 * n0)
        states = {}
        for factor in (4, 2, 1):
            table = coarsen_normals(fine, factor) if factor > 1 else fine
            p = Params(eps=0.5, xi1=1.0, xi2=1.0, dt=dt0 * factor / 4, T=0.02)
            res = simulate_path(grid32, p, u0, d0, S, h, WienerDriver(7, 4),
                                checkpoint_every=10**9, track_budget=False,
                                normals_table=table)
            states[factor] = res.state
        errs = {}
        for factor in (4, 2):
            du, dd = states[factor].u - states[1].u, states[factor].d - states[1].d
            errs[factor] = (np.sqrt(ops.pair_vec(du, du, grid32))
                            + np.sqrt(ops.pair_vec(dd, dd, grid32)))
        err_coarse, err_mid = errs[4], errs[2]
        assert err_mid < err_coarse
        order = np.log2(err_coarse / err_mid) - 0.0
        assert order >= 0.5

    def test_blowup_detected(self, grid32):
        params = Params(eps=0.2, xi1=0.0, xi2=0.0, dt=0.5, T=1.0, dt_override=True)
        S = NoiseOperatorS(grid32, n_modes=2, sigma0=0.0)
        h = MagneticField.constant(grid32, (0, 0, 0))
        state = SimState.initial(grid32, taylor_green(grid32, 1, 1.0),
                                 smooth_unit_director(grid32))
        with pytest.raises(BlowUpError), np.errstate(over="ignore", invalid="ignore"):
            for normals in WienerDriver(0, 2).normal_table(400):
                step_coupled(state, params, S, h, normals)


class TestBoundedModes:
    def test_noslip_neumann_run(self):
        from selflow.pathrun import simulate_path
        from selflow.projection import interior_divergence_max
        from selflow.initial import smooth_unit_director as sud

        grid = Grid(24, 24, bc_velocity="noslip", bc_director="neumann")
        X, Y = grid.meshgrid()
        u0 = np.stack([np.sin(np.pi * X) * np.sin(np.pi * Y) * 0.2,
                       (X * (1 - X) * Y * (1 - Y)) * 0.4])
        u0 = leray_project(u0, grid)
        dt = stability_dt(0.5, grid, 1.0, 1.0)
        params = Params(eps=0.5, xi1=0.0, xi2=0.0, dt=dt, T=50 * dt)
        S = NoiseOperatorS(grid, n_modes=2, sigma0=0.0)
        h = MagneticField.constant(grid, (0, 0, 0))
        res = simulate_path(grid, params, u0, sud(grid, 0.3), S, h,
                            WienerDriver(0, 2), checkpoint_every=10,
                            track_budget=False)
        u = res.state.u
        assert np.max(np.abs(u[:, 0, :])) == 0.0  # no-slip enforced
        assert interior_divergence_max(u, grid) <= 1e-10
        total = res.state.d
        assert np.all(np.isfinite(total))

    def test_bounded_invariant_monitors(self):
        # the per-step divergence monitor reads the interior of every lane
        grid = Grid(16, 16, bc_velocity="noslip", bc_director="neumann")
        dt = stability_dt(0.5, grid, 1.0, 1.0)
        params = Params(eps=0.5, dt=dt, T=20 * dt)
        S = NoiseOperatorS(grid, n_modes=4, sigma0=0.3)
        h = MagneticField.constant(grid, (0, 0, 0.5))
        res = simulate_path(grid, params, np.zeros((2, 16, 16)),
                            smooth_unit_director(grid, 0.3), S, h,
                            WienerDriver(3, 4), checkpoint_every=10,
                            track_invariants=True)
        assert 0.0 < res.invariants.max_divergence <= 1e-10
        assert np.isfinite(res.invariants.max_adv_ratio)

    def test_dirichlet_director_pinned(self):
        from selflow.pathrun import simulate_path
        from selflow.initial import smooth_unit_director as sud

        grid = Grid(16, 16, bc_velocity="noslip", bc_director="dirichlet")
        d0 = sud(grid, 0.3)
        dt = stability_dt(0.5, grid, 1.0, 1.0)
        params = Params(eps=0.5, xi1=0.0, xi2=1.0, dt=dt, T=30 * dt)
        S = NoiseOperatorS(grid, n_modes=2, sigma0=0.0)
        h = MagneticField.constant(grid, (0, 0, 0.5))
        res = simulate_path(grid, params, np.zeros((2, 16, 16)), d0, S, h,
                            WienerDriver(4, 2), checkpoint_every=10,
                            track_budget=False)
        d = res.state.d
        assert np.array_equal(d[:, 0, :], d0[:, 0, :])
        assert np.array_equal(d[:, :, -1], d0[:, :, -1])
        assert not np.allclose(d[:, 5:-5, 5:-5], d0[:, 5:-5, 5:-5])

    def test_bare_step_keeps_dirichlet_wall(self):
        # the step pins the wall itself; a direct caller supplies nothing
        grid = Grid(16, 16, bc_velocity="noslip", bc_director="dirichlet")
        d0 = smooth_unit_director(grid, 0.3)
        dt = stability_dt(0.5, grid, 1.0, 1.0)
        params = Params(eps=0.5, xi1=0.0, xi2=1.0, dt=dt, T=dt)
        S = NoiseOperatorS(grid, n_modes=2, sigma0=0.0)
        h = MagneticField.constant(grid, (0, 0, 0.5))
        state = SimState.initial(grid, np.zeros((2, 16, 16)), d0)
        step_coupled(state, params, S, h, WienerDriver(4, 2).normal_table(1)[0])
        assert not np.array_equal(state.d, d0)
        for wall in (np.s_[:, 0, :], np.s_[:, -1, :], np.s_[:, :, 0], np.s_[:, :, -1]):
            assert np.array_equal(state.d[wall], d0[wall])


def _two_lane_state(grid: Grid) -> SimState:
    """Two paths with different smooth, divergence-free velocities and
    directors."""
    X, Y = grid.meshgrid()
    if grid.periodic:
        u = taylor_green(grid, 1, 0.2)
    else:
        u = np.stack([0.2 * np.sin(np.pi * X) * np.sin(np.pi * Y),
                      0.4 * X * (1 - X) * Y * (1 - Y)])
    u = leray_project(np.stack([u, -0.5 * u[::-1]]), grid)
    d = np.stack([smooth_unit_director(grid, 0.3), smooth_unit_director(grid, 0.5)])
    return SimState.initial(grid, u, d)


class TestBudgetLedgers:
    @pytest.mark.parametrize("bc", ["periodic", "bounded"])
    def test_step_ledgers_advance_by_record_integrands(self, bc):
        # one budget step adds dt times the record's integrand at the start
        # state to each running time integral, per path
        grid = (Grid(16, 16) if bc == "periodic"
                else Grid(16, 16, bc_velocity="noslip", bc_director="neumann"))
        params = Params(eps=0.5, dt=1e-4, T=1e-4)
        S = NoiseOperatorS(grid, n_modes=4, sigma0=0.3)
        h = MagneticField.wave(grid, (0.2, 0.2, 0.5))
        state = _two_lane_state(grid)
        rec = record_columns(state, params, S, h)
        normals = np.stack([WienerDriver(s, 4).normal_table(1)[0] for s in (1, 2)])
        step_coupled(state, params, S, h, normals, track_budget=True)
        led = state.ledgers
        for ledger, column in (("int_diss_u", "dissipation_u"), ("int_diss_d", "dissipation_d"),
                               ("int_hs", "hs"), ("int_strat", "strat_drift")):
            want = params.dt * rec[column]
            assert want.shape == (2,) and np.all(want != 0.0)
            np.testing.assert_allclose(getattr(led, ledger), want, rtol=1e-14, atol=0.0)


class TestTransportCancellation:
    def test_penalty_transport_second_order(self):
        # In the continuum <(u.grad)d, f_eps(d)> = <u, grad F_eps(d)> = 0
        # for div u = 0, with F_eps the penalty density.  (u.grad)d uses
        # central differences, whose chain rule is off by O(h^2):
        # D_h F(d) != F'(d) D_h d.  u is discretely divergence-free, so
        # sum u . D_h F(d) vanishes by summation by parts and the pairing is
        # u paired with that defect: it decays at second order.
        #
        # A single first harmonic per axis cannot show this.  For such a mode
        # D_h = kappa(h) * d/dx exactly, kappa(h) = sin(2 pi h) / (2 pi h), so
        # the discrete chain rule holds exactly and the pairing is
        # kappa(h) * (rectangle rule of div(u F_eps(d))).  The integrand is a
        # trig polynomial of degree <= 5 per axis, which the rectangle rule
        # integrates exactly, to zero.  The control below is such a fixture:
        # it stays at rounding on every grid.  The sin(4 pi y) term in d_2
        # is damped by sin(4 pi h) / (4 pi h) instead, which breaks the chain
        # rule at O(h^2).

        vals, controls, hs = [], [], []
        for n in (32, 64, 128):
            grid = Grid(n, n)
            X, Y = grid.meshgrid()
            v = np.stack([np.sin(2 * np.pi * Y + 0.4) * 0.3,
                          np.sin(2 * np.pi * X) * 0.2])
            u = leray_project(v, grid)
            d1 = 0.7 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
            d2 = 0.5 * np.cos(2 * np.pi * X + 0.3)
            d3 = 0.6 + 0.2 * np.sin(2 * np.pi * Y)
            d2_mixed = d2 + 0.2 * np.sin(4 * np.pi * Y)
            for out, d in ((controls, np.stack([d1, d2, d3])),
                           (vals, np.stack([d1, d2_mixed, d3]))):
                g = ops.gradient(d, grid, "periodic")
                adv = u[0:1] * g[:, 0] + u[1:2] * g[:, 1]  # as in step_coupled
                pair = ops.pair_vec(adv, gl_force(d, 0.5), grid)
                out.append(abs(pair))
            hs.append(grid.hx)
        assert max(controls) < 1e-15
        assert vals[0] > 1e-8  # far above rounding, so the order is real
        assert vals[2] < vals[1] < vals[0]
        assert vals[0] / vals[2] > 8.0  # ~ h^2
        assert 1.8 < fit_order(vals, hs) < 2.2


class TestStabilityDt:
    def test_penalty_stiffness_dominates(self):
        grid = Grid(11, 11)  # h = 1/11 ... use explicit lengths for h = 0.1
        grid = Grid(10, 10, lx=1.0, ly=1.0)  # periodic: h = 0.1
        cap = stability_dt(0.01, grid, 1.0, 1.0)
        assert cap == pytest.approx(2.5e-5)

    def test_viscosity_dominates(self):
        grid = Grid(10, 10)
        cap = stability_dt(1.0, grid, 100.0, 1.0)
        assert cap == pytest.approx(grid.hx**2 / 800.0)

    def test_advective_bound_governs(self):
        grid = Grid(10, 10)
        cap_still = stability_dt(1.0, grid, 1.0, 1.0)
        cap_fast = stability_dt(1.0, grid, 1.0, 1.0, umax=100.0)
        assert cap_fast < cap_still
        assert cap_fast == pytest.approx(grid.hx / 400.0)

    def test_stability_refusal(self, grid32):
        params, S, h = _setup(grid32, dt=1.0)
        with pytest.raises(StabilityError):
            simulate_path(grid32, params, np.zeros((2, 32, 32)),
                          smooth_unit_director(grid32), S, h, WienerDriver(0, 4))

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError):
            Params(eps=0.2, dt=dt, T=1.0)


class TestMaximumPrinciple:
    def test_deterministic_bound(self, grid32):
        eps = 0.2
        dt = stability_dt(eps, grid32, 1.0, 1.0)
        params = Params(eps=eps, xi1=0.0, xi2=0.0, dt=dt, T=0.05)
        S = NoiseOperatorS(grid32, n_modes=2, sigma0=0.0)
        h = MagneticField.constant(grid32, (0, 0, 0))
        res = simulate_path(grid32, params, taylor_green(grid32, 1, 0.2),
                            subunit_director(grid32), S, h, WienerDriver(0, 2),
                            checkpoint_every=20, track_budget=False)
        bound = 1.0 + 10.0 * dt / eps**2
        assert np.max(res.series.columns["max_abs_d"]) <= bound
