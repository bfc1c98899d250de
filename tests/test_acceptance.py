"""Acceptance battery: fourteen property-based criteria at desk scale.

Each test prints one PASS line with its measured numbers when it succeeds,
so `pytest -v -s tests/test_acceptance.py` reads as a checklist.  Fixtures
are shared where criteria refer to the same run (1 and 11 share the
deterministic 64^2 run; 3 and 12 share the 64-path ensemble).  Criteria
17 and 18 refine strongly coupled deterministic flows, so that the
advection and stress terms each leave a residual that does not converge
when wrong; numbers 13 to 16 are kept for the stochastic and limit
criteria still to come.
"""

import time

import numpy as np
import pytest

from selflow import operators as ops
from selflow.config import RunConfig, build_grid
from selflow.diagnostics import (
    WeakFormTracker,
    default_defect_radius,
    default_defect_threshold,
    defect_detect,
    energy_budget_residual,
    pohozaev_residual,
)
from selflow.dynamics import Params, stability_dt
from selflow.ensemble import coupled_sweep, lane_width, run_ensemble
from selflow.fields import director_test_function, solenoidal_test_function
from selflow.grids import Grid
from selflow.initial import (
    constant_director,
    mixed_unit_director,
    smooth_unit_director,
    taylor_green,
    vortex_director,
)
from selflow.noise import NoiseOperatorS, WienerDriver, coarsen_normals
from selflow.pathrun import simulate_batch, simulate_path
from conftest import (
    asym_director,
    asym_velocity,
    fit_order,
    sphere_generator_drift,
    subunit_director,
    triple_product_defects,
)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} PASS: {detail}")


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deterministic_run_64():
    """Criterion 1/11 run: periodic 64^2, eps = 0.2, no noise, stability dt."""
    grid = Grid(64, 64)
    eps = 0.2
    dt = stability_dt(eps, grid, 1.0, 1.0)
    params = Params(eps=eps, xi1=0.0, xi2=0.0, dt=dt, T=0.04)
    S = NoiseOperatorS(grid, n_modes=4, sigma0=0.3)
    h = constant_director(grid, (0.0, 0.0, 0.5))
    u0 = taylor_green(grid, 1, 0.2)
    d0 = smooth_unit_director(grid, 0.4)
    t0 = time.monotonic()
    res = simulate_path(grid, params, u0, d0, S, h, WienerDriver(0, 4),
                        checkpoint_every=25, track_budget=True,
                        track_invariants=True)
    elapsed = time.monotonic() - t0
    return res, params, elapsed


ENSEMBLE_CFG = RunConfig(
    grid="32x32", eps=0.2, T=0.5, dt="auto", seed=2024, modes=8, sigma0=0.3,
    xi1=1.0, xi2=1.0, h_spec="wave:0.3,0.3,0.5",
    init_u="taylor-green:1,0.2", init_d="unit-mixed:0.4",
    checkpoint_every=256, track_budget=False, paths=64,
)


@pytest.fixture(scope="module")
def ensemble_64paths():
    """Criterion 3/12 ensemble: M = 64, 32^2, T = 0.5."""
    return run_ensemble(ENSEMBLE_CFG)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_deterministic_dissipation(deterministic_run_64):
    res, params, elapsed = deterministic_run_64
    total = res.series.columns["total"]
    increases = np.maximum(np.diff(total), 0.0)
    violation = float(increases.sum())
    assert violation <= 1e-6 * total[0]
    assert elapsed <= 60.0
    report(1, f"energy {total[0]:.4f} -> {total[-1]:.4f}, cumulative increase "
              f"{violation:.2e} <= {1e-6 * total[0]:.2e}, runtime {elapsed:.1f}s")


def test_criterion_02_energy_budget_identity():
    grid = Grid(32, 32)
    eps, T = 0.5, 0.1
    dt0 = stability_dt(eps, grid, 1.0, 1.0)
    n0 = int(round(T / dt0))
    S = NoiseOperatorS(grid, n_modes=8, sigma0=0.3)
    h = constant_director(grid, (0.0, 0.0, 0.5))
    u0 = taylor_green(grid, 1, 0.2)
    d0 = smooth_unit_director(grid, 0.4)
    fine = WienerDriver(42, 8).normal_table(4 * n0)

    resids = []
    dissipated = None
    for factor in (4, 2, 1):  # dt0, dt0/2, dt0/4 on one Brownian path
        table = coarsen_normals(fine, factor) if factor > 1 else fine
        params = Params(eps=eps, dt=dt0 * factor / 4.0, T=T)
        res = simulate_path(grid, params, u0, d0, S, h, WienerDriver(42, 8),
                            checkpoint_every=10**9, normals_table=table,
                            track_budget=True)
        resids.append(abs(energy_budget_residual(res.series, params)))
        dissipated = (params.mu * res.series.columns["int_diss_u"][-1]
                      + params.lam * params.gamma * res.series.columns["int_diss_d"][-1])
    assert resids[0] > resids[1] > resids[2]
    order = 0.5 * np.log2(resids[0] / resids[2])
    assert order >= 0.5
    assert resids[2] <= 0.05 * dissipated
    report(2, f"residuals {resids[0]:.3e} > {resids[1]:.3e} > {resids[2]:.3e}, "
              f"order {order:.2f} >= 0.5, final {resids[2] / dissipated:.2%} of "
              f"dissipated {dissipated:.3f}")


def test_criterion_03_martingale_zero_mean(ensemble_64paths):
    stats = ensemble_64paths.stats.columns
    lines = []
    for name in ("ledger1", "ledger2"):
        mean, ci3 = stats[f"{name}_mean"][-1], 3.0 * stats[f"{name}_se"][-1]
        assert abs(mean) <= ci3
        lines.append(f"{name} = {mean:+.3e} (3se {ci3:.3e})")
    report(3, "; ".join(lines))


def test_criterion_04_sphere_conservation_in_law():
    # exact generator identity
    rng = np.random.default_rng(8)
    d = rng.uniform(-1, 1, (3, 8, 8))
    hv = rng.uniform(-1, 1, (3, 8, 8))
    gen = float(np.max(np.abs(sphere_generator_drift(d, hv, xi2=1.0))))
    assert gen <= 1e-14

    # ensemble bias of |d(T)|^2 - 1 for constant unit data
    grid = Grid(4, 4)
    h = constant_director(grid, (0.0, 0.0, 1.0))
    S = NoiseOperatorS(grid, n_modes=1, sigma0=0.0)
    d0 = constant_director(grid, (0.6, 0.0, 0.8))
    dt, T = 1e-3, 0.5
    params = Params(eps=0.2, xi1=0.0, xi2=1.0, dt=dt, T=T, dt_override=True)
    M = 64
    # the M paths run as the lanes of one batch; each lane is bit-identical
    # to a lone path on its driver
    batch = simulate_batch(grid, params, np.zeros((2, 4, 4)), d0, S, h,
                           [WienerDriver(7000 + p, 1) for p in range(M)],
                           checkpoint_every=10**9, track_budget=False)
    finals = ops.dot3(batch.state.d, batch.state.d)[:, 0, 0] - 1.0
    se = finals.std(ddof=1) / np.sqrt(M)
    tol = max(3.0 * se, 2.0 * dt * T * (params.xi2 * np.max(np.linalg.norm(h, axis=0))) ** 4)
    assert abs(finals.mean()) <= tol
    report(4, f"generator drift {gen:.1e} <= 1e-14; ensemble bias "
              f"{finals.mean():+.2e} <= {tol:.2e}")


def test_criterion_05_triple_product_identities():
    rng = np.random.default_rng(99)
    d = rng.uniform(-1.0, 1.0, (3, 100, 100))
    hv = rng.uniform(-1.0, 1.0, (3, 100, 100))
    t1, t2 = triple_product_defects(d, hv)
    worst = max(float(np.max(np.abs(t1))), float(np.max(np.abs(t2))))
    assert worst <= 1e-14
    report(5, f"worst defect over 10^4 pairs: {worst:.2e} <= 1e-14")


def test_criterion_06_maximum_principle_monitor():
    grid = Grid(32, 32)
    eps = 0.2
    dt = stability_dt(eps, grid, 1.0, 1.0)
    params = Params(eps=eps, xi1=0.0, xi2=0.0, dt=dt, T=0.1)
    S = NoiseOperatorS(grid, n_modes=2, sigma0=0.0)
    h = constant_director(grid, (0.0, 0.0, 0.0))
    d0 = subunit_director(grid, scale=0.9, amp=0.4)
    assert np.max(np.sqrt(ops.dot3(d0, d0))) <= 1.0
    res = simulate_path(grid, params, taylor_green(grid, 1, 0.2), d0, S, h,
                        WienerDriver(0, 2), checkpoint_every=50,
                        track_budget=False)
    bound = 1.0 + 10.0 * dt / eps**2
    worst = float(np.max(res.series.columns["max_abs_d"]))
    assert worst <= bound
    report(6, f"max |d| {worst:.6f} <= 1 + 10 dt/eps^2 = {bound:.6f}")


def test_criterion_07_pohozaev_refinement():
    def cross_director(grid):
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

    details = []
    for choice in ("radial", "x1", "shear"):
        resids, hs = [], []
        for n in (32, 64, 128):
            grid = Grid(n, n, bc_director="neumann")
            rep = pohozaev_residual(cross_director(grid), grid, 0.4,
                                    (0.5, 0.5), 0.25, choice)
            resids.append(abs(rep.residual))
            hs.append(grid.hx)
        order = fit_order(resids, hs)
        assert resids[2] < resids[0]
        assert order >= 1.0
        details.append(f"{choice}: order {order:.2f}")
    report(7, "; ".join(details))


@pytest.fixture(scope="module")
def shared_sweep():
    """Criterion 8/9 coupled sweep: eps in {0.2, 0.1, 0.05}, shared seed.

    The horizon covers the full relaxation transient of the largest eps, the
    director is multi-mode (no lattice parity), and the magnetic field is
    spatially varying so the director ledger is non-degenerate.
    """
    cfg = RunConfig(
        grid="32x32", T=0.1, dt="auto", seed=31, modes=8, sigma0=0.3,
        xi1=1.0, xi2=1.0, h_spec="wave:0.2,0.2,0.4",
        init_u="taylor-green:1,0.2", init_d="unit-mixed:0.4",
        checkpoint_every=68, track_budget=False, sweep_eps="0.2,0.1,0.05", paths=1,
    )
    return coupled_sweep(cfg)


def test_criterion_08_penalty_eps_scaling(shared_sweep):
    sup_pen = shared_sweep.series.columns["penalty"][0].max(axis=1)
    # one constant bounds sup_t int F_eps across the whole family
    assert np.max(sup_pen) <= 1.2 * sup_pen[0]
    dev = shared_sweep.series.columns["dev_norm"][0, :, -1]
    r1, r2 = dev[0] / dev[1], dev[1] / dev[2]
    assert r1 >= 1.5 and r2 >= 1.5
    report(8, f"sup penalty {[float(round(v, 5)) for v in sup_pen]} within 20% of "
              f"{sup_pen[0]:.4f}; |d^2-1| ratios per halving {r1:.2f}, {r2:.2f}")


def test_criterion_09_stress_pairing_cauchy(shared_sweep):
    # (2 gaps, 3 test functions); the mean over the one path is its gaps
    cauchy = np.stack([shared_sweep.cauchy.columns[n] for n in ("phi11", "phi21", "phi12")],
                      axis=-1)
    decreasing = int(np.sum(cauchy[0] > cauchy[1]))
    fired = shared_sweep.series.columns["defect_count"][0, :, -1]
    caveat = " (concentration caveat: defects detected)" if fired.any() else ""
    assert decreasing >= 2
    report(9, f"pairing Cauchy gaps {np.round(cauchy[0], 6)} -> "
              f"{np.round(cauchy[1], 6)}: {decreasing}/3 decreasing{caveat}")


def test_criterion_10_defect_detection():
    grid = Grid(64, 64, bc_director="neumann")
    core = 2.0 * grid.hx
    eps = 0.2
    r = 8.0 * grid.hx  # the default radius here
    thr = default_defect_threshold(grid, eps, default_defect_radius(grid))

    vortex = vortex_director(grid, 0.5, 0.5, core)
    centers = defect_detect(vortex, grid, eps, r, thr)
    assert len(centers) == 1
    x, y, _ = centers[0]
    assert np.hypot(x - 0.5, y - 0.5) <= 2.0 * grid.hx

    uniform = smooth_unit_director(grid, 0.05)
    assert len(defect_detect(uniform, grid, eps, r, thr)) == 0
    report(10, f"vortex: 1 center at ({x:.4f}, {y:.4f}) within 2h of core; "
               f"uniform: empty set (threshold {thr:.4f})")


def test_criterion_11_projection_and_transport(deterministic_run_64):
    res, params, _ = deterministic_run_64
    led = res.state.ledgers
    assert led.max_divergence <= 1e-10
    assert led.max_adv_ratio <= 1e-12
    report(11, f"max |div u| {led.max_divergence:.2e} <= 1e-10 every step; "
               f"max |<adv(u,u),u>|/(1+|u|^3) {led.max_adv_ratio:.2e} <= 1e-12")


def test_criterion_12_reproducibility(ensemble_64paths):
    first = ensemble_64paths
    # 64 paths in 4 lane groups of 16 at 32^2, permuted and run two at a time
    assert lane_width(build_grid(ENSEMBLE_CFG)) == 16
    shuffled_order = [3, 1, 2, 0]
    second = run_ensemble(ENSEMBLE_CFG, threads=2, order=shuffled_order)
    assert first.stats.columns.keys() == second.stats.columns.keys()
    for name, col in first.stats.columns.items():
        assert np.array_equal(col, second.stats.columns[name]), name
    assert first.series.columns.keys() == second.series.columns.keys()
    for k, col in first.series.columns.items():
        assert np.array_equal(col, second.series.columns[k])
    report(12, "identical config rerun with shuffled path execution order on "
               "two threads is bit-identical across every statistic and path series")


def test_criterion_17_weak_formulation_refinement():
    # joint refinement of a strong flow: every drift term pairs with some
    # test function, so a wrong velocity advection, director advection or
    # stress force leaves its equation's residuals stalled or growing
    eps, T = 0.5, 0.02
    t0 = time.monotonic()
    resids = []
    for n in (16, 32, 64):
        grid = Grid(n, n)
        u0 = asym_velocity(grid, 1.0)
        params = Params(eps=eps, xi1=0.0, xi2=0.0, T=T,
                        dt=stability_dt(eps, grid, 1.0, 1.0, umax=float(np.max(np.abs(u0)))))
        tracker = WeakFormTracker(
            grid, params,
            u_tests=[solenoidal_test_function(grid, kx, ky) for kx, ky in ((1, 1), (2, 1), (1, 2))],
            d_tests=[director_test_function(grid, kx, 1, component=c)
                     for c in range(3) for kx in (1, 2)])
        res = simulate_path(grid, params, u0, asym_director(grid),
                            NoiseOperatorS(grid, n_modes=2, sigma0=0.0),
                            constant_director(grid, (0.0, 0.0, 0.5)), WienerDriver(0, 2),
                            weak_tracker=tracker, track_budget=False)
        lane = res.weak_tracker
        resids.append({name: abs(r) for name, r in
                       {**lane.residual_u(res.state.u), **lane.residual_d(res.state.d)}.items()})
    elapsed = time.monotonic() - t0
    ratios = {name: [coarse[name] / fine[name]
                     for coarse, fine in zip(resids, resids[1:])] for name in resids[0]}
    assert len(ratios) == 9
    worst = [min(r[k] for r in ratios.values()) for k in (0, 1)]
    assert min(worst) >= 2.5, ratios
    report(17, f"9 weak-form residuals at 16^2/32^2/64^2, smallest ratio per halving "
               f"{worst[0]:.2f}, {worst[1]:.2f} >= 2.5, largest final "
               f"{max(resids[-1].values()):.2e}, runtime {elapsed:.1f}s")


def test_criterion_18_coupled_energy_budget():
    # a strong, slowly damped flow: the stress work and the director
    # transport exchange energy, and only their exact cancellation leaves
    # a first-order residual
    grid = Grid(32, 32)
    eps, mu, T = 0.5, 0.05, 0.05
    u0 = taylor_green(grid, 1, 2.0)
    d0 = mixed_unit_director(grid, 0.8)
    S = NoiseOperatorS(grid, n_modes=2, sigma0=0.0)
    h = constant_director(grid, (0.0, 0.0, 0.5))
    dt0 = stability_dt(eps, grid, mu, 1.0, umax=float(np.max(np.abs(u0))))
    t0 = time.monotonic()
    resids = []
    for k in (1, 2, 4, 8):
        params = Params(eps=eps, mu=mu, xi1=0.0, xi2=0.0, dt=dt0 / k, T=T)
        res = simulate_path(grid, params, u0, d0, S, h, WienerDriver(0, 2),
                            checkpoint_every=10**9, track_budget=True)
        resids.append(abs(energy_budget_residual(res.series, params)))
        dissipated = (params.mu * res.series.columns["int_diss_u"][-1]
                      + params.lam * params.gamma * res.series.columns["int_diss_d"][-1])
    elapsed = time.monotonic() - t0
    ratios = np.array(resids[:-1]) / resids[1:]
    assert np.all((ratios > 1.9) & (ratios < 2.1)), ratios
    report(18, f"residuals {', '.join(f'{r:.3e}' for r in resids)}, ratios "
               f"{', '.join(f'{r:.2f}' for r in ratios)} in (1.9, 2.1), final "
               f"{resids[-1] / dissipated:.2%} of dissipated {dissipated:.3f}, "
               f"runtime {elapsed:.1f}s")
