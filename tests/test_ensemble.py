"""Ensemble orchestration: seeding, statistics, reproducibility, sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selflow.config import RunConfig
from selflow.dynamics import Params, stability_dt
from selflow.ensemble import (
    EnsembleSpec,
    coupled_sweep,
    run_ensemble,
    run_path,
)
from selflow.grids import Grid
from selflow.initial import smooth_unit_director, taylor_green
from selflow.noise import MagneticField, NoiseOperatorS, WienerDriver, split_seed
from selflow.pathrun import simulate_batch, simulate_path
from selflow.projection import leray_project


def small_config(**kw):
    base = dict(grid="16x16", eps=0.3, T=0.01, dt="auto", seed=11, sigma0=0.3,
                modes=4, init_u="taylor-green:1,0.2", init_d="unit-smooth:0.4",
                track_budget=False, checkpoint_every=20)
    base.update(kw)
    return RunConfig(**base)


class TestSpec:
    def test_path_seeds_distinct(self):
        spec = EnsembleSpec(n_paths=64, base_seed=3)
        seeds = [spec.path_seed(i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert seeds[0] == split_seed(3, 0)

    def test_needs_paths(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n_paths=0)


class TestRunPath:
    def test_deterministic_in_seed(self):
        cfg = small_config()
        a = run_path(cfg, 42).series
        b = run_path(cfg, 42).series
        for k in a.columns:
            assert np.array_equal(a.columns[k], b.columns[k])

    def test_zero_noise_paths_identical(self):
        cfg = small_config(xi1=0.0, xi2=0.0)
        a = run_path(cfg, 1).series
        b = run_path(cfg, 2).series
        assert np.array_equal(a.columns["total"], b.columns["total"])

    def test_stability_refused(self):
        cfg = small_config(dt=1.0)
        from selflow.dynamics import StabilityError

        with pytest.raises(StabilityError):
            run_path(cfg, 0)


class TestRunEnsemble:
    def test_zero_noise_zero_variance(self):
        cfg = small_config(xi1=0.0, xi2=0.0)
        spec = EnsembleSpec(n_paths=4, base_seed=5, checkpoint_every=20)
        res = run_ensemble(spec, cfg)
        assert np.max(res.stats.var["total"]) == 0.0

    def test_ledger_means_near_zero(self):
        cfg = small_config(T=0.02)
        spec = EnsembleSpec(n_paths=24, base_seed=7, checkpoint_every=40)
        res = run_ensemble(spec, cfg)
        for name in ("ledger1", "ledger2"):
            mean, ci = res.stats.ledger_ci(name)
            assert abs(mean) <= ci + 1e-12

    def test_se_shrinks_with_more_paths(self):
        # quadrupling the path count should halve the standard error, within
        # the statistical slack band
        cfg = small_config(T=0.02)
        se = {}
        for m in (8, 32):
            res = run_ensemble(EnsembleSpec(n_paths=m, base_seed=9,
                                            checkpoint_every=40), cfg)
            se[m] = res.stats.se["ledger1"][-1]
        ratio = se[32] / se[8]
        assert 0.7 * 0.5 <= ratio <= 1.4 * 0.5

    def test_bit_identical_rerun_and_shuffle(self):
        cfg = small_config(T=0.01)
        spec = EnsembleSpec(n_paths=8, base_seed=21, checkpoint_every=20)
        a = run_ensemble(spec, cfg, batch_size=4)
        b = run_ensemble(spec, cfg, order=[1, 0], batch_size=4)
        for k in a.stats.mean:
            assert np.array_equal(a.stats.mean[k], b.stats.mean[k])
            assert np.array_equal(a.stats.max[k], b.stats.max[k])

    def test_batched_matches_per_path(self):
        # every lane equals its lone path bit for bit, whatever the batch
        for bc in ("periodic", "bounded"):
            cfg = small_config(T=0.01, bc=bc, track_budget=True)
            spec = EnsembleSpec(n_paths=5, base_seed=21, checkpoint_every=20,
                                track_budget=True)
            singles = [run_path(cfg, spec.path_seed(i)).series for i in range(5)]
            for batch_size in (1, 3, 5):
                batched = run_ensemble(spec, cfg, batch_size=batch_size)
                for lane, single in zip(batched.series, singles):
                    assert lane.columns.keys() == single.columns.keys()
                    for k in single.columns:
                        assert np.array_equal(lane.columns[k], single.columns[k]), (bc, batch_size, k)

    def test_sup_monotone_in_time(self):
        cfg = small_config(T=0.02)
        res = run_ensemble(EnsembleSpec(n_paths=4, base_seed=2,
                                        checkpoint_every=10), cfg)
        for s in res.series:
            tot = s.columns["total"]
            running = np.maximum.accumulate(tot)
            assert running[-1] >= running[len(tot) // 2]


@settings(max_examples=8, deadline=None)
@given(lanes=st.integers(1, 6), bounded=st.booleans(), budget=st.booleans(),
       seed=st.integers(0, 2**31))
def test_batch_lanes_equal_lone_paths(lanes, bounded, budget, seed):
    grid = Grid(16, 16, bc_velocity="noslip", bc_director="neumann") if bounded else Grid(16, 16)
    dt = stability_dt(0.3, grid, 1.0, 1.0)
    params = Params(eps=0.3, dt=dt, T=6 * dt)
    S = NoiseOperatorS(grid, n_modes=4, sigma0=0.3)
    h = MagneticField.wave(grid, (0.2, 0.2, 0.5))
    u0, _ = leray_project(taylor_green(grid, 1, 0.2), grid)
    d0 = smooth_unit_director(grid, 0.4)
    seeds = [split_seed(seed, i) for i in range(lanes)]
    opts = dict(checkpoint_every=3, track_budget=budget)
    batch = simulate_batch(grid, params, u0, d0, S, h,
                           [WienerDriver(s, 4) for s in seeds], **opts)
    for s, res in zip(seeds, batch):
        lone = simulate_path(grid, params, u0, d0, S, h, WienerDriver(s, 4), **opts)
        for k, col in lone.series.columns.items():
            assert np.array_equal(res.series.columns[k], col), k
        assert np.array_equal(res.state.u, lone.state.u)
        assert np.array_equal(res.state.d, lone.state.d)


class TestCoupledSweep:
    def test_single_path_reduces_to_epsilon_sweep(self):
        from selflow.config import (build_grid, build_initial_d, build_initial_u,
                                    build_magnetic_field, build_noise_operator,
                                    build_params)
        from selflow.diagnostics import epsilon_sweep
        from selflow.ensemble import default_sweep_test_functions

        cfg = small_config(T=0.005)
        spec = EnsembleSpec(n_paths=1, base_seed=13, checkpoint_every=20)
        res = coupled_sweep(spec, cfg, [0.3, 0.15])
        grid = build_grid(cfg)
        u0 = build_initial_u(cfg, grid)
        d0 = build_initial_d(cfg, grid)
        params = build_params(cfg, grid, umax=float(np.max(np.abs(u0))))
        direct = epsilon_sweep(grid, params, [0.3, 0.15], spec.path_seed(0),
                               build_noise_operator(cfg, grid),
                               build_magnetic_field(cfg, grid), u0, d0,
                               default_sweep_test_functions(grid),
                               checkpoint_every=20)
        assert np.array_equal(res.per_path[0].pairings, direct.pairings)
        assert np.array_equal(res.cauchy_mean, res.per_path[0].cauchy())

    def test_single_eps_empty_cauchy(self):
        cfg = small_config(T=0.005)
        spec = EnsembleSpec(n_paths=1, base_seed=13, checkpoint_every=20)
        res = coupled_sweep(spec, cfg, [0.3])
        assert res.cauchy_mean.shape[0] == 0
