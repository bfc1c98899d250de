"""Ensemble orchestration: seeding, statistics, reproducibility, sweeps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selflow.config import (
    ConfigError,
    RunConfig,
    build_grid,
    build_initial_d,
    build_initial_u,
    build_magnetic_field,
    build_noise_operator,
    build_params,
    parse_config,
)
from selflow.diagnostics import default_defect_threshold, defect_detect, stress_pairing
from selflow.dynamics import Params, stability_dt
from selflow.ensemble import (
    coupled_sweep,
    default_sweep_test_functions,
    lane_width,
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
        # one step per path: only the seeds are under test
        seeds = run_ensemble(small_config(paths=64, seed=3, T=1e-6)).seeds
        assert len(set(seeds)) == 64
        assert seeds[0] == split_seed(3, 0)

    def test_needs_paths(self):
        with pytest.raises(ConfigError):
            parse_config("ensemble.paths = 0\n")


class TestLaneWidth:
    # 16384 grid nodes per lane group, and never fewer than one path
    @pytest.mark.parametrize("nx, ny, width", [
        (16, 16, 64), (32, 32, 16), (64, 64, 4), (48, 40, 8),
        (128, 128, 1), (129, 131, 1), (4, 5000, 1), (512, 512, 1)])
    def test_width_from_grid(self, nx, ny, width):
        assert lane_width(Grid(nx, ny)) == width


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
        cfg = small_config(xi1=0.0, xi2=0.0, paths=4, seed=5, checkpoint_every=20)
        res = run_ensemble(cfg)
        assert np.max(res.stats.var["total"]) == 0.0

    def test_ledger_means_near_zero(self):
        cfg = small_config(T=0.02, paths=24, seed=7, checkpoint_every=40)
        res = run_ensemble(cfg)
        for name in ("ledger1", "ledger2"):
            mean, ci = res.stats.ledger_ci(name)
            assert abs(mean) <= ci + 1e-12

    def test_se_shrinks_with_more_paths(self):
        # quadrupling the path count should halve the standard error, within
        # the statistical slack band
        se = {}
        for m in (8, 32):
            res = run_ensemble(small_config(T=0.02, paths=m, seed=9, checkpoint_every=40))
            se[m] = res.stats.se["ledger1"][-1]
        ratio = se[32] / se[8]
        assert 0.7 * 0.5 <= ratio <= 1.4 * 0.5

    def test_bit_identical_rerun_and_shuffle(self):
        cfg = small_config(T=0.01, paths=8, seed=21, checkpoint_every=20)
        a = run_ensemble(cfg, batch_size=4)
        b = run_ensemble(cfg, order=[1, 0], batch_size=4)
        for k in a.stats.mean:
            assert np.array_equal(a.stats.mean[k], b.stats.mean[k])
            assert np.array_equal(a.stats.max[k], b.stats.max[k])

    def test_batched_matches_per_path(self):
        # every lane equals its lone path bit for bit, whatever the batch
        # (None: the width derived from the grid, 4 lanes at 64^2)
        cases = [(small_config(T=0.01, bc=bc, track_budget=True, paths=5, seed=21,
                               checkpoint_every=20), (1, 3, 5))
                 for bc in ("periodic", "bounded")]
        cases.append((small_config(grid="64x64", dt=1e-5, T=2e-5, track_budget=True,
                                   paths=6, seed=21, checkpoint_every=1), (None, 1, 6)))
        for cfg, batch_sizes in cases:
            singles = [run_path(cfg, split_seed(21, i)).series for i in range(cfg.paths)]
            for batch_size in batch_sizes:
                batched = run_ensemble(cfg, batch_size=batch_size)
                for lane, single in zip(batched.series, singles, strict=True):
                    assert lane.columns.keys() == single.columns.keys()
                    for k in single.columns:
                        assert np.array_equal(lane.columns[k], single.columns[k]), \
                            (cfg.grid, cfg.bc, batch_size, k)

    def test_default_flags_lane_equals_run_path(self):
        # the ensemble reads track.budget (default on) from the config, as
        # run_path does, so each lane carries its lone path's ledgers
        cfg = RunConfig(grid="16x16", T=0.005, paths=2, seed=11, init_u="taylor-green:1,0.2")
        res = run_ensemble(cfg)
        assert res.seeds == [split_seed(11, i) for i in range(2)]
        for lane, seed in zip(res.series, res.seeds):
            single = run_path(cfg, seed).series
            assert lane.columns.keys() == single.columns.keys()
            for k in single.columns:
                assert np.array_equal(lane.columns[k], single.columns[k]), k
        assert res.series[0].columns["int_hs"][-1] > 0.0

    def test_sup_monotone_in_time(self):
        res = run_ensemble(small_config(T=0.02, paths=4, seed=2, checkpoint_every=10))
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
    u0 = leray_project(taylor_green(grid, 1, 0.2), grid)
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
    @pytest.mark.parametrize("init_d", ["vortex:0.4,0.55,0.05", "const:0.3,0,0.7"])
    @pytest.mark.parametrize("n_paths", [1, 3, 17])
    def test_matches_serial_oracle(self, n_paths, init_d):
        # the batched sweep equals a serial loop of lone paths, one per
        # (path, eps), with the observables taken on each lane's own state;
        # 17 paths split into lane groups of 16 + 1.  The off-sphere
        # director's defect count depends on eps (0 at 0.3, nonzero at 0.1)
        eps_list = [0.3, 0.1]
        cfg = small_config(T=0.005, init_d=init_d, h_spec="wave:0.2,0.2,0.5",
                           checkpoint_every=4, paths=n_paths, seed=13, sweep_eps="0.3,0.1")
        res = coupled_sweep(cfg)

        grid = build_grid(cfg)
        u0 = build_initial_u(cfg, grid)
        d0 = build_initial_d(cfg, grid)
        params = build_params(cfg, grid, umax=float(np.max(np.abs(u0))))
        S, h = build_noise_operator(cfg, grid), build_magnetic_field(cfg, grid)
        phis = default_sweep_test_functions(grid)
        r = 8.0 * max(grid.hx, grid.hy)
        threshold = default_defect_threshold(grid, eps_list[0], r)
        assert len(res.per_path) == n_paths
        for p, sweep in enumerate(res.per_path):
            penalty, dev, counts, pairings = [], [], [], []
            for eps in eps_list:
                rows = []

                def observe(state, eps=eps):
                    d = state.d[0]
                    rows.append([stress_pairing(d, grid, grid.bc_director, tf) for tf in phis]
                                + [float(defect_detect(d, grid, eps, r, threshold).count)])
                    return {}

                lone = simulate_path(grid, replace(params, eps=eps), u0, d0, S, h,
                                     WienerDriver(split_seed(13, p), cfg.modes),
                                     checkpoint_every=4, track_budget=False,
                                     checkpoint_hook=observe)
                rows = np.array(rows)
                pairings.append(rows[:, :-1])
                counts.append(rows[:, -1])
                penalty.append(lone.series.columns["penalty"])
                dev.append(lone.series.columns["dev_norm"])
            assert sweep.eps_list == eps_list
            assert sweep.phi_names == [tf.name for tf in phis]
            assert np.array_equal(sweep.times, lone.series.columns["t"])
            assert np.array_equal(sweep.penalty, np.array(penalty))
            assert np.array_equal(sweep.dev_norm, np.array(dev))
            assert np.array_equal(sweep.defect_count, np.array(counts))
            assert np.array_equal(sweep.pairings, np.array(pairings))
            assert np.array_equal(sweep.sup_penalty, np.array(penalty).max(axis=1))
            assert sweep.defect_count[-1].max() > 0
        cauchy = np.stack([sweep.cauchy() for sweep in res.per_path])
        assert np.array_equal(res.cauchy_mean, cauchy.mean(axis=0))
        se = (cauchy.std(axis=0, ddof=1) / np.sqrt(n_paths) if n_paths > 1
              else np.zeros_like(res.cauchy_mean))
        assert np.array_equal(res.cauchy_se, se)

    def test_budget_flag_ignored(self, monkeypatch):
        # no sweep output reads a ledger: the sweep steps with the budget off
        # whatever track.budget says, and its outputs do not depend on it
        import selflow.pathrun as pathrun

        flags = []
        real = pathrun.step_coupled

        def spy(*args, track_budget, **kw):
            flags.append(track_budget)
            return real(*args, track_budget=track_budget, **kw)

        cfg = small_config(T=0.005, paths=2, sweep_eps="0.3,0.1", checkpoint_every=4)
        off = coupled_sweep(cfg)
        monkeypatch.setattr(pathrun, "step_coupled", spy)
        on = coupled_sweep(replace(cfg, track_budget=True))
        assert flags and not any(flags)
        assert on.seeds == off.seeds == [split_seed(11, p) for p in range(2)]
        assert np.array_equal(on.cauchy_mean, off.cauchy_mean)
        assert np.array_equal(on.cauchy_se, off.cauchy_se)
        for a, b in zip(on.per_path, off.per_path):
            for name in ("times", "penalty", "dev_norm", "defect_count", "pairings"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_single_eps_empty_cauchy(self):
        cfg = small_config(T=0.005, paths=1, seed=13, checkpoint_every=20, sweep_eps="0.3")
        res = coupled_sweep(cfg)
        assert res.cauchy_mean.shape[0] == 0
