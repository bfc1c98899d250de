"""Ensemble orchestration: seeding, statistics, reproducibility, sweeps,
and the lane group's workspace."""

import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selflow import ensemble
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
from selflow.dynamics import Params, SimState, Workspace, stability_dt, step_coupled
from selflow.ensemble import (
    coupled_sweep,
    default_sweep_test_functions,
    default_weak_tracker,
    lane_width,
    run_ensemble,
    run_path,
)
from selflow.grids import Grid
from selflow.initial import smooth_unit_director, taylor_green, wave_field
from selflow.noise import NoiseOperatorS, WienerDriver, split_seed
from selflow.pathrun import record_columns, simulate_batch, simulate_path
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
        a = run_path(replace(cfg, seed=42)).series
        b = run_path(replace(cfg, seed=42)).series
        for k in a.columns:
            assert np.array_equal(a.columns[k], b.columns[k])

    def test_zero_noise_paths_identical(self):
        cfg = small_config(xi1=0.0, xi2=0.0)
        a = run_path(replace(cfg, seed=1)).series
        b = run_path(replace(cfg, seed=2)).series
        assert np.array_equal(a.columns["total"], b.columns["total"])

    def test_stability_refused(self):
        cfg = small_config(dt=1.0)
        from selflow.dynamics import StabilityError

        with pytest.raises(StabilityError):
            run_path(cfg)


class TestRunEnsemble:
    def test_zero_noise_zero_variance(self):
        cfg = small_config(xi1=0.0, xi2=0.0, paths=4, seed=5, checkpoint_every=20)
        res = run_ensemble(cfg)
        assert np.max(res.stats.columns["total_se"]) == 0.0

    def test_ledger_means_near_zero(self):
        cfg = small_config(T=0.02, paths=24, seed=7, checkpoint_every=40)
        res = run_ensemble(cfg)
        stats = res.stats.columns
        for name in ("ledger1", "ledger2"):
            mean, ci = stats[f"{name}_mean"][-1], 3.0 * stats[f"{name}_se"][-1]
            assert abs(mean) <= ci + 1e-12

    def test_se_shrinks_with_more_paths(self):
        # quadrupling the path count should halve the standard error, within
        # the statistical slack band
        se = {}
        for m in (8, 32):
            res = run_ensemble(small_config(T=0.02, paths=m, seed=9, checkpoint_every=40))
            se[m] = res.stats.columns["ledger1_se"][-1]
        ratio = se[32] / se[8]
        assert 0.7 * 0.5 <= ratio <= 1.4 * 0.5

    def test_bit_identical_rerun_and_shuffle(self, monkeypatch):
        cfg = small_config(T=0.01, paths=8, seed=21, checkpoint_every=20)
        monkeypatch.setattr(ensemble, "LANE_NODES", 4 * 16 * 16)  # two groups of 4 paths
        a = run_ensemble(cfg)
        b = run_ensemble(cfg, order=[1, 0])
        assert a.stats.columns.keys() == b.stats.columns.keys()
        for k, col in a.stats.columns.items():
            assert np.array_equal(col, b.stats.columns[k]), k

    def test_batched_matches_per_path(self, monkeypatch):
        # every lane equals its lone path bit for bit, whatever the batch
        # (None: the width derived from the grid, 4 lanes at 64^2; another
        # width is set through the grid nodes per lane group)
        cases = [(small_config(T=0.01, bc=bc, track_budget=True, paths=5, seed=21,
                               checkpoint_every=20), (1, 3, 5))
                 for bc in ("periodic", "bounded")]
        cases.append((small_config(grid="64x64", dt=1e-5, T=2e-5, track_budget=True,
                                   paths=6, seed=21, checkpoint_every=1), (None, 1, 6)))
        default_nodes = ensemble.LANE_NODES
        for cfg, batch_sizes in cases:
            singles = [run_path(replace(cfg, seed=split_seed(21, i))).series
                       for i in range(cfg.paths)]
            nx, ny = cfg.nx_ny()
            for batch_size in batch_sizes:
                monkeypatch.setattr(ensemble, "LANE_NODES",
                                    default_nodes if batch_size is None else batch_size * nx * ny)
                table = run_ensemble(cfg).series.columns
                assert table.keys() == singles[0].columns.keys()
                for k, col in table.items():
                    assert col.shape == (cfg.paths, singles[0].columns[k].size), k
                    assert col.flags.c_contiguous, k
                    for lane, single in zip(col, singles, strict=True):
                        assert np.array_equal(lane, single.columns[k]), \
                            (cfg.grid, cfg.bc, batch_size, k)

    def test_default_flags_lane_equals_run_path(self):
        # the ensemble reads track.budget (default on) from the config, as
        # run_path does, so each lane carries its lone path's ledgers
        cfg = RunConfig(grid="16x16", T=0.005, paths=2, seed=11, init_u="taylor-green:1,0.2")
        res = run_ensemble(cfg)
        assert res.seeds == [split_seed(11, i) for i in range(2)]
        table = res.series.columns
        for i, seed in enumerate(res.seeds):
            single = run_path(replace(cfg, seed=seed)).series
            assert table.keys() == single.columns.keys()
            for k in single.columns:
                assert np.array_equal(table[k][i], single.columns[k]), k
        assert table["int_hs"][0, -1] > 0.0

    def test_sup_monotone_in_time(self):
        res = run_ensemble(small_config(T=0.02, paths=4, seed=2, checkpoint_every=10))
        for tot in res.series.columns["total"]:
            running = np.maximum.accumulate(tot)
            assert running[-1] >= running[len(tot) // 2]


@settings(max_examples=8, deadline=None)
@given(lanes=st.integers(1, 6), bounded=st.booleans(), budget=st.booleans(),
       seed=st.integers(0, 2**31))
def test_batch_lanes_equal_lone_paths(lanes, bounded, budget, seed):
    grid = Grid(16, 16, bc_director="neumann") if bounded else Grid(16, 16)
    dt = stability_dt(0.3, grid, 1.0, 1.0)
    params = Params(eps=0.3, dt=dt, T=6 * dt)
    S = NoiseOperatorS(grid, n_modes=4, sigma0=0.3)
    h = wave_field(grid, (0.2, 0.2, 0.5))
    u0 = leray_project(taylor_green(grid, 1, 0.2), grid)
    d0 = smooth_unit_director(grid, 0.4)
    seeds = [split_seed(seed, i) for i in range(lanes)]
    opts = dict(checkpoint_every=3, track_budget=budget)
    batch = simulate_batch(grid, params, u0, d0, S, h,
                           [WienerDriver(s, 4) for s in seeds], **opts)
    for i, s in enumerate(seeds):
        lone = simulate_path(grid, params, u0, d0, S, h, WienerDriver(s, 4), **opts)
        for k, col in lone.series.columns.items():
            assert batch.series.columns[k].shape == (lanes, col.size), k
            assert batch.series.columns[k].flags.c_contiguous, k
            assert np.array_equal(batch.series.columns[k][i], col), k
        assert np.array_equal(batch.state.u[i], lone.state.u)
        assert np.array_equal(batch.state.d[i], lone.state.d)


class TestWorkspace:
    """Each simulate_batch call steps and records its lane group in one
    workspace of its own, and allocates no field-sized array per step."""

    @pytest.mark.parametrize("bounded", [False, True])
    def test_back_to_back_runs_share_no_buffer(self, bounded):
        grid = Grid(16, 16, bc_director="neumann") if bounded else Grid(16, 16)
        dt = stability_dt(0.3, grid, 1.0, 1.0)
        params = Params(eps=0.3, dt=dt, T=12 * dt)
        S = NoiseOperatorS(grid, n_modes=4, sigma0=0.3)
        h = wave_field(grid, (0.2, 0.2, 0.5))
        u0 = leray_project(taylor_green(grid, 1, 0.2), grid)
        d0 = smooth_unit_director(grid, 0.4)

        def run(seed):
            return simulate_batch(grid, params, u0, d0, S, h,
                                  [WienerDriver(split_seed(seed, i), 4) for i in range(3)],
                                  checkpoint_every=5, track_invariants=True,
                                  weak_tracker=default_weak_tracker(grid, params))

        def snapshot(res):
            t = res.weak_tracker
            return ({"u": res.state.u.copy(), "d": res.state.d.copy()},
                    {k: v.copy() for k, v in res.series.columns.items()},
                    {k: np.copy(v) for k, v in vars(res.state.ledgers).items()},
                    [np.copy(a) for a in (t.acc_u, t.acc_d, *t.pair_u0, *t.pair_d0)])

        first = run(1)
        before = snapshot(first)
        run(2)
        after = snapshot(first)
        lone = snapshot(run(1))
        for got in (after, lone):
            for want_part, got_part in zip(before, got):
                if isinstance(want_part, dict):
                    assert want_part.keys() == got_part.keys()
                    for k in want_part:
                        assert np.array_equal(want_part[k], got_part[k]), k
                else:
                    for a, b in zip(want_part, got_part):
                        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n, lanes, bc", [
        (64, 4, "periodic"),   # the lane group of the 64-squared ensembles
        (32, 8, "neumann"),    # bounded-ensemble's
    ])
    def test_buffers_are_cache_line_aligned(self, n, lanes, bc):
        # numpy's wide loops load a cache line at a time, so a buffer that
        # starts off a line makes every load straddle two; the allocator's
        # own offsets follow earlier allocations.  Steps 1 and 2 hand the
        # workspace the initial fields and then its own buffers back
        grid = Grid(n, n, bc_director=bc)
        dt = stability_dt(0.2, grid, 1.0, 1.0)
        params = Params(eps=0.2, dt=dt, T=3 * dt)
        S = NoiseOperatorS(grid, 8)
        h = wave_field(grid, (0.2, 0.2, 0.5))
        u0 = leray_project(taylor_green(grid, 1, 0.2), grid)
        state = SimState.initial(grid, np.stack([u0] * lanes),
                                 np.stack([smooth_unit_director(grid, 0.4)] * lanes))
        work = Workspace()
        normals = np.random.default_rng(5).standard_normal((3, lanes, S.n_modes + 1))

        def offsets():
            arrays = [state.u, state.d]
            for flat, views in work._bufs.values():
                arrays += [flat, *views.values()]
            return {a.ctypes.data % 64 for a in arrays}

        assert offsets() == {0}
        for step in range(3):
            step_coupled(state, params, S, h, normals[step], track_budget=True, work=work)
            assert offsets() == {0}, step + 1
        record_columns(state, params, S, h, work)
        assert offsets() == {0}
        assert {"u", "d", "spare", "tau", "lap_d", "dxh", "dxhxh"} <= work._bufs.keys()

    # a stand-in weak-form tracker that reads the process's minor-fault count
    # at every step; steps 11 to 120 take the checkpoint records after steps
    # 50 and 100 (out.checkpoint_every = 50)
    FAULT_PROBE = """
import resource, sys
import numpy as np
from selflow.dynamics import Params, SimState, Workspace, stability_dt, step_coupled
from selflow.grids import Grid
from selflow.initial import smooth_unit_director, taylor_green, wave_field
from selflow.noise import NoiseOperatorS, WienerDriver
from selflow.pathrun import simulate_batch
from selflow.projection import leray_project

class Faults:
    def initialize(self, u, d):
        self.counts = []

    def accumulate(self, *args):
        self.counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

n, lanes, bc, budget = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1"
grid = Grid(n, n, bc_director=bc)
dt = stability_dt(0.2, grid, 1.0, 1.0)
probe = Faults()
simulate_batch(grid, Params(eps=0.2, dt=dt, T=121 * dt),
               leray_project(taylor_green(grid, 1, 0.2), grid), smooth_unit_director(grid, 0.4),
               NoiseOperatorS(grid, 8), wave_field(grid, (0.2, 0.2, 0.5)),
               [WienerDriver(i, 8) for i in range(lanes)], checkpoint_every=50,
               track_budget=budget, weak_tracker=probe)
print((probe.counts[120] - probe.counts[10]) / 110)
"""

    @pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                        reason="minor-fault counts depend on the C allocator; the bound "
                               "holds for glibc's malloc, which returns large freed blocks "
                               "to the OS and faults them back in on reuse")
    @pytest.mark.parametrize("n, lanes, bc, budget", [
        (64, 4, "periodic", False),   # the lane group of ensemble-lean
        (64, 4, "periodic", True),    # ... and of ensemble-budget
        (32, 16, "periodic", True),   # criterion 3's lane group
        (32, 8, "neumann", True),     # bounded-ensemble's
        (32, 1, "neumann", True),     # one lane: all 8 modes in one stack
    ])
    def test_steps_take_at_most_one_fault_each(self, n, lanes, bc, budget):
        # a fresh interpreter, whose allocator has not been warmed by other
        # tests; the step used to take about 100-180 faults
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", self.FAULT_PROBE, str(n), str(lanes), bc,
                               str(int(budget))], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) <= 1.0


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
        names = [tf.name for tf in phis]
        cols = res.series.columns
        assert res.eps_list == eps_list
        assert list(cols) == (["t", "penalty", "dev_norm", "defect_count"]
                              + [f"pairing_{n}" for n in names])
        assert list(res.cauchy.columns) == ["eps_hi", "eps_lo", *names]
        assert cols["penalty"].shape[0] == n_paths
        pairing = np.stack([cols[f"pairing_{n}"] for n in names], axis=-1)
        gaps = []
        for p in range(n_paths):
            times, penalty, dev, counts, pairings = [], [], [], [], []
            for eps in eps_list:
                rows = []

                def observe(state, eps=eps):
                    # the hook is the whole row: t, penalty and dev_norm
                    # come from the full energy record of the lone state
                    d = state.d[0]
                    rows.append(list(stress_pairing(d, grid, phis).values())
                                + [float(len(defect_detect(d, grid, eps, r, threshold)))])
                    rec = record_columns(state, replace(params, eps=eps), S, h)
                    return {name: rec[name] for name in ("t", "penalty", "dev_norm")}

                lone = simulate_path(grid, replace(params, eps=eps), u0, d0, S, h,
                                     WienerDriver(split_seed(13, p), cfg.modes),
                                     checkpoint_every=4, track_budget=False,
                                     checkpoint_hook=observe)
                rows = np.array(rows)
                pairings.append(rows[:, :-1])
                counts.append(rows[:, -1])
                times.append(lone.series.columns["t"])
                penalty.append(lone.series.columns["penalty"])
                dev.append(lone.series.columns["dev_norm"])
            assert np.array_equal(cols["t"][p], np.array(times))
            assert np.array_equal(cols["penalty"][p], np.array(penalty))
            assert np.array_equal(cols["dev_norm"][p], np.array(dev))
            assert np.array_equal(cols["defect_count"][p], np.array(counts))
            assert np.array_equal(pairing[p], np.array(pairings))
            assert cols["defect_count"][p, -1].max() > 0
            # last-checkpoint gaps between consecutive eps
            gaps.append(np.abs(np.diff(np.array(pairings)[:, -1, :], axis=0)))
        cauchy = np.stack(gaps)
        assert np.array_equal(res.cauchy.columns["eps_hi"], eps_list[:-1])
        assert np.array_equal(res.cauchy.columns["eps_lo"], eps_list[1:])
        assert np.array_equal(np.stack([res.cauchy.columns[n] for n in names], axis=-1),
                              cauchy.mean(axis=0))

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
        for table in ("series", "cauchy"):
            a, b = getattr(on, table).columns, getattr(off, table).columns
            assert a.keys() == b.keys()
            for name, col in a.items():
                assert np.array_equal(col, b[name]), (table, name)

    def test_steps_keep_no_noise_ledger_and_build_no_record(self, monkeypatch):
        # no sweep output reads a noise ledger or an energy-record column:
        # the sweep's steps leave both noise ledgers at 0, and neither the
        # record nor the HS norm it reads is computed, whatever track.budget
        # says.  The ensemble of the same config keeps its ledgers (control)
        import selflow.pathrun as pathrun

        noise = []
        real = pathrun.step_coupled

        def spy(state, *args, **kw):
            real(state, *args, **kw)
            noise.append(np.abs(np.stack([state.ledgers.noise_u, state.ledgers.noise_d])).max())
            return state

        def refuse(*args, **kw):
            raise AssertionError("computed by a sweep")

        cfg = small_config(T=0.005, paths=3, sweep_eps="0.3,0.1", checkpoint_every=4,
                           track_budget=True)
        monkeypatch.setattr(pathrun, "step_coupled", spy)
        run_ensemble(cfg)
        assert noise and min(noise) > 0.0
        noise.clear()
        monkeypatch.setattr(pathrun, "record_columns", refuse)
        monkeypatch.setattr(NoiseOperatorS, "hs_norm_sq", refuse)
        coupled_sweep(cfg)
        assert noise and max(noise) == 0.0

    def test_single_eps_empty_cauchy(self):
        cfg = small_config(T=0.005, paths=1, seed=13, checkpoint_every=20, sweep_eps="0.3")
        res = coupled_sweep(cfg)
        assert list(res.cauchy.columns) == ["eps_hi", "eps_lo", "phi11", "phi21", "phi12"]
        assert all(col.shape == (0,) for col in res.cauchy.columns.values())
