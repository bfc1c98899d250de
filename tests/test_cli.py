"""End-to-end command-line behavior: subcommands, exit codes, artifacts."""

import contextlib
import io
import os
import re
import struct
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selflow.cli import main
from selflow import ensemble
from selflow.config import SCHEMA, SPEC_FORMS, parse_config
from selflow.diagnostics import default_defect_radius
from selflow.ensemble import coupled_sweep, run_ensemble
from selflow.fields import MAGIC, write_snapshot
from selflow.grids import Grid
from selflow.initial import constant_director, vortex_director
from selflow.noise import split_seed

TINY = """
sim.grid = 16x16
sim.eps = 0.3
sim.T = 0.002
noise.seed = 5
noise.modes = 4
noise.sigma0 = 0.3
init.u = taylor-green:1,0.2
init.d = unit-smooth:0.4
out.checkpoint_every = 10
"""
# a wrong argument count or a non-number in a spec
BAD_SPECS = [("init.d", "vortex:a,b"), ("init.d", "const:1,2"), ("field.h", "wave:1"),
             ("init.u", "taylor-green:x")]


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def out_env(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("SELFLOW_OUT", str(out))
    return out


class TestSimulate:
    def test_artifacts(self, tmp_path, monkeypatch, capsys):
        out = out_env(tmp_path, monkeypatch)
        code = main(["simulate", write_cfg(tmp_path, TINY)])
        assert code == 0
        runs = list(out.iterdir())
        assert len(runs) == 1
        run = runs[0]
        assert (run / "config.cfg").exists()
        assert (run / "energy.csv").exists()
        assert (run / "u_final.fld").exists()
        assert (run / "d_final.fld").exists()
        manifest = (run / "manifest.txt").read_text()
        assert "format_version = 1" in manifest
        assert "seeds = 5" in manifest
        header = (run / "energy.csv").read_text().splitlines()[0]
        assert header.startswith("t,kinetic,dirichlet,penalty,total")
        assert "budget_residual" in header

    def test_validation_failure_no_output_dir(self, tmp_path, monkeypatch):
        out = out_env(tmp_path, monkeypatch)
        code = main(["simulate", write_cfg(tmp_path, "sim.eps = -4\n")])
        assert code == 1
        assert not out.exists()

    def test_failed_write_leaves_no_run_dir(self, tmp_path, monkeypatch, capsys):
        import selflow.cli as cli

        def refuse(path, grid, values):
            raise OSError(f"cannot write {path}")

        out = out_env(tmp_path, monkeypatch)
        monkeypatch.setattr(cli, "write_snapshot", refuse)
        assert main(["simulate", write_cfg(tmp_path, TINY)]) == 3
        assert "i/o error" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_rerun_replaces_run_dir(self, tmp_path, monkeypatch):
        out = out_env(tmp_path, monkeypatch)
        cfg = write_cfg(tmp_path, TINY)
        assert main(["simulate", cfg]) == 0
        run = next(out.iterdir())
        (run / "stale.txt").write_text("left by an earlier run\n")
        assert main(["simulate", cfg]) == 0
        assert list(out.iterdir()) == [run]
        assert sorted(p.name for p in run.iterdir()) == [
            "config.cfg", "d_final.fld", "energy.csv", "manifest.txt", "u_final.fld"]

    @pytest.mark.parametrize("key,spec", BAD_SPECS)
    def test_malformed_spec_names_key_and_line(self, tmp_path, monkeypatch, capsys, key, spec):
        out = out_env(tmp_path, monkeypatch)
        assert main(["simulate", write_cfg(tmp_path, f"sim.grid = 8x8\n{key} = {spec}\n")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: line 2: {key}: ")
        assert not out.exists()

    def test_missing_config_is_io_error(self, tmp_path, monkeypatch):
        out_env(tmp_path, monkeypatch)
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == 3

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        out_env(tmp_path, monkeypatch)
        cfg = TINY + "sim.dt = 1.0\n"
        assert main(["simulate", write_cfg(tmp_path, cfg)]) == 2

    def test_velocity_blowup_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # the velocity overflows first: a blow-up (exit 2), not a validation
        # error from the projection's input check
        out = out_env(tmp_path, monkeypatch)
        cfg = ("sim.grid = 16x16\nsim.dt = 0.05\nsim.dt_override = true\nsim.T = 50\n"
               "init.u = taylor-green:1,5\nnoise.xi1 = 0\nnoise.xi2 = 0\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", write_cfg(tmp_path, cfg)]) == 2
        assert "blew up" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_periodic_proj_tol_enforced(self, tmp_path, monkeypatch, capsys):
        # the spectral projection cannot reach 1e-30; the checkpoint check
        # turns that into a numerical failure before anything is written
        out = out_env(tmp_path, monkeypatch)
        assert main(["simulate", write_cfg(tmp_path, TINY + "proj.tol = 1e-30\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "proj.tol" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("bc", ["bounded", "bounded-dirichlet"])
    def test_bounded_proj_tol_enforced(self, tmp_path, monkeypatch, capsys, bc):
        # the bounded solve cannot reach 1e-30 either; it raises itself
        out = out_env(tmp_path, monkeypatch)
        cfg = TINY + f"sim.bc = {bc}\nproj.tol = 1e-30\n"
        assert main(["simulate", write_cfg(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: bounded pressure solve stalled")
        assert not out.exists() or not any(out.iterdir())

    def test_weak_tracking_artifact(self, tmp_path, monkeypatch):
        out = out_env(tmp_path, monkeypatch)
        code = main(["simulate", write_cfg(tmp_path, TINY + "track.weak = true\n")])
        assert code == 0
        run = next(out.iterdir())
        weak = (run / "weak.csv").read_text().splitlines()
        assert weak[0].startswith("#")  # finite-eps substitution note
        assert weak[1] == "test_function,residual"
        assert len(weak) >= 4


    def test_invariants_artifact(self, tmp_path, monkeypatch):
        out = out_env(tmp_path, monkeypatch)
        cfg = TINY + "sim.bc = bounded\ntrack.invariants = true\n"
        assert main(["simulate", write_cfg(tmp_path, cfg)]) == 0
        run = next(out.iterdir())
        lines = (run / "invariants.csv").read_text().splitlines()
        assert lines[0] == "max_divergence,max_adv_ratio"
        div, adv = (float(v) for v in lines[1].split(","))
        assert 0.0 <= div <= 1e-10
        assert np.isfinite(adv)

    @pytest.mark.parametrize("key, values, bc", [
        ("field.h", np.zeros((16, 16)), "periodic"),
        ("field.h", np.zeros((2, 16, 16)), "periodic"),
        ("field.h", np.zeros((3, 8, 8)), "periodic"),
        ("init.d", np.zeros((2, 16, 16)), "periodic"),
        ("init.d", constant_director(Grid(16, 16), (0, 0, 1)), "neumann"),
        ("init.u", np.zeros((3, 16, 16)), "periodic"),
        # right counts and layout, but the 1.2 x 0.9 domain of another run
        pytest.param("init.d", constant_director(Grid(16, 16), (0, 0, 1)),
                     Grid(16, 16, lx=1.2, ly=0.9), id="init.d-lengths"),
    ])
    def test_mismatched_file_spec_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                  key, values, bc):
        out = out_env(tmp_path, monkeypatch)
        grid = bc if isinstance(bc, Grid) else Grid(
            *values.shape[-2:], bc_director="periodic" if bc == "periodic" else "neumann")
        snap = tmp_path / "x.fld"
        write_snapshot(snap, grid, values)
        text = "".join(line + "\n" for line in TINY.splitlines() if not line.startswith(key))
        assert main(["simulate", write_cfg(tmp_path, text + f"{key} = file:{snap}\n")]) == 1
        err = capsys.readouterr().err
        line = len(text.splitlines()) + 1
        assert err.startswith(f"config error: line {line}: {key}: snapshot {snap} has ")
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_mismatched_snapshot_names_its_line(self, tmp_path, monkeypatch, capsys):
        # an 8x8 director snapshot given on line 3 of a 16x16 config
        out = out_env(tmp_path, monkeypatch)
        snap = tmp_path / "d8.fld"
        write_snapshot(snap, Grid(8, 8), constant_director(Grid(8, 8), (0, 0, 1)))
        text = f"sim.grid = 16x16\nsim.T = 0.002\ninit.d = file:{snap}\n"
        assert main(["simulate", write_cfg(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 3: init.d: ")
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("line", ["sim.T = inf", "sim.lx = inf", "sim.dt = nan",
                                      "sim.mu = inf", "noise.xi1 = nan", "proj.tol = inf"])
    def test_non_finite_number_is_config_error(self, tmp_path, monkeypatch, capsys, line):
        out = out_env(tmp_path, monkeypatch)
        key = line.split()[0]
        text = "".join(ln + "\n" for ln in TINY.splitlines() if not ln.startswith(key))
        assert main(["simulate", write_cfg(tmp_path, text + line + "\n")]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: line {len(text.splitlines()) + 1}: {key}: "
                       f"{line.split()[-1]!r} is not a finite number\n")
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, line", [("simulate", line) for line in [
        "init.u = taylor-green:0", "init.u = taylor-green:-1,0.2",
        # finite values whose square overflows
        "sim.eps = 1e300", "noise.xi1 = 1e200", "noise.xi2 = 1e300", "noise.sigma0 = 1e160",
        # lengths whose grid spacing the Grid refuses
        "sim.lx = 1e300", "sim.lx = 1e-160", "sim.ly = 1e-160",
    ]] + [
        # seeds beyond 64 bits: ensemble used to mask them, simulate to fail in numpy
        (command, f"noise.seed = {seed}") for command in ("simulate", "ensemble")
        for seed in (-1, 2**64)
    ] + [
        # a 401-digit wavenumber, whose float overflows
        pytest.param("simulate", "init.u = taylor-green:1" + "0" * 400,
                     id="simulate-init.u = taylor-green:10**400"),
    ] + [
        # a finite wavenumber whose 2 pi k / l overflows on a short domain; the
        # lines before the last one set the domain
        pytest.param("simulate", f"sim.{axis} = 1e-10\ninit.u = taylor-green:1" + "0" * 305,
                     id=f"simulate-sim.{axis} = 1e-10-init.u = taylor-green:10**305")
        for axis in ("lx", "ly")
    ] + [
        # an amplitude whose field (amp ax / ay = 2e308 here) or kinetic
        # energy overflows; numpy used to warn, then fail in the projection
        # or blow up at step 0
        pytest.param("simulate", "sim.ly = 2\ninit.u = taylor-green:1,1e308",
                     id="simulate-sim.ly = 2-init.u = taylor-green:1,1e308"),
        ("simulate", "init.u = taylor-green:1,1e200"),
    ] + [
        # a domain so short that the automatic dt (about 5e-144) asks for
        # about 4e140 steps; the run used to go on silently until killed
        pytest.param("simulate", f"{bc}sim.lx = 1e-70\nsim.T = 0.002",
                     id=f"simulate-{bc.strip()}-sim.lx = 1e-70-sim.T = 0.002")
        for bc in ("sim.bc = periodic\n", "sim.bc = bounded\n")
    ] + [
        # initial fields that overflow while built: the vortex's core**2
        # raised OverflowError, the others ran on an all-zero director, on
        # one with |d|^2 = 0 at some nodes, or blew up at step 0
        (command, "init.d = vortex:0.5,0.5,1e300") for command in ("simulate", "ensemble", "sweep")
    ] + [
        ("simulate", line) for line in ("init.d = vortex:1e200,0.5,0.1",
                                        "init.d = unit-smooth:1e200", "field.h = const:1e200,0,0")
    ] + [
        # an automatic dt that underflows to 0 (eps^2 / 4 gamma) divided
        # sim.T by zero
        ("simulate", f"{line}\nsim.T = 0.002") for line in ("sim.eps = 5e-324",
                                                            "sim.gamma = 1.7e308")
    ] + [
        # 10**12 modes on 8x8 died in numpy's allocation of the mode shapes
        pytest.param("simulate", "sim.grid = 8x8\nnoise.modes = 1000000000000",
                     id="simulate-sim.grid = 8x8-noise.modes = 10**12"),
    ] + [
        # 10**12 paths: the runner built the whole seed list before its first
        # step, and used up the memory
        pytest.param("ensemble", "ensemble.paths = 1000000000000",
                     id="ensemble-ensemble.paths = 10**12"),
    ])
    def test_value_that_crashed_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                command, line):
        out = out_env(tmp_path, monkeypatch)
        *before, line = line.split("\n")
        key = line.split()[0]
        keys = tuple(ln.split()[0] + " " for ln in before + [line])
        text = "".join(ln + "\n" for ln in TINY.splitlines() if not ln.startswith(keys))
        text += "".join(ln + "\n" for ln in before)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy warns
            assert main([command, write_cfg(tmp_path, text + line + "\n")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {len(text.splitlines()) + 1}: {key}: ")
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_non_finite_snapshot_is_config_error(self, tmp_path, monkeypatch, capsys):
        # a director snapshot with one NaN node, on line 3; it blew up at step 0
        out = out_env(tmp_path, monkeypatch)
        d = constant_director(Grid(8, 8), (0.0, 0.0, 1.0))
        d[0, 3, 4] = np.nan
        snap = tmp_path / "nan.fld"
        write_snapshot(snap, Grid(8, 8), d)
        text = f"sim.grid = 8x8\nsim.T = 0.002\ninit.d = file:{snap}\n"
        assert main(["simulate", write_cfg(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line 3: init.d: 'file:{snap}' on the 8x8 grid is "
                              "not a finite field (its squared norm is not finite)")
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, lines, eps", [
        # |d|^2 = 1e200 is finite, but (1 - |d|^2)^2 overflows: simulate used
        # to warn and exit 0 with an inf penalty and a nan budget_residual
        (command, "init.d = const:1e100,0,0", "0.2") for command in ("simulate", "ensemble")
    ] + [
        # finite at sim.eps = 0.2, past the float range at the sweep's 0.05
        ("sweep", "sweep.eps = 0.2,0.05\ninit.d = const:2e76,0,0", "0.05"),
    ])
    def test_overflowing_penalty_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                 command, lines, eps):
        out = out_env(tmp_path, monkeypatch)
        text = f"sim.grid = 8x8\nsim.eps = 0.2\nsim.T = 0.001\n{lines}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy warns
            assert main([command, write_cfg(tmp_path, text)]) == 1
        err = capsys.readouterr().err
        spec = lines.split(" = ")[-1]
        assert err.startswith(f"config error: line {len(text.splitlines())}: init.d: '{spec}' "
                              f"on the 8x8 grid is not a finite field (its penalty mass at "
                              f"eps = {eps} is not finite)")
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, lines", [
        ("simulate", ""), ("ensemble", "ensemble.paths = 2\n"),
        ("sweep", "ensemble.paths = 2\nsweep.eps = 0.2,0.1\n"),
    ])
    def test_overflowing_checkpoint_is_numerical_failure(self, tmp_path, monkeypatch, capsys,
                                                         command, lines):
        # |d| = 1e10 starts with a finite penalty mass; the forced steps grow
        # |d| past 1e80, whose penalty overflows at the step-2 checkpoint.
        # The commands used to exit 0 with inf penalty and total columns, and
        # then to warn of numpy's overflow before reporting the failure
        out = out_env(tmp_path, monkeypatch)
        text = ("sim.grid = 8x8\ninit.d = const:1e10,0,0\nsim.dt = 0.001\n"
                f"sim.dt_override = true\nsim.T = 0.002\nout.checkpoint_every = 1\n{lines}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, write_cfg(tmp_path, text)]) == 2
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: solution blew up at step 2 (t = 0.002)")
        assert not out.exists() or not any(out.iterdir())

    def test_no_invariants_artifact_by_default(self, tmp_path, monkeypatch):
        out = out_env(tmp_path, monkeypatch)
        assert main(["simulate", write_cfg(tmp_path, TINY)]) == 0
        assert not (next(out.iterdir()) / "invariants.csv").exists()


class TestEnsemble:
    def test_summary_and_paths(self, tmp_path, monkeypatch):
        out = out_env(tmp_path, monkeypatch)
        cfg = TINY + "ensemble.paths = 4\nrun.mode = ensemble\ntrack.budget = false\n"
        assert main(["ensemble", write_cfg(tmp_path, cfg)]) == 0
        run = next(out.iterdir())
        assert (run / "ensemble.csv").exists()
        paths = sorted((run / "paths").iterdir())
        assert len(paths) == 4
        manifest = (run / "manifest.txt").read_text()
        assert "paths = 4" in manifest

    def test_path_tables_are_lone_simulate_tables(self, tmp_path, monkeypatch):
        # path i of an ensemble seeded 9 is the lone run seeded split_seed(9, i):
        # its paths/path_00i.csv is that run's energy.csv less budget_residual
        out = out_env(tmp_path, monkeypatch)
        ens = TINY.replace("noise.seed = 5", "noise.seed = 9") + "ensemble.paths = 3\n"
        assert main(["ensemble", write_cfg(tmp_path, ens, "ens.cfg")]) == 0
        (run,) = out.iterdir()
        for i in (0, 2):
            sim = TINY.replace("noise.seed = 5", f"noise.seed = {split_seed(9, i)}")
            sim_out = tmp_path / f"sim{i}"
            monkeypatch.setenv("SELFLOW_OUT", str(sim_out))
            assert main(["simulate", write_cfg(tmp_path, sim, f"sim{i}.cfg")]) == 0
            (sim_run,) = sim_out.iterdir()
            energy = [line.split(",") for line in
                      (sim_run / "energy.csv").read_text().splitlines()]
            drop = energy[0].index("budget_residual")
            expected = [",".join(row[:drop] + row[drop + 1:]) for row in energy]
            assert (run / "paths" / f"path_00{i}.csv").read_text().splitlines() == expected


class TestSweep:
    def test_tables(self, tmp_path, monkeypatch):
        out = out_env(tmp_path, monkeypatch)
        cfg = TINY + "sweep.eps = 0.3,0.15\nensemble.paths = 1\ntrack.budget = false\n"
        assert main(["sweep", write_cfg(tmp_path, cfg)]) == 0
        run = next(out.iterdir())
        sweep = (run / "sweep.csv").read_text().splitlines()
        assert sweep[0].startswith("path,eps,t,penalty,dev_norm,defect_count")
        cauchy = (run / "cauchy.csv").read_text().splitlines()
        assert cauchy[0].startswith("eps_hi,eps_lo")
        assert len(cauchy) == 2

    def test_bounded_grid(self, tmp_path, monkeypatch):
        # the bounded projection controls only the interior divergence, which
        # is what the sweep's velocity test functions are checked against
        out = out_env(tmp_path, monkeypatch)
        cfg = (TINY.replace("16x16", "32x32") + "sim.bc = bounded\n"
               "sweep.eps = 0.3,0.15\nensemble.paths = 1\ntrack.budget = false\n")
        assert main(["sweep", write_cfg(tmp_path, cfg)]) == 0
        run = next(out.iterdir())
        sweep = (run / "sweep.csv").read_text().splitlines()
        assert sweep[0].startswith("path,eps,t,penalty,dev_norm,defect_count")
        assert len(sweep) > 1
        cauchy = (run / "cauchy.csv").read_text().splitlines()
        assert len(cauchy) == 2

    def test_small_periodic_grid(self, tmp_path, monkeypatch):
        # 8h exceeds half the period below 16 nodes; the sweep caps its
        # defect radius there instead of refusing the run
        out = out_env(tmp_path, monkeypatch)
        cfg = (TINY.replace("16x16", "12x12")
               + "sweep.eps = 0.3,0.15\nensemble.paths = 1\ntrack.budget = false\n")
        assert main(["sweep", write_cfg(tmp_path, cfg)]) == 0
        sweep = (next(out.iterdir()) / "sweep.csv").read_text().splitlines()
        assert len(sweep) > 1

    def test_auto_dt_sized_from_smallest_eps(self, tmp_path, monkeypatch):
        # sim.eps = 0.3 would give dt = h^2/8 = 4.9e-4, past the eps = 0.02
        # bound 1e-4; sized from 0.02, T = 0.002 is 20 steps, so each eps
        # has checkpoints at steps 0, 10 and 20
        out = out_env(tmp_path, monkeypatch)
        cfg = TINY + "sweep.eps = 0.2,0.02\nensemble.paths = 1\n"
        assert main(["sweep", write_cfg(tmp_path, cfg)]) == 0
        run = next(out.iterdir())
        sweep = (run / "sweep.csv").read_text().splitlines()
        assert len(sweep) == 1 + 2 * 3
        assert float(sweep[2].split(",")[2]) == pytest.approx(10 * 1e-4, rel=1e-12)


class TestTables:
    @pytest.mark.parametrize("extra", [False, True])
    def test_csv_columns_are_the_runner_tables(self, tmp_path, monkeypatch, extra):
        # sweep.csv is path and eps, then the columns of coupled_sweep's
        # series in (path, eps, checkpoint) order, and ensemble.csv is
        # run_ensemble's stats table, value for value; a column the sweep
        # hook adds (extra) reaches sweep.csv with no writer edit
        if extra:
            real = ensemble.sphere_columns
            monkeypatch.setattr(ensemble, "sphere_columns",
                                lambda d, grid, eps: {**real(d, grid, eps), "extra": 2.0 * eps})
        out = out_env(tmp_path, monkeypatch)
        text = TINY + "sweep.eps = 0.3,0.15\nensemble.paths = 2\n"
        cfg = parse_config(text)
        sweep, stats = coupled_sweep(cfg).series.columns, run_ensemble(cfg).stats.columns
        assert ("extra" in sweep) == extra
        for command in ("sweep", "ensemble"):
            assert main([command, write_cfg(tmp_path, text)]) == 0
        runs = {run.name.split("-")[0]: run for run in out.iterdir()}

        header, *rows = (runs["sweep"] / "sweep.csv").read_text().splitlines()
        assert header == ",".join(["path", "eps", *sweep])
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        shape = sweep["t"].shape
        index = [np.arange(2)[:, None, None], np.array([0.3, 0.15])[:, None]]
        for k, col in enumerate(index + list(sweep.values())):
            assert np.array_equal(table[:, k], np.broadcast_to(col, shape).ravel()), k

        header, *rows = (runs["ensemble"] / "ensemble.csv").read_text().splitlines()
        assert header == ",".join(stats)
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        for k, col in enumerate(stats.values()):
            assert np.array_equal(table[:, k], col), k


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_below_one_rejected(self, tmp_path, monkeypatch, threads):
        out = out_env(tmp_path, monkeypatch)
        cfg = write_cfg(tmp_path, TINY + "ensemble.paths = 2\n")
        for command in ("ensemble", "sweep"):
            assert main(["--threads", threads, command, cfg]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ensemble", "sweep"])
    def test_pool_output_equals_serial(self, tmp_path, command):
        # 17 paths at 32^2 form lane groups of 16 + 1, run at once with two threads
        cfg = write_cfg(tmp_path, TINY.replace("16x16", "32x32")
                        + "ensemble.paths = 17\nsweep.eps = 0.3,0.15\n")
        files = {}
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            with mock.patch.dict(os.environ, {"SELFLOW_OUT": str(out)}):
                assert main(["--threads", threads, command, cfg]) == 0
            run = next(out.iterdir())
            files[threads] = {p.relative_to(run): p.read_bytes()
                              for p in sorted(run.rglob("*")) if p.is_file()}
        assert len(files["1"]) == (3 + 17 if command == "ensemble" else 4)
        assert files["1"] == files["2"]


class TestDiagnose:
    def test_constant_director_all_zero_report(self, tmp_path, capsys):
        grid = Grid(32, 32, bc_director="neumann")
        snap = tmp_path / "const.fld"
        write_snapshot(snap, grid, constant_director(grid, (0, 0, 1)))
        assert main(["diagnose", str(snap), "--pohozaev"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("pohozaev:") and not l.startswith("pohozaev: choice")]
        assert len(lines) == 3
        for line in lines:
            residual = float(line.split(",")[-1])
            assert abs(residual) <= 1e-12

    def test_defects_on_vortex(self, tmp_path, capsys):
        grid = Grid(64, 64, bc_director="neumann")
        snap = tmp_path / "vortex.fld"
        d = vortex_director(grid, 0.5, 0.5, 2 * grid.hx)
        write_snapshot(snap, grid, d)
        assert main(["diagnose", str(snap), "--defects"]) == 0
        out = capsys.readouterr().out
        assert "defects: count = 1" in out
        centers = [l for l in out.splitlines() if l.startswith("defects: center,")]
        assert len(centers) == 1
        for line in centers:
            x, y, energy = (float(v) for v in line.split(",")[1:])
            assert abs(x - 0.5) <= 2 * grid.hx and abs(y - 0.5) <= 2 * grid.hy
            assert energy > 0

    def test_pairings(self, tmp_path, capsys):
        grid = Grid(32, 32)
        snap = tmp_path / "d.fld"
        write_snapshot(snap, grid, constant_director(grid, (1, 0, 0)))
        assert main(["diagnose", str(snap), "--pairings"]) == 0
        out = capsys.readouterr().out
        assert out.count("pairings:") == 3

    @pytest.fixture
    def vortex_snap(self, tmp_path):
        grid = Grid(32, 32, bc_director="neumann")
        snap = tmp_path / "vortex.fld"
        write_snapshot(snap, grid, vortex_director(grid, 0.5, 0.5, 2 * grid.hx))
        return str(snap)

    @pytest.mark.parametrize("flags", [
        ["--radius", "-0.1"], ["--radius", "0"],
        ["--defects", "--radius", "-0.05"], ["--defects", "--radius", "0"],
    ], ids=["pohozaev-negative", "pohozaev-zero", "defects-negative", "defects-zero"])
    def test_nonpositive_radius_rejected(self, vortex_snap, capsys, flags):
        # a zero radius is refused, not replaced by the default
        assert main(["diagnose", vortex_snap] + flags) == 1
        captured = capsys.readouterr()
        assert "radius must be > 0" in captured.err
        assert "pohozaev: radial" not in captured.out and "defects:" not in captured.out

    @pytest.mark.parametrize("value", ["-1", "-0.001", "nan"])
    def test_negative_threshold_rejected(self, vortex_snap, capsys, value):
        assert main(["diagnose", vortex_snap, "--defects", "--threshold", value]) == 1
        assert "defects:" not in capsys.readouterr().out

    def test_zero_threshold_is_used(self, vortex_snap, capsys):
        assert main(["diagnose", vortex_snap, "--defects"]) == 0
        default = capsys.readouterr().out
        assert "delta0_sq = 0.0)" not in default
        assert main(["diagnose", vortex_snap, "--defects", "--threshold", "0"]) == 0
        zero = capsys.readouterr().out
        assert "delta0_sq = 0.0)" in zero
        count = int(zero.split("count = ")[1].split()[0])
        assert count >= int(default.split("count = ")[1].split()[0]) >= 1

    @pytest.fixture
    def periodic_snap(self, tmp_path):
        def make(n):
            grid = Grid(n, n)
            snap = tmp_path / f"periodic{n}.fld"
            write_snapshot(snap, grid, vortex_director(grid, 0.5, 0.5, 2 * grid.hx))
            return str(snap)
        return make

    @pytest.mark.parametrize("extra", [[], ["--threshold", "0.1"]],
                             ids=["default-threshold", "given-threshold"])
    def test_defect_radius_beyond_half_period_rejected(self, periodic_snap, capsys, extra):
        # on the torus a ball wider than half the period overlaps itself
        assert main(["diagnose", periodic_snap(32), "--defects", "--radius", "5"] + extra) == 1
        captured = capsys.readouterr()
        assert "half the shorter period" in captured.err
        assert "defects:" not in captured.out

    def test_default_defect_radius_capped_on_small_periodic_grid(self, periodic_snap, capsys):
        # 8h = 2/3 on 12^2; the scan uses the half period 0.5 instead
        assert main(["diagnose", periodic_snap(12), "--defects"]) == 0
        assert "(r = 0.5," in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [[], ["--threshold", "0.1"]],
                             ids=["default-threshold", "given-threshold"])
    def test_bounded_ball_no_scan_center_holds_rejected(self, vortex_snap, capsys, extra):
        # r = 0.6 exceeds half the unit square: no scan center holds the ball
        assert main(["diagnose", vortex_snap, "--defects", "--radius", "0.6"] + extra) == 1
        captured = capsys.readouterr()
        assert "no scan center" in captured.err
        assert "defects:" not in captured.out

    def test_default_defect_radius_capped_on_small_bounded_grid(self, tmp_path, capsys):
        # 8h = 8/15 on a bounded 16^2 grid; the scan node 8/15 holds 7/15
        grid = Grid(16, 16, bc_director="neumann")
        snap = tmp_path / "bounded16.fld"
        write_snapshot(snap, grid, vortex_director(grid, 0.5, 0.5, 2 * grid.hx))
        assert main(["diagnose", str(snap), "--defects"]) == 0
        out = capsys.readouterr().out
        r = float(out.split("(r = ")[1].split(",")[0])
        assert r == pytest.approx(7 / 15, rel=1e-15)
        assert "defects: count = 1" in out

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--pohozaev", "--defects", "--pairings"])
    def test_non_finite_snapshot_rejected(self, tmp_path, capsys, flag, bad):
        # one bad node would give nan rows or an empty defect set; the
        # snapshot is refused before any diagnostic runs
        grid = Grid(32, 32, bc_director="neumann")
        d = vortex_director(grid, 0.5, 0.55, 2 * grid.hx)
        d[0, 10, 12] = bad
        snap = tmp_path / "bad.fld"
        write_snapshot(snap, grid, d)
        assert main(["diagnose", str(snap), flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error:") and "non-finite" in captured.err

    def test_eps_flag_is_used(self, tmp_path, capsys):
        # off the sphere the energy density holds (1 - |d|^2)^2 / (4 eps^2),
        # so halving eps quadruples the Pohozaev bulk term of a constant d
        grid = Grid(32, 32, bc_director="neumann")
        snap = tmp_path / "half.fld"
        write_snapshot(snap, grid, constant_director(grid, (0, 0, 0.5)))
        bulk = {}
        for eps in ("0.2", "0.1"):
            assert main(["diagnose", str(snap), "--pohozaev", "--eps", eps]) == 0
            radial = [ln for ln in capsys.readouterr().out.splitlines()
                      if ln.startswith("pohozaev: radial,")]
            bulk[eps] = float(radial[0].split(",")[3])
        assert bulk["0.2"] > 0.0
        assert bulk["0.1"] == pytest.approx(4.0 * bulk["0.2"], rel=1e-12)

    @pytest.mark.parametrize("flag", ["--eps"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_nonpositive_number_rejected(self, vortex_snap, capsys, flag, value):
        # refused while parsing, as --threshold is, before any diagnostic runs
        assert main(["diagnose", vortex_snap, "--defects", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a finite number > 0" in captured.err

    @pytest.mark.parametrize("flag", ["--lx", "--ly"])
    def test_length_flags_are_gone(self, vortex_snap, capsys, flag):
        # the snapshot records its lengths; none can be given again
        assert main(["diagnose", vortex_snap, "--defects", flag, "1.0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    def test_defects_use_the_recorded_lengths(self, tmp_path, capsys):
        # a vortex at (0.63, 0.47) on a pinned-wall 1.2 x 0.9 domain is found
        # there with no flags, with the scan radius of that grid (0.417); a
        # unit-square reading put it at (0.52, 0.53) with r = 0.421
        grid = Grid(24, 20, lx=1.2, ly=0.9, bc_director="dirichlet")
        snap = tmp_path / "d.fld"
        write_snapshot(snap, grid, vortex_director(grid, 0.63, 0.47, 2 * grid.hx))
        assert main(["diagnose", str(snap), "--defects"]) == 0
        out = capsys.readouterr().out
        assert "defects: count = 1 (r = " in out
        assert float(out.split("(r = ")[1].split(",")[0]) == default_defect_radius(grid)
        (line,) = [l for l in out.splitlines() if l.startswith("defects: center,")]
        x, y, _ = (float(v) for v in line.split(",")[1:])
        assert abs(x - 0.63) <= grid.hx and abs(y - 0.47) <= grid.hy

    def test_old_format_is_io_error(self, tmp_path, capsys):
        # the earlier layout (payload at byte 29) held no lengths; it is
        # refused, not read as a unit square
        snap = tmp_path / "old.fld"
        snap.write_bytes(b"SELFLOW-FLD\x00".ljust(16, b"\x00")
                         + struct.pack("<IIIB", 3, 16, 16, 1) + bytes(8 * 3 * 16 * 16))
        assert main(["diagnose", str(snap)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error:") and "Traceback" not in captured.err

    def test_velocity_snapshot_rejected(self, tmp_path, capsys):
        grid = Grid(16, 16)
        snap = tmp_path / "u.fld"
        write_snapshot(snap, grid, np.zeros((2, 16, 16)))
        assert main(["diagnose", str(snap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: diagnose: snapshot must hold a "
                              "3-component director")

    def test_oversized_header_is_io_error(self, tmp_path, capsys):
        # the header declares a 3 x 2^20 x 2^20 payload the file does not hold
        snap = tmp_path / "huge.fld"
        snap.write_bytes(MAGIC + struct.pack("<IIIBdd", 3, 2**20, 2**20, 0, 1.0, 1.0)
                         + bytes(64))
        assert main(["diagnose", str(snap)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        cfg = TINY.replace("unit-smooth:0.4", f"file:{snap}")
        assert main(["simulate", write_cfg(tmp_path, cfg)]) == 3

    def test_tiny_grid_header_is_io_error(self, tmp_path, capsys):
        # a 2 x 2 grid with its full payload: the header is what is wrong
        snap = tmp_path / "tiny.fld"
        snap.write_bytes(MAGIC + struct.pack("<IIIBdd", 3, 2, 2, 0, 1.0, 1.0)
                         + bytes(8 * 3 * 2 * 2))
        assert main(["diagnose", str(snap)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err


class TestSubcommands:
    def test_selftest_is_not_a_subcommand(self, capsys):
        assert main(["selftest"]) == 1
        assert "invalid choice: 'selftest'" in capsys.readouterr().err

    def test_readme_cli_block_is_the_parser(self, capsys):
        # the `selflow <name>` rows of the README's fenced CLI block
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
        rows = re.findall(r"^selflow (\S+)", block, flags=re.MULTILINE)
        assert main(["--help"]) == 0
        (choices,) = re.findall(r"\{([\w,]+)\}", capsys.readouterr().out.split("\n\n")[0])
        assert rows == choices.split(",")


# one fault per fuzzed config, applied to TINY: a bad value replaces the
# key's line (or is added), an unknown key, a repeated key or a line
# without '=' is added
_TINY = dict(line.split(" = ") for line in TINY.strip().splitlines())
_POSITIVE = ["sim.lx", "sim.ly", "sim.eps", "sim.mu", "sim.lambda", "sim.gamma", "sim.T",
             "noise.sigma0", "noise.q", "proj.tol"]
_NUMERIC = _POSITIVE + ["noise.seed", "noise.modes", "noise.xi1", "noise.xi2",
                        "ensemble.paths", "out.checkpoint_every"]
# the words each key accepts that the fuzz alphabet can spell
_VALID_WORDS = {
    "sim.bc": {"periodic", "bounded"},
    "run.mode": {"simulate", "ensemble", "sweep", "diagnose"},
    "track.budget": {"true", "false", "yes", "no", "on", "off"},
    "init.d": {"const", "vortex"},
    "field.h": {"const", "wave"},
}
# spec forms with their arguments; one non-number word is too many for a
# form without arguments, too few for a three-vector and not a number else
_SPEC_FORMS = {"init.u": ["zero", "taylor-green"],
               "init.d": ["const", "vortex", "unit-smooth", "unit-mixed"],
               "field.h": ["const", "wave"]}
_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_.", min_size=1, max_size=12)


def _is_float(word):
    try:
        float(word)
    except ValueError:
        return False
    return True


def _render(cfg):
    return [f"{k} = {v}" for k, v in cfg.items()]


def _fault():
    bad_value = st.one_of(
        st.tuples(st.sampled_from(_NUMERIC), _words.filter(lambda w: not _is_float(w))),
        st.tuples(st.sampled_from(_POSITIVE),
                  st.floats(max_value=0.0, allow_nan=False).map(repr)),
        st.tuples(st.sampled_from(["noise.modes", "ensemble.paths", "out.checkpoint_every"]),
                  st.integers(max_value=-1).map(str)),
        st.sampled_from(sorted(_VALID_WORDS)).flatmap(
            lambda k: st.tuples(st.just(k), _words.filter(lambda w: w not in _VALID_WORDS[k]))),
        st.sampled_from(BAD_SPECS),
        st.sampled_from(sorted(_SPEC_FORMS)).flatmap(
            lambda k: st.tuples(st.just(k), st.builds(
                "{}:{}".format, st.sampled_from(_SPEC_FORMS[k]),
                _words.filter(lambda w: not _is_float(w))))),
    )
    extra_lines = st.one_of(
        _words.filter(lambda k: k not in SCHEMA).map(lambda k: [f"{k} = 1"]),
        st.sampled_from(sorted(SCHEMA)).map(lambda k: [f"{k} = 1", f"{k} = 1"]),
        _words.map(lambda w: [w]),
    )
    return st.one_of(bad_value.map(lambda kv: _render({**_TINY, kv[0]: kv[1]})),
                     extra_lines.map(lambda extra: _render(_TINY) + extra))


@settings(max_examples=60, deadline=None)
@given(lines=_fault(), command=st.sampled_from(["simulate", "ensemble", "sweep"]))
def test_fuzzed_config_exits_1_and_writes_nothing(tmp_path_factory, lines, command):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = write_cfg(root, "\n".join(lines) + "\n")
    with mock.patch.dict(os.environ, {"SELFLOW_OUT": str(root / "out")}):
        assert main([command, cfg]) == 1, lines
    assert not (root / "out").exists()


# spec arguments of extreme magnitude, 0 and +-5e-324 up to +-1.7e308,
# written as floats and as integers (a wavenumber must be one)
_extreme = st.tuples(
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([1.7e308, 1e300, 1e160, 1e10, 1.0, 1e-10, 1e-160, 1e-300, 5e-324, 0.0]),
).flatmap(lambda sm: st.sampled_from([repr(sm[0] * sm[1]), str(int(sm[0] * sm[1]))]))
# every non-file form of every spec key, with the argument counts it takes
_SPEC_KEYS = {attr: key for key, (attr, _) in SCHEMA.items() if attr in SPEC_FORMS}
_NONFILE_FORMS = [(_SPEC_KEYS[attr], kind, entry[1]) for attr, forms in SPEC_FORMS.items()
                  for kind, entry in forms.items() if kind != "file"]


# 15 examples per form (one for `zero`, which takes no arguments): 106 in all
@pytest.mark.parametrize("key, kind, counts", _NONFILE_FORMS,
                         ids=[f"{key}-{kind}" for key, kind, _ in _NONFILE_FORMS])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_spec_exits_cleanly(tmp_path_factory, key, kind, counts, data):
    n = data.draw(st.sampled_from(counts))
    args = data.draw(st.lists(_extreme, min_size=n, max_size=n))
    spec = f"{kind}:{','.join(args)}" if args else kind
    # a fixed dt of half sim.T keeps each run to two steps (an automatic dt
    # shrinks with the velocity, to millions of steps at large amplitudes)
    for bc in ("periodic", "bounded"):
        root = tmp_path_factory.mktemp("spec")
        cfg = write_cfg(root, f"sim.grid = 8x8\nsim.T = 0.002\nsim.dt = 0.001\n"
                              f"sim.bc = {bc}\n{key} = {spec}\n")
        with mock.patch.dict(os.environ, {"SELFLOW_OUT": str(root / "out")}), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["simulate", cfg])
        assert code in (0, 1, 2), (spec, bc)
        assert "Traceback" not in err.getvalue(), (spec, bc)
        assert code == 0 or not (root / "out").exists() or not any((root / "out").iterdir())


# a valid 3 x 8 x 6 periodic director snapshot is MAGIC, the 29-byte header
# (k, nx, ny, closure code, lx, ly) and 8 * 3 * 8 * 6 payload bytes
_SNAP_LEN = 16 + 29 + 8 * 3 * 8 * 6
_snapshot_faults = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, _SNAP_LEN - 1), st.just(0)),
    st.tuples(st.just("magic"), st.integers(0, 15), st.integers(1, 255)),
    st.tuples(st.just("header"), st.integers(16, 44), st.integers(1, 255)),
)


@settings(max_examples=60, deadline=None)
@given(fault=_snapshot_faults)
def test_fuzzed_snapshot_never_raises(tmp_path_factory, fault):
    root = tmp_path_factory.mktemp("snap")
    grid = Grid(8, 6)
    snap = root / "d.fld"
    write_snapshot(snap, grid, vortex_director(grid, 0.5, 0.5, 0.2))
    data = bytearray(snap.read_bytes())
    assert len(data) == _SNAP_LEN
    kind, pos, flip = fault
    if kind == "truncate":
        del data[pos:]
    else:
        data[pos] ^= flip
    snap.write_bytes(bytes(data))
    code = main(["diagnose", str(snap)])
    if kind == "header":
        # a header can still describe a readable field of another shape
        assert code in (0, 1, 3), fault
    else:
        assert code == 3, fault
