"""End-to-end command-line behavior: subcommands, exit codes, artifacts."""

import os
import re
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selflow.cli import main
from selflow.config import SCHEMA
from selflow.fields import MAGIC, Field, write_snapshot
from selflow.grids import Grid
from selflow.initial import constant_director, vortex_director

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

        def refuse(path, field):
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
        grid = Grid(32, 32, bc_velocity="noslip", bc_director="neumann")
        snap = tmp_path / "const.fld"
        write_snapshot(snap, Field(grid, constant_director(grid, (0, 0, 1)), "neumann"))
        assert main(["diagnose", str(snap), "--pohozaev"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("pohozaev:") and not l.startswith("pohozaev: choice")]
        assert len(lines) == 3
        for line in lines:
            residual = float(line.split(",")[-1])
            assert abs(residual) <= 1e-12

    def test_defects_on_vortex(self, tmp_path, capsys):
        grid = Grid(64, 64, bc_velocity="noslip", bc_director="neumann")
        snap = tmp_path / "vortex.fld"
        d = vortex_director(grid, 0.5, 0.5, 2 * grid.hx)
        write_snapshot(snap, Field(grid, d, "neumann"))
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
        write_snapshot(snap, Field(grid, constant_director(grid, (1, 0, 0)), "periodic"))
        assert main(["diagnose", str(snap), "--pairings"]) == 0
        out = capsys.readouterr().out
        assert out.count("pairings:") == 3

    @pytest.fixture
    def vortex_snap(self, tmp_path):
        grid = Grid(32, 32, bc_velocity="noslip", bc_director="neumann")
        snap = tmp_path / "vortex.fld"
        write_snapshot(snap, Field(grid, vortex_director(grid, 0.5, 0.5, 2 * grid.hx),
                                   "neumann"))
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
            write_snapshot(snap, Field(grid, vortex_director(grid, 0.5, 0.5, 2 * grid.hx),
                                       "periodic"))
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

    def test_velocity_snapshot_rejected(self, tmp_path):
        grid = Grid(16, 16)
        snap = tmp_path / "u.fld"
        write_snapshot(snap, Field(grid, np.zeros((2, 16, 16)), "periodic"))
        assert main(["diagnose", str(snap)]) == 1

    def test_oversized_header_is_io_error(self, tmp_path, capsys):
        # the header declares a 3 x 2^20 x 2^20 payload the file does not hold
        snap = tmp_path / "huge.fld"
        snap.write_bytes(MAGIC + struct.pack("<IIIB", 3, 2**20, 2**20, 0) + bytes(64))
        assert main(["diagnose", str(snap)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        cfg = TINY.replace("unit-smooth:0.4", f"file:{snap}")
        assert main(["simulate", write_cfg(tmp_path, cfg)]) == 3

    def test_tiny_grid_header_is_io_error(self, tmp_path, capsys):
        # a 2 x 2 grid with its full payload: the header is what is wrong
        snap = tmp_path / "tiny.fld"
        snap.write_bytes(MAGIC + struct.pack("<IIIB", 3, 2, 2, 0) + bytes(8 * 3 * 2 * 2))
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


# a valid 3 x 8 x 6 periodic director snapshot is MAGIC, the 13-byte header
# (k, nx, ny, bc code) and 8 * 3 * 8 * 6 payload bytes
_SNAP_LEN = 16 + 13 + 8 * 3 * 8 * 6
_snapshot_faults = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, _SNAP_LEN - 1), st.just(0)),
    st.tuples(st.just("magic"), st.integers(0, 15), st.integers(1, 255)),
    st.tuples(st.just("header"), st.integers(16, 28), st.integers(1, 255)),
)


@settings(max_examples=60, deadline=None)
@given(fault=_snapshot_faults)
def test_fuzzed_snapshot_never_raises(tmp_path_factory, fault):
    root = tmp_path_factory.mktemp("snap")
    grid = Grid(8, 6)
    snap = root / "d.fld"
    write_snapshot(snap, Field(grid, vortex_director(grid, 0.5, 0.5, 0.2), "periodic"))
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
