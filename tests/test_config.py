"""Config parsing, validation, canonical round-trip, and builders."""

import re
from pathlib import Path

import numpy as np
import pytest

from selflow.config import (
    SCHEMA,
    ConfigError,
    RunConfig,
    build_grid,
    build_initial_d,
    build_initial_u,
    build_magnetic_field,
    canonical_dump,
    checked_field,
    config_hash,
    parse_config,
)
from selflow.dynamics import Params
from selflow.grids import Grid, GridError
from selflow.initial import mixed_unit_director

# the keys whose value is one float (sim.dt also takes 'auto')
FLOAT_KEYS = [key for key, (attr, _) in SCHEMA.items()
              if isinstance(getattr(RunConfig(), attr), float)] + ["sim.dt"]


class TestParse:
    def test_empty_file_all_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nsim.eps = 0.4  # trailing\n")
        assert cfg.eps == 0.4

    def test_negative_eps_names_key_and_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("sim.T = 1.0\nsim.eps = -1\n")
        assert any("sim.eps" in msg and ln == 2 for ln, msg in err.value.problems)

    def test_selftest_mode_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("run.mode = selftest\n")
        assert any("run.mode" in msg for _, msg in err.value.problems)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("sim.nonsense = 3\n")
        assert "unknown key" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("sim.eps = 0.1\nsim.eps = 0.2\n")
        assert "duplicate" in str(err.value)

    def test_type_error_reported_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("noise.modes = many\n")
        assert err.value.problems[0][0] == 1

    def test_multiple_problems_reported_together(self):
        with pytest.raises(ConfigError) as err:
            parse_config("sim.eps = -1\nsim.mu = -2\nrun.mode = dance\n")
        assert len(err.value.problems) >= 3

    def test_bad_grid_spec(self):
        with pytest.raises(ConfigError):
            parse_config("sim.grid = banana\n")

    def test_bad_sweep_order(self):
        with pytest.raises(ConfigError):
            parse_config("sweep.eps = 0.1,0.2\n")

    @pytest.mark.parametrize("key, value", [("sim.stress_form", "reduced"), ("proj.maxiter", "0")],
                             ids=["sim.stress_form", "proj.maxiter"])
    def test_removed_key_names_key_and_line(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"sim.T = 1.0\n{key} = {value}\n")
        assert err.value.problems == [(2, f"unknown key {key!r}")]

    @pytest.mark.parametrize("line, problem", [
        ("sim.grid = 3x3", "sim.grid: grid must be at least 4x4"),
        ("noise.xi2 = -1", "noise.xi2: must be nonnegative"),
        ("sim.dt = -1", "sim.dt: must be positive or 'auto'"),
        ("sim.dt = 0", "sim.dt: must be positive or 'auto'"),
    ])
    def test_out_of_range_value_names_key_and_line(self, line, problem):
        with pytest.raises(ConfigError) as err:
            parse_config(f"sim.T = 1.0\n{line}\n")
        assert err.value.problems == [(2, problem)]

    def test_mode_values_bounded(self, monkeypatch):
        # modes x nx x ny up to MAX_MODE_NODES parse, one mode more is refused
        # under noise.modes (the bound is lowered here, so nothing is built)
        from selflow import config

        monkeypatch.setattr(config, "MAX_MODE_NODES", 5 * 8 * 6)
        assert parse_config("sim.grid = 8x6\nnoise.modes = 5\n").modes == 5
        with pytest.raises(ConfigError) as err:
            parse_config("sim.grid = 8x6\nnoise.modes = 6\n")
        assert err.value.problems == [(2, "noise.modes: 6 modes on the 8x6 grid are 288 mode "
                                          "values, more than the 240 a run may hold")]

    @pytest.mark.parametrize("key", ["init.u", "init.d", "field.h"])
    @pytest.mark.parametrize("spec", ["file", "file:"])
    def test_file_form_needs_path(self, key, spec):
        with pytest.raises(ConfigError) as err:
            parse_config(f"sim.T = 1.0\n{key} = {spec}\n")
        assert err.value.problems == [(2, f"{key}: file form needs a path (file:PATH)")]


class TestNonFinite:
    """NaN and infinities are refused wherever a number enters."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_key_names_key_and_line(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"sim.grid = 8x8\n{key} = {value}\n")
        assert err.value.problems == [(2, f"{key}: {value!r} is not a finite number")]

    @pytest.mark.parametrize("key, value, bad", [
        ("init.u", "taylor-green:1,inf", "inf"), ("init.d", "const:0,nan,1", "nan"),
        ("init.d", "vortex:inf", "inf"), ("init.d", "unit-smooth:nan", "nan"),
        ("field.h", "const:0,0,inf", "inf"), ("field.h", "wave:nan,0.2,0.5", "nan"),
        ("sweep.eps", "inf,0.1", "inf"),
    ])
    def test_spec_argument_names_key_and_line(self, key, value, bad):
        with pytest.raises(ConfigError) as err:
            parse_config(f"sim.grid = 8x8\n{key} = {value}\n")
        assert err.value.problems == [(2, f"{key}: {bad!r} is not a finite number")]

    @pytest.mark.parametrize("length", [np.nan, np.inf, 0.0, -1.0])
    def test_grid_refuses_bad_lengths(self, length):
        with pytest.raises(GridError, match="positive and finite"):
            Grid(8, 8, lx=length)
        with pytest.raises(GridError, match="positive and finite"):
            Grid(8, 8, ly=length, bc_director="neumann")

    @pytest.mark.parametrize("length", [1e-300, 1e-80, 1e80, 1e300])
    def test_grid_refuses_unrepresentable_spacing(self, length):
        # the operators form h**2 and the bounded projection h**-4; before
        # this check such lengths crashed with OverflowError or a singular LU
        with pytest.raises(GridError, match="grid spacing"):
            Grid(8, 8, lx=length)
        with pytest.raises(GridError, match="grid spacing"):
            Grid(8, 8, ly=length, bc_director="neumann")
        Grid(8, 8, lx=1e-60, ly=1e60)  # far out, but representable

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["eps", "mu", "lam", "gamma", "xi1", "xi2", "dt", "T"])
    def test_params_refuse_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be .* and finite"):
            Params(**{name: value})


class TestCanonical:
    def test_roundtrip_defaults(self):
        cfg = RunConfig()
        assert parse_config(canonical_dump(cfg)) == cfg

    def test_roundtrip_modified(self):
        text = """
sim.grid = 48x32
sim.eps = 0.125
sim.dt = 3.05e-05
noise.seed = 987
noise.xi2 = 0.0
field.h = const:0.1,0.2,0.3
init.d = vortex:0.5,0.5,0.07
run.mode = sweep
track.budget = false
"""
        cfg = parse_config(text)
        again = parse_config(canonical_dump(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_hash_sensitive_to_values(self):
        a = parse_config("sim.eps = 0.2\n")
        b = parse_config("sim.eps = 0.25\n")
        assert config_hash(a) != config_hash(b)

    def test_readme_key_table_is_the_schema_and_its_defaults(self):
        # every `key = value` pair of the README's fenced key table (the
        # block after "Configuration is flat"), comments dropped
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Configuration is flat", 1)[1].split("```")[1]
        pairs = [pair for line in block.splitlines()
                 for pair in re.findall(r"(\S+) = (\S+)", line.split("#", 1)[0])]
        assert sorted(key for key, _ in pairs) == sorted(SCHEMA)
        assert parse_config("".join(f"{k} = {v}\n" for k, v in pairs)) == RunConfig()


class TestBuilders:
    def test_grid_modes(self):
        g = build_grid(parse_config("sim.bc = bounded\nsim.grid = 16x24\n"))
        assert (g.nx, g.ny) == (16, 24)
        assert g.bc_velocity == "noslip" and g.bc_director == "neumann"
        g2 = build_grid(parse_config("sim.bc = bounded-dirichlet\n"))
        assert g2.bc_velocity == "noslip" and g2.bc_director == "dirichlet"
        g3 = build_grid(parse_config("sim.bc = periodic\n"))
        assert g3.bc_velocity == "periodic" and g3.bc_director == "periodic"
        # the velocity closure follows the one stored closure, the director's
        for director, velocity in (("periodic", "periodic"), ("neumann", "noslip"),
                                   ("dirichlet", "noslip")):
            assert Grid(8, 8, bc_director=director).bc_velocity == velocity

    def test_initials(self):
        cfg = parse_config("init.u = taylor-green:2,0.3\ninit.d = const:0,1,0\n")
        grid = build_grid(cfg)
        u0 = build_initial_u(cfg, grid)
        d0 = build_initial_d(cfg, grid)
        assert u0.shape == (2, 64, 64)
        assert np.allclose(d0[1], 1.0) and np.allclose(d0[0], 0.0)

    @pytest.mark.parametrize("bc", ["periodic", "bounded", "bounded-dirichlet"])
    def test_unit_mixed_director(self, bc):
        # the builder's default amplitude, on the modes of the grid's closure
        cfg = parse_config(f"sim.grid = 16x12\nsim.bc = {bc}\ninit.d = unit-mixed\n")
        grid = build_grid(cfg)
        d0 = build_initial_d(cfg, grid)
        assert np.array_equal(d0, mixed_unit_director(grid, 0.4))
        assert np.allclose(np.sqrt((d0**2).sum(axis=0)), 1.0, atol=1e-14)
        assert np.ptp(d0[0]) > 0.1  # not the constant vertical director

    def test_vortex_director(self):
        cfg = parse_config("sim.bc = bounded\ninit.d = vortex:0.5,0.5,0.1\n")
        grid = build_grid(cfg)
        d0 = build_initial_d(cfg, grid)
        norms = np.sqrt((d0**2).sum(axis=0))
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_magnetic_field(self):
        cfg = parse_config("field.h = const:0,0,0.9\n")
        h = build_magnetic_field(cfg, build_grid(cfg))
        assert h.shape == (3, 64, 64)
        assert np.max(np.linalg.norm(h, axis=0)) == pytest.approx(0.9)

    @pytest.mark.parametrize("bc", ["periodic", "bounded"])
    def test_checked_field_is_the_build(self, bc):
        # a finite field passes the check unchanged, bit for bit
        cfg = parse_config(f"sim.grid = 16x12\nsim.bc = {bc}\ninit.u = taylor-green:2,0.3\n"
                           "init.d = vortex:0.4,0.5,0.1\nfield.h = wave:0.2,0.2,0.5\n")
        grid = build_grid(cfg)
        for attr, build in (("init_u", build_initial_u), ("init_d", build_initial_d),
                            ("h_spec", build_magnetic_field)):
            assert np.array_equal(checked_field(cfg, grid, attr), build(cfg, grid))

    def test_file_init_roundtrip(self, tmp_path):
        from selflow.fields import write_snapshot

        cfg0 = parse_config("sim.grid = 16x16\n")
        grid = build_grid(cfg0)
        rng = np.random.default_rng(0)
        d = rng.standard_normal((3, 16, 16))
        path = tmp_path / "d0.fld"
        write_snapshot(path, grid, d)
        cfg = parse_config(f"sim.grid = 16x16\ninit.d = file:{path}\n")
        d0 = build_initial_d(cfg, build_grid(cfg))
        assert np.array_equal(d0, d)
