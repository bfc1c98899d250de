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
    config_hash,
    parse_config,
)


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

    @pytest.mark.parametrize("key", ["init.u", "init.d", "field.h"])
    @pytest.mark.parametrize("spec", ["file", "file:"])
    def test_file_form_needs_path(self, key, spec):
        with pytest.raises(ConfigError) as err:
            parse_config(f"sim.T = 1.0\n{key} = {spec}\n")
        assert err.value.problems == [(2, f"{key}: file form needs a path (file:PATH)")]


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
        assert g2.bc_director == "dirichlet"

    def test_initials(self):
        cfg = parse_config("init.u = taylor-green:2,0.3\ninit.d = const:0,1,0\n")
        grid = build_grid(cfg)
        u0 = build_initial_u(cfg, grid)
        d0 = build_initial_d(cfg, grid)
        assert u0.shape == (2, 64, 64)
        assert np.allclose(d0[1], 1.0) and np.allclose(d0[0], 0.0)

    def test_vortex_director(self):
        cfg = parse_config("sim.bc = bounded\ninit.d = vortex:0.5,0.5,0.1\n")
        grid = build_grid(cfg)
        d0 = build_initial_d(cfg, grid)
        norms = np.sqrt((d0**2).sum(axis=0))
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_magnetic_field(self):
        cfg = parse_config("field.h = const:0,0,0.9\n")
        h = build_magnetic_field(cfg, build_grid(cfg))
        assert h.max_abs == pytest.approx(0.9)

    def test_file_init_roundtrip(self, tmp_path):
        from selflow.fields import Field, write_snapshot

        cfg0 = parse_config("sim.grid = 16x16\n")
        grid = build_grid(cfg0)
        rng = np.random.default_rng(0)
        d = rng.standard_normal((3, 16, 16))
        path = tmp_path / "d0.fld"
        write_snapshot(path, Field(grid, d, "periodic"))
        cfg = parse_config(f"sim.grid = 16x16\ninit.d = file:{path}\n")
        d0 = build_initial_d(cfg, build_grid(cfg))
        assert np.array_equal(d0, d)
