"""Flat key = value run configuration: parsing, validation, canonical form,
and builders that turn a config into simulation objects.

Unknown keys are rejected; every validation problem is reported together
with its line number.  The canonical dump re-parses to an equal config, and
its hash names the output directory, so run artifacts are diffable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .dynamics import Params, stability_dt
from .fields import read_snapshot
from .grids import Grid
from .initial import (
    constant_director,
    mixed_unit_director,
    smooth_unit_director,
    taylor_green,
    vortex_director,
    zero_velocity,
)
from .noise import MagneticField, NoiseOperatorS

RUN_MODES = ("simulate", "ensemble", "sweep", "diagnose")
BC_MODES = ("periodic", "bounded", "bounded-dirichlet")


class ConfigError(ValueError):
    """One or more invalid config entries; ``problems`` lists (line, message)."""

    def __init__(self, problems: list[tuple[int, str]]):
        self.problems = problems
        lines = "; ".join(f"line {ln}: {msg}" if ln else msg for ln, msg in problems)
        super().__init__(lines)


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_dt(s: str):
    if s.strip().lower() == "auto":
        return "auto"
    return float(s)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class RunConfig:
    grid: str = "64x64"
    lx: float = 1.0
    ly: float = 1.0
    bc: str = "periodic"
    eps: float = 0.2
    mu: float = 1.0
    lam: float = 1.0
    gamma: float = 1.0
    dt: object = "auto"
    dt_override: bool = False
    T: float = 0.5
    init_u: str = "zero"
    init_d: str = "const:0,0,1"
    seed: int = 0
    modes: int = 8
    sigma0: float = 1.0
    q: float = 1.5
    xi1: float = 1.0
    xi2: float = 1.0
    h_spec: str = "const:0,0,0.5"
    proj_tol: float = 1e-10
    out_dir: str = "runs"
    checkpoint_every: int = 50
    mode: str = "simulate"
    paths: int = 8
    sweep_eps: str = "0.2,0.1,0.05"
    track_budget: bool = True
    track_weak: bool = False
    track_invariants: bool = False

    def nx_ny(self) -> tuple[int, int]:
        try:
            sx, sy = self.grid.lower().split("x")
            return int(sx), int(sy)
        except Exception as exc:
            raise ConfigError([(0, f"sim.grid must look like '64x64', got {self.grid!r}")]) from exc


# key -> (attribute, parser)
SCHEMA = {
    "sim.grid": ("grid", str),
    "sim.lx": ("lx", float),
    "sim.ly": ("ly", float),
    "sim.bc": ("bc", str),
    "sim.eps": ("eps", float),
    "sim.mu": ("mu", float),
    "sim.lambda": ("lam", float),
    "sim.gamma": ("gamma", float),
    "sim.dt": ("dt", _parse_dt),
    "sim.dt_override": ("dt_override", _parse_bool),
    "sim.T": ("T", float),
    "init.u": ("init_u", str),
    "init.d": ("init_d", str),
    "noise.seed": ("seed", int),
    "noise.modes": ("modes", int),
    "noise.sigma0": ("sigma0", float),
    "noise.q": ("q", float),
    "noise.xi1": ("xi1", float),
    "noise.xi2": ("xi2", float),
    "field.h": ("h_spec", str),
    "proj.tol": ("proj_tol", float),
    "out.dir": ("out_dir", str),
    "out.checkpoint_every": ("checkpoint_every", int),
    "run.mode": ("mode", str),
    "ensemble.paths": ("paths", int),
    "sweep.eps": ("sweep_eps", str),
    "track.budget": ("track_budget", _parse_bool),
    "track.weak": ("track_weak", _parse_bool),
    "track.invariants": ("track_invariants", _parse_bool),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in SCHEMA.items()}


def parse_config(text: str) -> RunConfig:
    """Parse flat ``key = value`` lines ('#' starts a comment).  Raises
    :class:`ConfigError` listing every problem at once."""
    cfg = RunConfig()
    problems: list[tuple[int, str]] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append((lineno, f"expected 'key = value', got {raw.strip()!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            problems.append((lineno, f"unknown key {key!r}"))
            continue
        if key in seen:
            problems.append((lineno, f"duplicate key {key!r} (first on line {seen[key]})"))
            continue
        seen[key] = lineno
        attr, parser = SCHEMA[key]
        try:
            setattr(cfg, attr, parser(value))
        except (ValueError, TypeError) as exc:
            problems.append((lineno, f"{key}: {exc}"))
    problems.extend((seen.get(_ATTR_TO_KEY[attr], 0), msg) for attr, msg in validate(cfg))
    if problems:
        raise ConfigError(sorted(problems))
    return cfg


def validate(cfg: RunConfig) -> list[tuple[str, str]]:
    """Invariant checks; returns (attribute, message) pairs."""
    out = []
    try:
        nx, ny = cfg.nx_ny()
        if nx < 4 or ny < 4:
            out.append(("grid", "sim.grid: grid must be at least 4x4"))
    except ConfigError:
        out.append(("grid", f"sim.grid: must look like '64x64', got {cfg.grid!r}"))
    for attr, key in (("lx", "sim.lx"), ("ly", "sim.ly"), ("eps", "sim.eps"),
                      ("mu", "sim.mu"), ("lam", "sim.lambda"), ("gamma", "sim.gamma"),
                      ("T", "sim.T"), ("sigma0", "noise.sigma0"), ("q", "noise.q"),
                      ("proj_tol", "proj.tol")):
        if not (isinstance(getattr(cfg, attr), (int, float)) and getattr(cfg, attr) > 0):
            out.append((attr, f"{key}: must be positive"))
    for attr, key in (("xi1", "noise.xi1"), ("xi2", "noise.xi2")):
        if getattr(cfg, attr) < 0:
            out.append((attr, f"{key}: must be nonnegative"))
    if cfg.dt != "auto" and (not isinstance(cfg.dt, float) or cfg.dt <= 0):
        out.append(("dt", "sim.dt: must be positive or 'auto'"))
    if cfg.bc not in BC_MODES:
        out.append(("bc", f"sim.bc: must be one of {BC_MODES}"))
    if cfg.mode not in RUN_MODES:
        out.append(("mode", f"run.mode: must be one of {RUN_MODES}"))
    if cfg.modes < 1:
        out.append(("modes", "noise.modes: must be >= 1"))
    if cfg.paths < 1:
        out.append(("paths", "ensemble.paths: must be >= 1"))
    if cfg.checkpoint_every < 1:
        out.append(("checkpoint_every", "out.checkpoint_every: must be >= 1"))
    try:
        parse_eps_list(cfg.sweep_eps)
    except ValueError as exc:
        out.append(("sweep_eps", f"sweep.eps: {exc}"))
    for attr in SPEC_FORMS:
        try:
            spec_args(cfg, attr)
        except ValueError as exc:
            out.append((attr, f"{_ATTR_TO_KEY[attr]}: {exc}"))
    return out


def parse_eps_list(text: str) -> list[float]:
    """The relaxation parameters of ``sweep.eps``: a comma-separated, strictly
    decreasing list of positive numbers; raises ValueError otherwise."""
    eps = [float(tok) for tok in text.split(",") if tok.strip()]
    if not eps or not eps[-1] > 0 or any(not a > b for a, b in zip(eps, eps[1:])):
        raise ValueError(f"must be a strictly decreasing list of positive numbers, got {text!r}")
    return eps


# spec attribute -> form -> converters of its arguments and the argument
# counts it accepts (0 = builder defaults); the file form takes a path
SPEC_FORMS = {
    "init_u": {"zero": ((), (0,)), "taylor-green": ((int, float), (0, 1, 2)), "file": None},
    "init_d": {"const": ((float,) * 3, (0, 3)), "vortex": ((float,) * 3, (0, 1, 2, 3)),
               "unit-smooth": ((float,), (0, 1)), "unit-mixed": ((float,), (0, 1)),
               "file": None},
    "h_spec": {"const": ((float,) * 3, (0, 3)), "wave": ((float,) * 3, (0, 3)), "file": None},
}


def spec_args(cfg: RunConfig, attr: str) -> tuple[str, list]:
    """(form, converted arguments) of the ``form[:a,b,...]`` spec held in
    ``attr``; raises ValueError when the form, the argument count or a
    number is wrong."""
    kind, colon, rest = getattr(cfg, attr).partition(":")
    forms = SPEC_FORMS[attr]
    if kind not in forms:
        raise ValueError(f"unknown form {kind!r} (allowed: {tuple(forms)})")
    if forms[kind] is None:
        if not rest:
            raise ValueError("file form needs a path (file:PATH)")
        return kind, [rest]
    converters, counts = forms[kind]
    args = rest.split(",") if colon else []
    if len(args) not in counts:
        raise ValueError(f"{kind} takes {' or '.join(map(str, counts))} arguments, got {len(args)}")
    return kind, [conv(a) for conv, a in zip(converters, args)]


def canonical_dump(cfg: RunConfig) -> str:
    """Normalized text form; re-parses to an equal config."""
    lines = [f"{key} = {_fmt(getattr(cfg, attr))}" for key, (attr, _) in sorted(SCHEMA.items())]
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_dump(cfg).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_grid(cfg: RunConfig) -> Grid:
    nx, ny = cfg.nx_ny()
    if cfg.bc == "periodic":
        bcv, bcd = "periodic", "periodic"
    elif cfg.bc == "bounded":
        bcv, bcd = "noslip", "neumann"
    else:
        bcv, bcd = "noslip", "dirichlet"
    return Grid(nx, ny, cfg.lx, cfg.ly, bc_velocity=bcv, bc_director=bcd)


def build_params(cfg: RunConfig, grid: Grid, umax: float = 0.0) -> Params:
    if cfg.dt == "auto":
        dt = stability_dt(cfg.eps, grid, cfg.mu, cfg.gamma, umax)
    else:
        dt = float(cfg.dt)
    return Params(
        eps=cfg.eps,
        mu=cfg.mu,
        lam=cfg.lam,
        gamma=cfg.gamma,
        xi1=cfg.xi1,
        xi2=cfg.xi2,
        dt=dt,
        T=cfg.T,
        proj_tol=cfg.proj_tol,
        dt_override=cfg.dt_override,
    )


def build_initial_u(cfg: RunConfig, grid: Grid) -> np.ndarray:
    kind, args = spec_args(cfg, "init_u")
    if kind == "zero":
        return zero_velocity(grid)
    if kind == "taylor-green":
        k, amp = args + [1, 0.1][len(args):]
        return taylor_green(grid, k=k, amp=amp)
    return read_snapshot(args[0], cfg.lx, cfg.ly).values


def build_initial_d(cfg: RunConfig, grid: Grid) -> np.ndarray:
    kind, args = spec_args(cfg, "init_d")
    if kind == "const":
        return constant_director(grid, tuple(args) or (0.0, 0.0, 1.0))
    if kind == "vortex":
        defaults = [0.5 * grid.lx, 0.5 * grid.ly, 3.0 * max(grid.hx, grid.hy)]
        return vortex_director(grid, *(args + defaults[len(args):]))
    if kind == "unit-smooth":
        return smooth_unit_director(grid, amp=args[0] if args else 0.4)
    if kind == "unit-mixed":
        return mixed_unit_director(grid, amp=args[0] if args else 0.4)
    return read_snapshot(args[0], cfg.lx, cfg.ly).values


def build_magnetic_field(cfg: RunConfig, grid: Grid) -> MagneticField:
    kind, args = spec_args(cfg, "h_spec")
    if kind == "const":
        return MagneticField.constant(grid, tuple(args) or (0.0, 0.0, 0.5))
    if kind == "wave":
        return MagneticField.wave(grid, tuple(args) or (0.2, 0.2, 0.5))
    return MagneticField(grid, read_snapshot(args[0], cfg.lx, cfg.ly).values)


def build_noise_operator(cfg: RunConfig, grid: Grid) -> NoiseOperatorS:
    return NoiseOperatorS(grid, n_modes=cfg.modes, sigma0=cfg.sigma0, q=cfg.q,
                          proj_tol=cfg.proj_tol)
