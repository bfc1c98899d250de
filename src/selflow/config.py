"""Flat key = value run configuration: parsing, validation, canonical form,
and builders that turn a config into simulation objects.

Unknown keys are rejected; every validation problem is reported together
with its line number (the step count, ``file:`` snapshots and finite
initial fields when the run builds them, not at parse time).  The canonical
dump re-parses to an equal config, and its hash names the output directory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import Params, stability_dt
from .fields import read_snapshot
from .grids import Grid, GridError
from .initial import (
    constant_director,
    mixed_unit_director,
    smooth_unit_director,
    taylor_green,
    vortex_director,
    wave_field,
    zero_velocity,
)
from .noise import NoiseOperatorS
from .pathrun import sphere_columns
from .projection import PROJ_TOL

RUN_MODES = ("simulate", "ensemble", "sweep", "diagnose")
# sim.bc -> the grid's director closure (the velocity closure follows)
BC_MODES = {"periodic": "periodic", "bounded": "neumann", "bounded-dirichlet": "dirichlet"}
# most steps a run may take; a dt far below the time scale would otherwise
# run for ages without a word
MAX_STEPS = 10**9
# most noise-mode values (noise.modes x nx x ny) a run may hold: the noise
# operator builds its mode shapes and their scaled copies as a few float64
# arrays of that size (512 MiB each at this bound), and a count far above
# it failed in numpy's allocation with a traceback.  2048 times the largest
# grid-and-modes config of the tests and benchmark (8 modes on 64x64)
MAX_MODE_NODES = 2**26


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


def _finite(s: str) -> float:
    """The parser of every real number in a config: NaN and infinities
    raise ValueError, as a non-number does."""
    x = float(s)
    if not np.isfinite(x):
        raise ValueError(f"{s.strip()!r} is not a finite number")
    return x


def _wavenumber(s: str) -> int:
    k = int(s)
    if k < 1:
        raise ValueError(f"wavenumber must be >= 1, got {k}")
    return k


def _parse_dt(s: str):
    if s.strip().lower() == "auto":
        return "auto"
    return _finite(s)


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
    proj_tol: float = PROJ_TOL
    out_dir: str = "runs"
    checkpoint_every: int = 50
    mode: str = "simulate"
    paths: int = 8
    sweep_eps: str = "0.2,0.1,0.05"
    track_budget: bool = True
    track_weak: bool = False
    track_invariants: bool = False
    # line of each key in the parsed text, for the problems builders find
    lines: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def nx_ny(self) -> tuple[int, int]:
        try:
            sx, sy = self.grid.lower().split("x")
            return int(sx), int(sy)
        except Exception as exc:
            raise ConfigError([(0, f"sim.grid must look like '64x64', got {self.grid!r}")]) from exc


# key -> (attribute, parser)
SCHEMA = {
    "sim.grid": ("grid", str),
    "sim.lx": ("lx", _finite),
    "sim.ly": ("ly", _finite),
    "sim.bc": ("bc", str),
    "sim.eps": ("eps", _finite),
    "sim.mu": ("mu", _finite),
    "sim.lambda": ("lam", _finite),
    "sim.gamma": ("gamma", _finite),
    "sim.dt": ("dt", _parse_dt),
    "sim.dt_override": ("dt_override", _parse_bool),
    "sim.T": ("T", _finite),
    "init.u": ("init_u", str),
    "init.d": ("init_d", str),
    "noise.seed": ("seed", int),
    "noise.modes": ("modes", int),
    "noise.sigma0": ("sigma0", _finite),
    "noise.q": ("q", _finite),
    "noise.xi1": ("xi1", _finite),
    "noise.xi2": ("xi2", _finite),
    "field.h": ("h_spec", str),
    "proj.tol": ("proj_tol", _finite),
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
    :class:`ConfigError` listing every problem at once; the step count and
    the initial fields are checked when the run builds them, not here."""
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
    cfg.lines = seen
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
    for attr in ("lx", "ly", "eps", "mu", "lam", "gamma", "T", "sigma0", "q", "proj_tol"):
        if not (isinstance(getattr(cfg, attr), (int, float)) and getattr(cfg, attr) > 0):
            out.append((attr, f"{_ATTR_TO_KEY[attr]}: must be positive"))
    for attr in ("xi1", "xi2"):
        if getattr(cfg, attr) < 0:
            out.append((attr, f"{_ATTR_TO_KEY[attr]}: must be nonnegative"))
    if not 0 <= cfg.seed < 2**64:
        out.append(("seed", "noise.seed: must be in [0, 2**64)"))
    if cfg.dt != "auto" and (not isinstance(cfg.dt, float) or cfg.dt <= 0):
        out.append(("dt", "sim.dt: must be positive or 'auto'"))
    if cfg.bc not in BC_MODES:
        out.append(("bc", f"sim.bc: must be one of {tuple(BC_MODES)}"))
    if cfg.mode not in RUN_MODES:
        out.append(("mode", f"run.mode: must be one of {RUN_MODES}"))
    if cfg.modes < 1:
        out.append(("modes", "noise.modes: must be >= 1"))
    if cfg.paths < 1:
        out.append(("paths", "ensemble.paths: must be >= 1"))
    if cfg.checkpoint_every < 1:
        out.append(("checkpoint_every", "out.checkpoint_every: must be >= 1"))
    flagged = {attr for attr, _ in out}
    if not flagged & {"grid", "modes"} and cfg.modes * nx * ny > MAX_MODE_NODES:
        out.append(("modes", f"noise.modes: {cfg.modes} modes on the {nx}x{ny} grid are "
                             f"{cfg.modes * nx * ny} mode values, more than the "
                             f"{MAX_MODE_NODES} a run may hold"))
    # the energy and the noise bounds square these
    for attr in ("eps", "sigma0", "xi1", "xi2"):
        x = getattr(cfg, attr)
        if attr not in flagged and not np.isfinite(x * x):
            out.append((attr, f"{_ATTR_TO_KEY[attr]}: {x!r} is too large (its square overflows)"))
    # a square grid of one axis's node count and length has that axis's
    # spacing, so a spacing the Grid refuses is reported under its length
    if not flagged & {"grid", "lx", "ly", "bc"}:
        for attr, n in (("lx", nx), ("ly", ny)):
            try:
                Grid(n, n, getattr(cfg, attr), getattr(cfg, attr), BC_MODES[cfg.bc])
            except GridError as exc:
                out.append((attr, f"{_ATTR_TO_KEY[attr]}: {exc}"))
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
    decreasing list of finite positive numbers; raises ValueError otherwise."""
    eps = [_finite(tok) for tok in text.split(",") if tok.strip()]
    if not eps or not eps[-1] > 0 or any(not a > b for a, b in zip(eps, eps[1:])):
        raise ValueError(f"must be a strictly decreasing list of positive numbers, got {text!r}")
    return eps


# spec attribute -> form -> converters of its arguments and the argument
# counts it accepts (0 = builder defaults); the file form takes a path, and
# its entry is the component count of the snapshot
SPEC_FORMS = {
    "init_u": {"zero": ((), (0,)), "taylor-green": ((_wavenumber, _finite), (0, 1, 2)), "file": 2},
    "init_d": {"const": ((_finite,) * 3, (0, 3)), "vortex": ((_finite,) * 3, (0, 1, 2, 3)),
               "unit-smooth": ((_finite,), (0, 1)), "unit-mixed": ((_finite,), (0, 1)),
               "file": 3},
    "h_spec": {"const": ((_finite,) * 3, (0, 3)), "wave": ((_finite,) * 3, (0, 3)),
               "file": 3},
}


def spec_args(cfg: RunConfig, attr: str) -> tuple[str, list]:
    """(form, converted arguments) of the ``form[:a,b,...]`` spec held in
    ``attr``; raises ValueError when the form, the argument count or a
    number is wrong."""
    kind, colon, rest = getattr(cfg, attr).partition(":")
    forms = SPEC_FORMS[attr]
    if kind not in forms:
        raise ValueError(f"unknown form {kind!r} (allowed: {tuple(forms)})")
    if kind == "file":
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

def _read_spec_file(cfg: RunConfig, grid: Grid, attr: str, path: str) -> np.ndarray:
    """Values of the ``file:`` snapshot of spec ``attr``; raises
    :class:`ConfigError` naming the key and its line unless the snapshot
    holds the spec's component count on the grid's node counts, lengths and
    layout (periodic or not)."""
    snap, values = read_snapshot(path)
    got = (snap.check_values(values), snap.nx, snap.ny, snap.lx, snap.ly, snap.periodic)
    want = (SPEC_FORMS[attr]["file"], grid.nx, grid.ny, grid.lx, grid.ly, grid.periodic)
    if got != want:
        key = _ATTR_TO_KEY[attr]
        raise ConfigError([(cfg.lines.get(key, 0), f"{key}: snapshot {path} has (components, "
                                                  f"nx, ny, lx, ly, periodic) = {got}, the "
                                                  f"config needs {want}")])
    return values


def build_grid(cfg: RunConfig) -> Grid:
    nx, ny = cfg.nx_ny()
    return Grid(nx, ny, cfg.lx, cfg.ly, bc_director=BC_MODES[cfg.bc])


def build_params(cfg: RunConfig, grid: Grid, umax: float = 0.0) -> Params:
    """The run's parameters; raises :class:`ConfigError` under ``sim.T``
    when round(sim.T / dt) is above MAX_STEPS."""
    if cfg.dt == "auto":
        dt = stability_dt(cfg.eps, grid, cfg.mu, cfg.gamma, umax)
    else:
        dt = float(cfg.dt)
    # a float (inf if an auto dt underflows to 0), as round() raises on inf;
    # MAX_STEPS is even, so round(steps) > MAX_STEPS exactly above this
    steps = cfg.T / dt if dt > 0 else np.inf
    if not steps <= MAX_STEPS + 0.5:
        raise ConfigError([(cfg.lines.get("sim.T", 0),
                            f"sim.T: {cfg.T!r} takes {steps:.3e} steps of dt = {dt:.3e}, "
                            f"more than the {MAX_STEPS} a run may take")])
    shared = {f.name: getattr(cfg, f.name) for f in fields(Params) if f.name != "dt"}
    return Params(dt=dt, **shared)


def build_initial_u(cfg: RunConfig, grid: Grid) -> np.ndarray:
    kind, args = spec_args(cfg, "init_u")
    if kind == "zero":
        return zero_velocity(grid)
    if kind == "taylor-green":
        return taylor_green(grid, *args)
    return _read_spec_file(cfg, grid, "init_u", args[0])


def build_initial_d(cfg: RunConfig, grid: Grid) -> np.ndarray:
    kind, args = spec_args(cfg, "init_d")
    if kind == "const":
        return constant_director(grid, tuple(args) or (0.0, 0.0, 1.0))
    if kind == "vortex":
        defaults = [0.5 * grid.lx, 0.5 * grid.ly, 3.0 * max(grid.hx, grid.hy)]
        return vortex_director(grid, *(args + defaults[len(args):]))
    if kind == "unit-smooth":
        return smooth_unit_director(grid, *args)
    if kind == "unit-mixed":
        return mixed_unit_director(grid, *args)
    return _read_spec_file(cfg, grid, "init_d", args[0])


def build_magnetic_field(cfg: RunConfig, grid: Grid) -> np.ndarray:
    """The magnetic field h of ``field.h``, a (3, nx, ny) array."""
    kind, args = spec_args(cfg, "h_spec")
    if kind == "const":
        return constant_director(grid, tuple(args) or (0.0, 0.0, 0.5))
    if kind == "wave":
        return wave_field(grid, tuple(args) or (0.2, 0.2, 0.5))
    return _read_spec_file(cfg, grid, "h_spec", args[0])


def checked_field(cfg: RunConfig, grid: Grid, attr: str) -> np.ndarray:
    """The initial field of spec ``attr`` on ``grid``; a build that overflows,
    divides by zero or makes a NaN, a field whose squared norm is not
    finite, or a director whose penalty mass at ``sim.eps`` (a sweep's
    smallest eps) is not finite, raises :class:`ConfigError` naming the key
    and its line."""
    build = {"init_u": build_initial_u, "init_d": build_initial_d,
             "h_spec": build_magnetic_field}[attr]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f = build(cfg, grid)
            finite = np.isfinite(np.sum(f * f))
        why = "its squared norm is not finite"
        if finite and attr == "init_d":
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                finite = np.isfinite(sphere_columns(f, grid, cfg.eps)["penalty"])
            why = f"its penalty mass at eps = {cfg.eps!r} is not finite"
        if finite:
            return f
    except ArithmeticError as exc:
        why = f"its build raises {type(exc).__name__}: {exc}"
    key = _ATTR_TO_KEY[attr]
    raise ConfigError([(cfg.lines.get(key, 0), f"{key}: {getattr(cfg, attr)!r} on the "
                        f"{grid.nx}x{grid.ny} grid is not a finite field ({why})")])


def build_noise_operator(cfg: RunConfig, grid: Grid) -> NoiseOperatorS:
    return NoiseOperatorS(grid, n_modes=cfg.modes, sigma0=cfg.sigma0, q=cfg.q)
