"""Command-line driver: config parsing, run orchestration, artifact output.

Subcommands: ``simulate``, ``ensemble``, ``sweep`` (each take a config
file) and ``diagnose`` (takes a director snapshot).  Exit codes:
0 success, 1 validation error, 2 numerical failure, 3 I/O error.  All
randomness flows from config seeds; nothing is drawn from the environment.
The SELFLOW_OUT environment variable overrides out.dir.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    build_params,
    canonical_dump,
    config_hash,
    parse_config,
)
from .diagnostics import (
    MULTIPLIERS,
    budget_residual_series,
    default_defect_radius,
    default_defect_threshold,
    defect_detect,
    pohozaev_residual,
    stress_pairing,
)
from .dynamics import BlowUpError, StabilityError
from .ensemble import coupled_sweep, default_sweep_test_functions, run_ensemble, run_path
from .fields import SnapshotError, read_snapshot, write_snapshot
from .grids import GridError
from .projection import ProjectionError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

FORMAT_VERSION = 1


def _load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


@contextmanager
def _run_dir(cfg: RunConfig, tag: str):
    """Directory to write a run's artifacts into.

    The artifacts go into a temporary sibling of ``<out>/<tag>-<hash>``,
    which is renamed into place once the block completes; a run directory
    left by an earlier run of the same config is replaced only then.  On
    any failure the temporary directory is removed, so no partial run
    directory is left behind.
    """
    base = Path(os.environ.get("SELFLOW_OUT", cfg.out_dir))
    final = base / f"{tag}-{config_hash(cfg)}"
    tmp, old = (base / f".{final.name}.{kind}{os.getpid()}" for kind in ("tmp", "old"))
    base.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        yield tmp
        if final.exists():
            final.rename(old)
        tmp.rename(final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)
    print(f"{tag}: wrote {final}")


def _write_manifest(run_dir: Path, cfg: RunConfig, seeds: list[int], extra: dict | None = None) -> None:
    lines = [
        f"format_version = {FORMAT_VERSION}",
        f"selflow_version = {__version__}",
        f"config_hash = {config_hash(cfg)}",
        "seeds = " + ",".join(str(s) for s in seeds),
    ]
    for key, val in (extra or {}).items():
        lines.append(f"{key} = {val}")
    (run_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (run_dir / "config.cfg").write_text(canonical_dump(cfg), encoding="utf-8")


def _write_table(path: Path, columns: dict, comment: str = "") -> None:
    """A CSV table of named columns broadcast to one shape: the ``comment``
    line if any, the header, then one row per element in C order, each
    number written as repr(float(v)), the shortest text that reads back as
    the same double, and each string as it is."""
    flat = [np.ravel(col).tolist() for col in np.broadcast_arrays(*columns.values())]
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(comment + "\n")
        fh.write(",".join(columns) + "\n")
        for row in zip(*flat):
            fh.write(",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n")


def cmd_simulate(cfg: RunConfig) -> int:
    result = run_path(cfg)
    with _run_dir(cfg, "simulate") as run_dir:
        _write_manifest(run_dir, cfg, [cfg.seed])
        grid = result.state.grid
        extra = {}
        if cfg.track_budget:
            extra["budget_residual"] = budget_residual_series(result.series, build_params(cfg, grid))
        _write_table(run_dir / "energy.csv", {**result.series.columns, **extra})
        write_snapshot(run_dir / "u_final.fld", grid, result.state.u)
        write_snapshot(run_dir / "d_final.fld", grid, result.state.d)
        if result.weak_tracker is not None:
            residuals = {**result.weak_tracker.residual_u(result.state.u),
                         **result.weak_tracker.residual_d(result.state.d)}
            _write_table(run_dir / "weak.csv",
                         {"test_function": list(residuals), "residual": list(residuals.values())},
                         "# director weak form uses -f_eps(d) for the |grad d|^2 d term at finite eps")
        if cfg.track_invariants:
            inv = result.state.ledgers
            _write_table(run_dir / "invariants.csv", {"max_divergence": inv.max_divergence,
                                                      "max_adv_ratio": inv.max_adv_ratio})
    return EXIT_OK


def cmd_ensemble(cfg: RunConfig, threads: int) -> int:
    result = run_ensemble(cfg, threads)
    with _run_dir(cfg, "ensemble") as run_dir:
        _write_manifest(run_dir, cfg, result.seeds, {"paths": cfg.paths})
        _write_table(run_dir / "ensemble.csv", result.stats.columns)
        paths_dir = run_dir / "paths"
        paths_dir.mkdir(exist_ok=True)
        for i in range(cfg.paths):
            _write_table(paths_dir / f"path_{i:03d}.csv",
                         {name: col[i] for name, col in result.series.columns.items()})
        stats = result.stats.columns  # each ledger's mean and 3 se at the last checkpoint
        print(f"ensemble: {cfg.paths} paths, " + ", ".join(
            f"{n} = {stats[f'{n}_mean'][-1]:.3e} (3se {3.0 * stats[f'{n}_se'][-1]:.3e})"
            for n in ("ledger1", "ledger2")))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, threads: int) -> int:
    result = coupled_sweep(cfg, threads)
    with _run_dir(cfg, "sweep") as run_dir:
        _write_manifest(run_dir, cfg, result.seeds, {"eps_list": cfg.sweep_eps})
        index = {"path": np.arange(cfg.paths)[:, None, None],
                 "eps": np.array(result.eps_list)[:, None]}
        _write_table(run_dir / "sweep.csv", {**index, **result.series.columns})
        _write_table(run_dir / "cauchy.csv", result.cauchy.columns)
        print(f"sweep: eps {result.eps_list}, sup penalty per eps "  # of path 0
              f"{[float(s) for s in result.series.columns['penalty'][0].max(axis=1)]}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    grid, d = read_snapshot(args.snapshot)
    if d.shape != (3, grid.nx, grid.ny):
        raise ValueError("diagnose: snapshot must hold a 3-component director")
    if not np.all(np.isfinite(d)):
        raise ValueError("diagnose: snapshot holds non-finite values")
    eps = args.eps
    if args.pohozaev or not (args.defects or args.pairings):
        x0, y0 = 0.5 * grid.lx, 0.5 * grid.ly
        r = 0.25 * min(grid.lx, grid.ly) if args.radius is None else args.radius
        print("pohozaev: choice,boundary_kinetic,bulk_stress,bulk_div,"
              "boundary_energy,rhs,residual")
        for choice in MULTIPLIERS:
            rep = pohozaev_residual(d, grid, eps, (x0, y0), r, choice)
            print(f"pohozaev: {choice},{rep.boundary_kinetic!r},{rep.bulk_stress!r},"
                  f"{rep.bulk_div!r},{rep.boundary_energy!r},{rep.rhs!r},{rep.residual!r}")
    if args.defects:
        r = default_defect_radius(grid) if args.radius is None else args.radius
        thr = default_defect_threshold(grid, eps, r) if args.threshold is None else args.threshold
        centers = defect_detect(d, grid, eps, r, thr)
        print(f"defects: count = {len(centers)} (r = {r!r}, delta0_sq = {thr!r})")
        for x, y, energy in centers:
            print(f"defects: center,{x!r},{y!r},{energy!r}")
    if args.pairings:
        for name, val in stress_pairing(d, grid, default_sweep_test_functions(grid)).items():
            print(f"pairings: {name},{val!r}")
    return EXIT_OK


def _thread_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _positive_number(text: str) -> float:
    x = float(text)
    if not 0.0 < x < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return x


def _energy_threshold(text: str) -> float:
    x = float(text)
    if not x >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (a squared energy), got {text}")
    return x


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="selflow", description=__doc__)
    parser.add_argument("--threads", type=_thread_count, default=1,
                        help="cap (N >= 1) on lane groups run in parallel by "
                             "ensemble and sweep; the group width comes from the "
                             "grid, and results depend on neither N nor the width; "
                             "bounded grids gain no speed from N > 1, since the "
                             "per-call dispatch of their small-array steps holds "
                             "the GIL (timings in the README)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "ensemble", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("config")
    p_diag = sub.add_parser("diagnose")
    p_diag.add_argument("snapshot")
    p_diag.add_argument("--eps", type=_positive_number, default=0.2)
    p_diag.add_argument("--radius", type=float, default=None)
    p_diag.add_argument("--threshold", type=_energy_threshold, default=None)
    p_diag.add_argument("--pohozaev", action="store_true")
    p_diag.add_argument("--defects", action="store_true")
    p_diag.add_argument("--pairings", action="store_true")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK

    t0 = time.monotonic()
    try:
        if args.command == "diagnose":
            return cmd_diagnose(args)
        cfg = _load_config(args.config)
        if args.command == "simulate":
            code = cmd_simulate(cfg)
        elif args.command == "ensemble":
            code = cmd_ensemble(cfg, args.threads)
        else:
            code = cmd_sweep(cfg, args.threads)
        print(f"{args.command}: done in {time.monotonic() - t0:.1f} s")
        return code
    except ConfigError as exc:
        for ln, msg in exc.problems:
            print(f"config error: line {ln}: {msg}" if ln else f"config error: {msg}",
                  file=sys.stderr)
        return EXIT_VALIDATION
    except (BlowUpError, StabilityError, ProjectionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GridError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, SnapshotError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
