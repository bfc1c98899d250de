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
    budget_residual_series,
    default_defect_radius,
    default_defect_threshold,
    defect_detect,
    pohozaev_residual,
    stress_pairing,
)
from .dynamics import BlowUpError, StabilityError
from .ensemble import coupled_sweep, default_sweep_test_functions, run_ensemble, run_path
from .fields import SnapshotError, read_snapshot, write_snapshot, Field
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


def _write_series_csv(path: Path, series, extra_cols: dict | None = None) -> None:
    cols = {**series.columns, **(extra_cols or {})}
    np.savetxt(path, np.column_stack(list(cols.values())), delimiter=",",
               header=",".join(cols), comments="")


def cmd_simulate(cfg: RunConfig) -> int:
    result = run_path(cfg, cfg.seed)
    with _run_dir(cfg, "simulate") as run_dir:
        _write_manifest(run_dir, cfg, [cfg.seed])
        grid = result.state.grid
        extra = {}
        if cfg.track_budget:
            extra["budget_residual"] = budget_residual_series(result.series, build_params(cfg, grid))
        _write_series_csv(run_dir / "energy.csv", result.series, extra)
        write_snapshot(run_dir / "u_final.fld", Field(grid, result.state.u, grid.bc_velocity))
        write_snapshot(run_dir / "d_final.fld", Field(grid, result.state.d, grid.bc_director))
        if result.weak_tracker is not None:
            ru = result.weak_tracker.residual_u(result.state.u)
            rd = result.weak_tracker.residual_d(result.state.d)
            with open(run_dir / "weak.csv", "w", encoding="utf-8") as fh:
                fh.write("# director weak form uses -f_eps(d) for the |grad d|^2 d term at finite eps\n")
                fh.write("test_function,residual\n")
                for name, val in {**ru, **rd}.items():
                    fh.write(f"{name},{float(val)!r}\n")
        if result.invariants is not None:
            inv = result.invariants
            with open(run_dir / "invariants.csv", "w", encoding="utf-8") as fh:
                fh.write("max_divergence,max_adv_ratio\n")
                fh.write(f"{inv.max_divergence!r},{inv.max_adv_ratio!r}\n")
    return EXIT_OK


def cmd_ensemble(cfg: RunConfig, threads: int) -> int:
    result = run_ensemble(cfg, threads)
    with _run_dir(cfg, "ensemble") as run_dir:
        _write_manifest(run_dir, cfg, result.seeds, {"paths": cfg.paths})
        stats = result.stats
        names = sorted(stats.mean)
        header = ["t"] + [f"{n}_{s}" for n in names for s in ("mean", "se", "min", "max")]
        cols = [stats.times]
        for n in names:
            cols += [stats.mean[n], stats.se[n], stats.min[n], stats.max[n]]
        np.savetxt(run_dir / "ensemble.csv", np.column_stack(cols),
                   delimiter=",", header=",".join(header), comments="")
        paths_dir = run_dir / "paths"
        paths_dir.mkdir(exist_ok=True)
        for i, series in enumerate(result.series):
            _write_series_csv(paths_dir / f"path_{i:03d}.csv", series)
        m1, ci1 = stats.ledger_ci("ledger1")
        m2, ci2 = stats.ledger_ci("ledger2")
        print(f"ensemble: {cfg.paths} paths, ledger1 = {m1:.3e} (3se {ci1:.3e}), "
              f"ledger2 = {m2:.3e} (3se {ci2:.3e})")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, threads: int) -> int:
    result = coupled_sweep(cfg, threads)
    with _run_dir(cfg, "sweep") as run_dir:
        _write_manifest(run_dir, cfg, result.seeds, {"eps_list": cfg.sweep_eps})
        first = result.per_path[0]
        with open(run_dir / "sweep.csv", "w", encoding="utf-8") as fh:
            head = "path,eps,t,penalty,dev_norm,defect_count," + ",".join(
                f"pairing_{n}" for n in result.phi_names
            )
            fh.write(head + "\n")
            for p, sweep in enumerate(result.per_path):
                for a, eps in enumerate(sweep.eps_list):
                    for c, t in enumerate(sweep.times):
                        row = [p, eps, t, sweep.penalty[a, c], sweep.dev_norm[a, c],
                               sweep.defect_count[a, c]] + list(sweep.pairings[a, c])
                        fh.write(",".join(repr(float(v)) for v in row) + "\n")
        with open(run_dir / "cauchy.csv", "w", encoding="utf-8") as fh:
            fh.write("eps_hi,eps_lo," + ",".join(result.phi_names) + "\n")
            for gap in range(result.cauchy_mean.shape[0]):
                row = result.eps_list[gap:gap + 2] + list(result.cauchy_mean[gap])
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        print(f"sweep: eps {result.eps_list}, sup penalty per eps "
              f"{[float(s) for s in first.sup_penalty]}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    f = read_snapshot(args.snapshot, args.lx, args.ly)
    if f.k != 3:
        print("diagnose: snapshot must hold a 3-component director", file=sys.stderr)
        return EXIT_VALIDATION
    grid = f.grid
    eps = args.eps
    did_something = False
    if args.pohozaev or not (args.defects or args.pairings):
        did_something = True
        x0, y0 = 0.5 * grid.lx, 0.5 * grid.ly
        r = 0.25 * min(grid.lx, grid.ly) if args.radius is None else args.radius
        print("pohozaev: choice,boundary_kinetic,bulk_stress,bulk_div,"
              "boundary_energy,rhs,residual")
        for choice in ("radial", "x1", "shear"):
            rep = pohozaev_residual(f.values, grid, eps, (x0, y0), r, choice, bc=f.bc)
            print(f"pohozaev: {choice},{rep.boundary_kinetic!r},{rep.bulk_stress!r},"
                  f"{rep.bulk_div!r},{rep.boundary_energy!r},{rep.rhs!r},{rep.residual!r}")
    if args.defects:
        did_something = True
        r = default_defect_radius(grid) if args.radius is None else args.radius
        thr = default_defect_threshold(grid, eps, r) if args.threshold is None else args.threshold
        rep = defect_detect(f.values, grid, eps, r, thr, bc=f.bc)
        print(f"defects: count = {rep.count} (r = {r!r}, delta0_sq = {thr!r})")
        for x, y, energy in rep.centers:
            print(f"defects: center,{x!r},{y!r},{energy!r}")
    if args.pairings:
        did_something = True
        for tf in default_sweep_test_functions(grid):
            val = stress_pairing(f.values, grid, f.bc, tf)
            print(f"pairings: {tf.name},{val!r}")
    return EXIT_OK if did_something else EXIT_VALIDATION


def _thread_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


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
                             "bounded grids gain no speed from N > 1 (timings "
                             "in the README)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "ensemble", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("config")
    p_diag = sub.add_parser("diagnose")
    p_diag.add_argument("snapshot")
    p_diag.add_argument("--eps", type=float, default=0.2)
    p_diag.add_argument("--lx", type=float, default=1.0)
    p_diag.add_argument("--ly", type=float, default=1.0)
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
