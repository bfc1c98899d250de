"""Workload process: runs `selflow.cli.main` repeatedly on one workload and
prints one JSON line with the measurements and the output-check results.

Started by run.py with BLAS/OpenMP threads pinned.  Each repetition writes
to a fresh SELFLOW_OUT, is timed around `cli.main`, and has its outputs
checked.  Its times are put in reference seconds with the host-speed
samples taken while it ran (hostspeed.py).  Untraced repetitions rebind
only the two runner names (one timestamp pair around the runner call);
traced ones wrap every public function of the traced modules.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, installed_wrappers
import checks
import metrics
from hostspeed import HostSpeed, pin_to_one_cpu
from workloads import WORKLOADS, Workload, config_text, noise_seed

WARMUP_STEPS = 3


def import_selflow(root: Path):
    """Import selflow from the checkout's src/ and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import selflow

    if not Path(selflow.__file__).resolve().is_relative_to(src):
        raise ImportError(f"selflow imported from {selflow.__file__}, not {src}")
    return selflow


class Harness:
    """The selflow modules a run touches, the tracer set-up, and one
    repetition of the CLI."""

    def __init__(self, root: Path):
        self.selflow = import_selflow(root)
        import importlib

        self.mods = {name: importlib.import_module(f"selflow.{name}")
                     for name in metrics.LAYERS + ("grids", "fields", "initial")}
        self.aliases = [self.selflow] + list(self.mods.values())
        self.layers = {name: self.mods[name] for name in metrics.LAYERS}

    def tracer(self, full: bool) -> Tracer:
        if full:
            return Tracer(self.layers, self.aliases,
                          skip=frozenset({"cli.main", "cli.entrypoint"}), work=metrics.WORK)
        return Tracer(self.layers, self.aliases, select=set(metrics.RUNNERS))

    def run_cli(self, w: Workload, cfg_path: Path, out_root: Path, traced: bool) -> dict:
        """One CLI run into ``out_root``; returns exit code, wall time, runner
        time and (traced) spans."""
        stray = installed_wrappers(self.aliases)
        if stray:
            raise RuntimeError(f"tracer wrappers left installed: {stray}")
        os.environ["SELFLOW_OUT"] = str(out_root)
        tr = self.tracer(full=traced)
        argv = ["--threads", "1", w.command, str(cfg_path)]
        with contextlib.redirect_stdout(io.StringIO()), tr:
            t0 = time.perf_counter()
            try:
                code = self.mods["cli"].main(argv)
            except Exception:  # a crash is a failed repetition, not a benchmark error
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - t0
        stray = installed_wrappers(self.aliases)
        if stray:
            raise RuntimeError(f"tracer wrappers not restored: {stray}")
        runner = [s for s in tr.spans if s is not None and s[0] in metrics.RUNNERS]
        runner_s = runner[0][2] - runner[0][1] if len(runner) == 1 else float("nan")
        return {"code": code, "wall": wall, "runner_s": runner_s,
                "spans": tr.spans if traced else None}


def expectations(h: Harness, cfg_path: Path) -> dict:
    """Step count, dt and Params of a workload config, from selflow's own
    config builders (exactly what the CLI runners compute)."""
    config = h.mods["config"]
    cfg = config.parse_config(cfg_path.read_text(encoding="utf-8"))
    grid = config.build_grid(cfg)
    params = config.build_params(cfg, grid, umax=float(abs(config.build_initial_u(cfg, grid)).max()))
    n_steps = max(1, int(round(params.T / params.dt)))
    return {"cfg": cfg, "params": params, "n_steps": n_steps, "dt": params.dt}


def output_stats(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args(argv)
    pin_to_one_cpu()
    with HostSpeed() as speed:
        result = measure(args, speed)
    print(json.dumps(result))
    return 0


def measure(args: argparse.Namespace, speed: HostSpeed) -> dict:
    """The warm-up and the timed repetitions of one workload; returns the
    result record that main prints."""
    w = WORKLOADS[args.workload]
    h = Harness(args.root)
    import numpy
    import scipy

    refs = checks.load_references(Path(__file__).parent / "refs" / f"{w.name}.json")
    reference = refs.get(str(noise_seed(args.seed)))

    work = args.work_dir
    cfg_path = work / "workload.cfg"
    cfg_path.write_text(config_text(w, args.seed), encoding="utf-8")
    exp = expectations(h, cfg_path)
    warm_path = work / "warmup.cfg"
    warm_path.write_text(config_text(w, args.seed, T=WARMUP_STEPS * exp["dt"]), encoding="utf-8")
    warm = expectations(h, warm_path)

    attempted = failed = 0
    problems: list[str] = []
    reps: list[dict] = []

    def rep(path: Path, e: dict, traced: bool, measured: bool) -> dict:
        nonlocal attempted, failed
        out_root = work / f"out-{attempted}"
        mark = speed.mark()
        r = h.run_cli(w, path, out_root, traced)
        r["to_ref"] = speed.to_ref(mark)
        attempted += 1
        # the 3-step warm-up skips the budget and reference checks: over 3 steps
        # the realized noise dominates the dissipated energy
        found = checks.check_run(
            w, out_root, exit_code=r["code"], n_steps=e["n_steps"], dt=e["dt"],
            eps=e["params"].eps, every=e["cfg"].checkpoint_every,
            params=e["params"] if measured else None,
            reference=reference if measured else None)
        if measured and reference is None:
            found.append(f"no reference for noise seed {noise_seed(args.seed)}")
        if found:
            failed += 1
            problems.extend(found[:5])
        r["files"], r["bytes"] = output_stats(out_root) if out_root.exists() else (0, 0)
        shutil.rmtree(out_root, ignore_errors=True)
        gc.collect()
        return r

    rep(warm_path, warm, False, measured=False)  # lazy imports, FFT plans, allocator
    lanes_steps = w.lanes() * exp["n_steps"]
    # repeat until the next round would end past --seconds, so the measured
    # time stays within it (at least one round is always run)
    start = time.perf_counter()
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        for traced in ((False, True) if args.trace else (False,)):
            r = rep(cfg_path, exp, traced, measured=True)
            r["traced"] = traced
            reps.append(r)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
            break

    # measured seconds * r["to_ref"] = reference seconds (see hostspeed.py)
    plain = [r for r in reps if not r["traced"]]
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "reps": len(reps),
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "selflow": h.selflow.__version__,
            "noise_seed": noise_seed(args.seed),
            "n_steps": exp["n_steps"],
            "dt": exp["dt"],
            "lanes": w.lanes(),
        },
        "raw": {
            "path_steps_per_s": statistics.median(lanes_steps / r["runner_s"] for r in plain),
            "wall_s": statistics.median(r["wall"] for r in plain),
            "to_ref_factor": statistics.median(r["to_ref"] for r in reps),
        },
    }
    if not args.trace:
        result["metrics"] = {
            "path_steps_per_s": statistics.median(
                lanes_steps / (r["runner_s"] * r["to_ref"]) for r in plain),
            "wall_s": statistics.median(r["wall"] * r["to_ref"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        traced = [r for r in reps if r["traced"]]
        per_rep = []
        for r in traced:
            m = metrics.per_layer(r["spans"], r["wall"])
            m["cli.files_written"], m["cli.bytes_written"] = r["files"], r["bytes"]
            per_rep.append(m)
        agg = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        agg["trace.overhead_frac"] = (
            statistics.median(r["wall"] * r["to_ref"] for r in traced)
            / statistics.median(r["wall"] * r["to_ref"] for r in plain) - 1.0)
        result["metrics"] = agg
        if args.spans_out is not None:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": w.name, "wall_s": traced[-1]["wall"],
                           "fields": ["name", "start", "end", "parent", "work"],
                           "spans": traced[-1]["spans"]}, fh)
    return result


if __name__ == "__main__":
    sys.exit(main())
