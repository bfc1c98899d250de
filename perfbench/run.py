"""selflow benchmark: one workload, measured end to end through the CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ensemble-budget --seed 0 --seconds 15 --trace 0

`--trace 0` reports the end-to-end metrics, untraced; `--trace 1` reports the
per-layer metrics of a traced run.  Every metric is printed by name with its
unit, and the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md.

This process imports neither numpy nor selflow: it pins the BLAS/OpenMP
thread counts, measures set-up in fresh processes, and runs the workload in
one worker process (worker.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
OUT_DIR = ".bench_out"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run a child to completion (killed and reaped at the deadline) and
    return its standard output; raise on failure."""
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[1]).name} exited with code {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "selflow" / "__init__.py").is_file():
        print(f"error: no selflow sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    env = {**os.environ, **PINNED_THREADS}
    env.pop("SELFLOW_OUT", None)
    load_start = os.getloadavg()
    work_dir = root / OUT_DIR / f"{w.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        cfg_path = work_dir / "probe.cfg"
        cfg_path.write_text(config_text(w, args.seed), encoding="utf-8")
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                out = run_child([sys.executable, str(HERE / "setup_probe.py"), str(root),
                                 str(cfg_path)], env, deadline)
                setup.append([float(v) for v in out.strip().splitlines()[-1].split()])
        out = run_child([
            sys.executable, str(HERE / "worker.py"), "--root", str(root),
            "--workload", w.name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", str(work_dir),
            "--spans-out", str(root / OUT_DIR / f"spans-{w.name}.json"),
        ], env, deadline)
        res = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        units = dict(metrics.PER_LAYER)
        values = res["metrics"]
    else:
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        values = {**res["metrics"], "setup_s": statistics.median(s[0] for s in setup)}
        res["raw"]["setup_s"] = statistics.median(s[1] for s in setup)
    if set(values) != set(units):
        print(f"error: metric set mismatch: {sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1

    env_record = {
        **res["env"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": PINNED_THREADS,
        "cli_threads": 1,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "seconds": args.seconds,
        "setup_probes": len(setup),
        "repetitions": res["reps"],
    }
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env_record))
    for problem in res["problems"]:
        print(f"check failed: {problem}")
    print(f"ops_failed_frac = {res['failed'] / res['attempted']!r}  "
          f"({res['failed']} of {res['attempted']} repetitions)")
    for name, value in res["raw"].items():
        print(f"measured {name} = {value!r}")
    for name in units:
        print(f"{name} = {values[name]!r} {units[name]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
