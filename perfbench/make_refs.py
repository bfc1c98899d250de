"""Record the final-checkpoint reference values of one workload for every
noise seed the benchmark can select, into perfbench/refs/<workload>.json.

Usage (from the root of a checkout):

    OMP_NUM_THREADS=1 python3 perfbench/make_refs.py --workload sweep-eps

Run it only at a commit whose numerics are the intended reference; the
benchmark fails any repetition whose final checkpoint moves away from these
values by more than checks.REF_RTOL.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import checks
from workloads import N_REFERENCE_SEEDS, WORKLOADS, config_text
from worker import Harness, expectations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    root = Path.cwd()
    h = Harness(root)
    refs = {}
    worst_budget = 0.0
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        work = Path(tmp)
        for seed in range(N_REFERENCE_SEEDS):
            cfg_path = work / "workload.cfg"
            cfg_path.write_text(config_text(w, seed), encoding="utf-8")
            e = expectations(h, cfg_path)
            out_root = work / f"out-{seed}"
            r = h.run_cli(w, cfg_path, out_root, traced=False)
            problems = checks.check_run(
                w, out_root, exit_code=r["code"], n_steps=e["n_steps"], dt=e["dt"],
                eps=e["params"].eps, every=e["cfg"].checkpoint_every, params=e["params"])
            if problems:
                raise SystemExit(f"seed {seed}: {problems}")
            run_dir = next(p for p in out_root.iterdir() if p.is_dir())
            refs[str(seed)] = checks.reference_of(run_dir, w)
            if w.budget:
                for i in range(w.paths):
                    header, data = checks.read_csv(run_dir / "paths" / f"path_{i:03d}.csv")
                    cols = {n: data[:, j] for j, n in enumerate(header)}
                    worst_budget = max(worst_budget, checks.budget_ratio(cols, e["params"]))
            shutil.rmtree(out_root)
            print(f"{w.name} seed {seed}: wall {r['wall']:.2f} s")
    out = Path(__file__).parent / "refs" / f"{w.name}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(refs, indent=0) + "\n", encoding="utf-8")
    if w.budget:
        print(f"{w.name}: worst budget residual / dissipated = {worst_budget:.3e}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
