"""Output checks applied to every repetition of a workload.

A repetition passes when the CLI exited 0 and its run directory holds every
expected artifact, every CSV value is finite, the checkpoint count and final
time match the step count, the director modulus obeys the max-principle
bound, the energy budget closes on budget workloads, and the final-checkpoint
values match the references recorded at the commit that added the benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import Workload, expected_files

# |residual| of the pathwise energy budget over [0, T], recomputed from each
# per-path CSV, as a share of the energy dissipated over [0, T].  Over all
# reference seeds the worst path reads 0.42% on ensemble-budget and 1.18% on
# bounded-ensemble (make_refs.py prints these).
BUDGET_FRAC = 0.03
# Relative tolerance against the recorded final-checkpoint references; the
# scale of a column is the largest reference magnitude of its quantity.
REF_RTOL = 1e-9
# Files whose final-checkpoint rows are compared against references.
REF_FILES = {"ensemble": ("ensemble.csv",), "sweep": ("sweep.csv", "cauchy.csv")}
STAT_SUFFIXES = ("_mean", "_se", "_min", "_max")


def n_checkpoints(n_steps: int, every: int) -> int:
    """Rows a path runner emits: t = 0, every ``every`` steps, and the end."""
    return 1 + n_steps // every + (1 if n_steps % every else 0)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns under a {len(header)}-name header")
    return header, data


def final_rows(header: list[str], data: np.ndarray) -> np.ndarray:
    """The rows of a table that belong to the final checkpoint."""
    if "t" in header:
        t = data[:, header.index("t")]
        return data[t == t.max()]
    return data


def reference_of(run_dir: Path, w: Workload) -> dict:
    """Final-checkpoint rows of the reference files of one run directory."""
    out = {}
    for rel in REF_FILES[w.command]:
        header, data = read_csv(run_dir / rel)
        out[rel] = {"header": header, "rows": final_rows(header, data).tolist()}
    return out


def _group(col: str) -> str:
    for suffix in STAT_SUFFIXES:
        if col.endswith(suffix):
            return col[: -len(suffix)]
    return col


def compare_reference(got: dict, ref: dict, rtol: float = REF_RTOL) -> list[str]:
    problems = []
    for rel, r in ref.items():
        g = got.get(rel)
        if g is None or g["header"] != r["header"]:
            problems.append(f"{rel}: header differs from the reference")
            continue
        a, b = np.asarray(g["rows"], float), np.asarray(r["rows"], float)
        if a.shape != b.shape:
            problems.append(f"{rel}: final rows {a.shape} != reference {b.shape}")
            continue
        groups = [_group(c) for c in r["header"]]
        scale = {k: 0.0 for k in groups}
        for j, k in enumerate(groups):
            scale[k] = max(scale[k], float(np.max(np.abs(b[:, j]))))
        for j, col in enumerate(r["header"]):
            err = float(np.max(np.abs(a[:, j] - b[:, j])))
            if err > rtol * scale[groups[j]]:
                problems.append(f"{rel}: {col} off the reference by {err:.3e} "
                                f"(allowed {rtol * scale[groups[j]]:.3e})")
    return problems


def check_run(w: Workload, out_root: Path, *, exit_code: int, n_steps: int, dt: float,
              eps: float, every: int, params=None, reference: dict | None = None) -> list[str]:
    """Problems found in one repetition's output root (empty list = pass).

    ``params`` (selflow Params) enables the energy-budget check on budget
    workloads; ``reference`` enables the final-checkpoint comparison.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    runs = [p for p in Path(out_root).iterdir() if p.is_dir()] if Path(out_root).is_dir() else []
    if len(runs) != 1:
        return [f"expected one run directory under {out_root}, found {len(runs)}"]
    run_dir = runs[0]
    missing = [rel for rel in expected_files(w) if not (run_dir / rel).is_file()]
    if missing:
        return [f"missing artifact {rel}" for rel in missing]

    problems: list[str] = []
    tables = {}
    for rel in expected_files(w):
        if not rel.endswith(".csv"):
            continue
        try:
            tables[rel] = read_csv(run_dir / rel)
        except (OSError, ValueError) as exc:
            problems.append(f"{rel}: unreadable ({exc})")
            continue
        if not np.all(np.isfinite(tables[rel][1])):
            problems.append(f"{rel}: non-finite values")
    if problems:
        return problems

    n_check = n_checkpoints(n_steps, every)
    t_end = n_steps * dt
    d_bound = 1.0 + 10.0 * dt / eps**2
    if w.command == "ensemble":
        for i in range(w.paths):
            rel = f"paths/path_{i:03d}.csv"
            header, data = tables[rel]
            cols = {name: data[:, j] for j, name in enumerate(header)}
            if data.shape[0] != n_check:
                problems.append(f"{rel}: {data.shape[0]} checkpoints, expected {n_check}")
                continue
            if abs(cols["t"][-1] - t_end) > 1e-9 * t_end:
                problems.append(f"{rel}: final t {cols['t'][-1]!r} != {n_steps} * dt")
            if cols["max_abs_d"].max() > d_bound:
                problems.append(f"{rel}: max |d| {cols['max_abs_d'].max()!r} > {d_bound!r}")
            if w.budget and params is not None:
                problems += _budget_problems(rel, cols, params)
    else:
        header, data = tables["sweep.csv"]
        if data.shape[0] != w.lanes() * n_check:
            problems.append(f"sweep.csv: {data.shape[0]} rows, expected {w.lanes() * n_check}")
        elif abs(data[:, header.index("t")].max() - t_end) > 1e-9 * t_end:
            problems.append("sweep.csv: final t != n_steps * dt")
    if reference is not None and not problems:
        problems += compare_reference(reference_of(run_dir, w), reference)
    return problems


def budget_ratio(cols: dict, params) -> float:
    """|energy budget residual over [0, T]| / energy dissipated over [0, T],
    from the columns of one per-path CSV."""
    from selflow.diagnostics import energy_budget_residual
    from selflow.pathrun import PathSeries

    residual = energy_budget_residual(PathSeries(dict(cols)), params)
    dissipated = (params.mu * cols["int_diss_u"][-1]
                  + params.lam * params.gamma * cols["int_diss_d"][-1])
    return abs(residual) / dissipated


def _budget_problems(rel: str, cols: dict, params) -> list[str]:
    ratio = budget_ratio(cols, params)
    if not ratio <= BUDGET_FRAC:
        return [f"{rel}: energy budget residual is {ratio:.3e} of the dissipated "
                f"energy, above {BUDGET_FRAC}"]
    return []


def load_references(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
