"""Byte identity of the CLI outputs of two source trees.

Runs the golden cases of ``make_golden.py`` and the four perfbench
workload configs (noise seeds 3 and 11) under ``--threads 1`` and ``2``,
once with the parent tree's ``src`` on ``PYTHONPATH`` and once with this
tree's, each in its own subprocess and fresh directory.  Both sides use
this tree's case definitions.  Then it prints ``diff -r`` of the two
output trees and, for every CSV that differs, the largest difference in
each column.  Each CLI run's stdout is compared too.  Only two things are
masked: run-directory names (a run's artifacts land under its case's
name, and its stdout's ``wrote`` line names no directory) and the
elapsed-time (``done in``) lines.

Usage (from the repo root; the parent is any checkout, e.g. from
``git archive``)::

    python tests/golden/identity.py --parent ../parent
    python tests/golden/identity.py --parent ../parent --case sweep --case ensemble-lean@3

Exit status: 0 when every output is byte-identical, 1 when some differ, 2
when a run failed.  The orchestrating process imports the standard library
alone; the runs import numpy and the tree's ``selflow``.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEEDS = (3, 11)
THREADS = (1, 2)


def run_cases(cases: list[str], out: Path, threads: int) -> None:
    """Run ``cases`` (all of them when empty) into ``out`` with the
    ``selflow`` on ``sys.path``: the worker side of :func:`main`.  A CLI
    run's stdout is kept beside its artifacts, masked."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import make_golden
    import selflow.cli
    import workloads

    for name, w in workloads.WORKLOADS.items():
        for seed in SEEDS:
            make_golden.CASES[f"{name}@{seed}"] = (w.command, workloads.config_text(w, seed))
    printed = []

    def main(argv: list[str]) -> int:
        code = selflow.cli.main(["--threads", str(threads)] + argv)
        printed.append(sys.stdout.getvalue())  # run_case redirects it
        return code

    make_golden.main = main
    for case in cases or list(make_golden.CASES) + list(make_golden.DIAGNOSE_CASES):
        run_dir = make_golden.run_case(case, out)
        if case in make_golden.CASES:
            text = re.sub(r"wrote \S+", "wrote <run>", printed[-1])
            text = re.sub(r"done in \S+ s", "done in <elapsed> s", text)
            (run_dir / "stdout.txt").write_text(text, encoding="utf-8")


def _cells(path: Path) -> dict[str, list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    header, *rows = rows
    return {name: [row[j] if j < len(row) else "" for row in rows]
            for j, name in enumerate(header)}


def _column_change(want: list[str], got: list[str]) -> str | None:
    """The largest difference between two columns, as text; None when the
    cells are the same."""
    if want == got:
        return None
    if len(want) != len(got):
        return f"{len(want)} rows -> {len(got)}"
    try:
        pairs = [(float(a), float(b)) for a, b in zip(want, got)]
    except ValueError:
        return "text differs"
    worst = max(abs(a - b) if a != b else 0.0 for a, b in pairs)
    scale = max(abs(a) for a, _ in pairs)
    rel = f" ({worst / scale:.3e} relative)" if scale > 0 else ""
    return f"max |diff| {worst:.3e}{rel}"


def csv_report(old: Path, new: Path) -> list[str]:
    """For each CSV present in both trees whose bytes differ, one line per
    differing column."""
    lines = []
    for path in sorted(old.rglob("*.csv")):
        rel = path.relative_to(old)
        other = new / rel
        if not other.exists() or path.read_bytes() == other.read_bytes():
            continue
        want, got = _cells(path), _cells(other)
        for col in sorted(set(want) | set(got)):
            if col not in want or col not in got:
                lines.append(f"{rel}: {col}: {'added' if col in got else 'removed'}")
            elif (change := _column_change(want[col], got[col])) is not None:
                lines.append(f"{rel}: {col}: {change}")
    return lines


def _spawn(tree: Path, out: Path, threads: int, cases: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("SELFLOW_OUT", None)
    args = [sys.executable, str(Path(__file__).resolve()), "--worker", str(out),
            "--threads", str(threads), "--tree", str(tree)]
    for case in cases:
        args += ["--case", case]
    return subprocess.run(args, env=env, cwd=out.parent).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="root of the tree to compare against")
    parser.add_argument("--case", action="append", metavar="NAME",
                        help="a golden case or WORKLOAD@SEED (repeatable; default: all)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        import selflow

        if args.tree.resolve() not in Path(selflow.__file__).resolve().parents:
            print(f"selflow imported from {selflow.__file__}, not {args.tree}", file=sys.stderr)
            return 2
        run_cases(args.case or [], args.worker, args.threads)
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    with tempfile.TemporaryDirectory(prefix="selflow-identity-") as tmp:
        top = Path(tmp)
        sides = {"parent": args.parent.resolve(), "change": ROOT}
        for side, tree in sides.items():
            for threads in THREADS:
                out = top / side / f"threads{threads}"
                out.mkdir(parents=True)
                if _spawn(tree, out, threads, args.case or []) != 0:
                    print(f"{side} ({tree}) failed under --threads {threads}", file=sys.stderr)
                    return 2
        old, new = top / "parent", top / "change"
        diff = subprocess.run(["diff", "-r", str(old), str(new)], capture_output=True, text=True)
        n_files = sum(1 for p in new.rglob("*") if p.is_file())
        print(diff.stdout.replace(str(top), "<out>"), end="")
        for line in csv_report(old, new):
            print(f"  {line}")
        n_cases = sum(p.is_dir() for p in (new / f"threads{THREADS[0]}").iterdir())
        print(f"{n_cases} cases x threads {THREADS}: {n_files} files, "
              + ("identical" if diff.returncode == 0 else "DIFFERENCES"))
        return 0 if diff.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
