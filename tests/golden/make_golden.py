"""Golden CLI outputs: fixed small configs run through ``selflow.cli.main``.

Each case writes its artifacts into a directory; the committed copies live
under ``tests/golden/data/<case>/``.  Two outputs agree when they hold the
same set of files and every column agrees to within ``REL_TOL`` of that
column's largest magnitude (integers and text must match exactly):

- a ``.csv`` column is a header name;
- a ``.fld`` column is a snapshot component;
- in any other text file (manifest, config, ``diagnose`` stdout) each line's
  text must match with its numbers blanked, and the n-th number of the
  lines sharing a tag (the text before the first ':' or '=') is a column.

Usage (from the repo root)::

    PYTHONPATH=src python tests/golden/make_golden.py           # diff summary
    PYTHONPATH=src python tests/golden/make_golden.py --write   # rewrite data/
    PYTHONPATH=src python tests/golden/make_golden.py --case sweep --write

``--case NAME`` (repeatable) runs, diffs and, with ``--write``, replaces
only the named cases; every other directory under ``data/`` is left as it
is.  Without it, ``--write`` re-records the whole of ``data/``.  Either
way ``--write`` leaves a case's directory untouched, and prints
``unchanged``, when every column agrees within ``REL_TOL`` and every
file's ``#`` comment lines are the same, so last-digit noise between
hosts is never committed.

A change that rewrites the goldens says so, with the diff summary and the
reason.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from selflow.cli import main
from selflow.fields import read_snapshot

GOLDEN_DIR = Path(__file__).resolve().parent / "data"
REL_TOL = 1e-12

_BASE = """\
sim.eps = 0.3
noise.seed = 5
noise.modes = 4
noise.sigma0 = 0.3
init.u = taylor-green:1,0.2
init.d = unit-smooth:0.4
field.h = wave:0.2,0.2,0.5
"""

_TRACKED = "track.budget = true\ntrack.weak = true\ntrack.invariants = true\n"

# case -> (subcommand, config text)
CASES = {
    "simulate_periodic": ("simulate", _BASE + _TRACKED + """\
sim.grid = 32x32
sim.T = 0.004
out.checkpoint_every = 5
"""),
    "simulate_bounded": ("simulate", _BASE + _TRACKED + """\
sim.grid = 24x24
sim.bc = bounded
sim.T = 0.006
out.checkpoint_every = 5
"""),
    "ensemble": ("ensemble", _BASE + """\
sim.grid = 32x32
sim.T = 0.004
ensemble.paths = 4
out.checkpoint_every = 5
"""),
    "sweep": ("sweep", _BASE.replace("unit-smooth:0.4", "vortex:0.5,0.5,0.06") + """\
sim.grid = 32x32
sim.T = 0.002
ensemble.paths = 2
sweep.eps = 0.3,0.2,0.1
track.budget = false
out.checkpoint_every = 5
"""),
    # non-square, non-power-of-two cells: hx*hy is not a power of two, so
    # a change in how the ledgers apply the quadrature weight shows here
    "simulate_periodic_odd": ("simulate", _BASE + """\
sim.grid = 24x20
sim.lx = 1.3
sim.ly = 0.9
sim.T = 0.004
track.budget = true
out.checkpoint_every = 5
"""),
    # bounded-dirichlet on a non-square domain, nx - 2 odd and ny - 2 even:
    # one-sided director stencils, the pinned director wall and the x/y
    # asymmetry of the bounded stencils and projection
    "simulate_bounded_dirichlet": ("simulate", _BASE + _TRACKED + """\
sim.grid = 25x20
sim.lx = 1.3
sim.ly = 0.9
sim.bc = bounded-dirichlet
sim.T = 0.008
out.checkpoint_every = 5
"""),
    # rough data on a small grid with 8 modes: psi_7 u reaches the y-Nyquist
    # column, so the Parseval weight there shows in the HS ledger
    "simulate_periodic_nyquist": ("simulate", _BASE.replace("modes = 4", "modes = 8")
                                  .replace("unit-smooth", "unit-mixed") + """\
sim.grid = 16x16
sim.T = 0.004
track.budget = true
out.checkpoint_every = 5
"""),
}
DIAGNOSE_ARGS = ["--pohozaev", "--defects", "--pairings"]
ALL_CASES = tuple(CASES) + ("diagnose",)

_NUM = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def run_case(case: str, out: Path) -> Path:
    """Run ``case`` under ``out`` and return the directory of its artifacts.
    ``diagnose`` reads the d_final snapshot of ``simulate_periodic``, which
    it runs first when ``out`` does not hold it yet."""
    if case == "diagnose":
        snap = out / "simulate_periodic" / "d_final.fld"
        if not snap.exists():
            run_case("simulate_periodic", out)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["diagnose", str(snap)] + DIAGNOSE_ARGS)
        if code != 0:
            raise RuntimeError(f"diagnose exited {code}")
        run_dir = out / "diagnose"
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "stdout.txt").write_text(buf.getvalue(), encoding="utf-8")
        return run_dir
    command, text = CASES[case]
    final = out / case
    shutil.rmtree(final, ignore_errors=True)
    work = out / f"{case}.work"
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    saved = os.environ.get("SELFLOW_OUT")
    os.environ["SELFLOW_OUT"] = str(work / "runs")
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, str(cfg)])
    finally:
        if saved is None:
            del os.environ["SELFLOW_OUT"]
        else:
            os.environ["SELFLOW_OUT"] = saved
    if code != 0:
        raise RuntimeError(f"{case}: {command} exited {code}")
    (run_dir,) = (work / "runs").iterdir()
    shutil.move(str(run_dir), final)
    shutil.rmtree(work)
    return final


def file_set(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def columns(path: Path) -> dict[str, list]:
    """The cells of one artifact, by column (see the module docstring)."""
    if path.suffix == ".fld":
        vals = read_snapshot(path).values
        vals = vals.reshape(-1, vals.shape[-2] * vals.shape[-1])
        return {f"component {i}": list(v) for i, v in enumerate(vals)}
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    if path.suffix == ".csv":
        header, *rows = lines
        cells = [row.split(",") for row in rows]
        return {name: [row[j] for row in cells] for j, name in enumerate(header.split(","))}
    cols: dict[str, list] = {}
    for n, line in enumerate(lines):
        cols[f"line {n + 1} text"] = [_NUM.sub("#", line)]
        tag = re.split(r"[:=]", line, maxsplit=1)[0].strip()
        for i, num in enumerate(_NUM.findall(line)):
            cols.setdefault(f"{tag} #{i}", []).append(num)
    return cols


def comment_lines(path: Path) -> list[str]:
    """The ``#`` lines of a text artifact, which ``columns`` skips."""
    if path.suffix == ".fld":
        return []
    return [ln for ln in path.read_text(encoding="utf-8").splitlines()
            if ln.startswith("#")]


def same_comments(golden: Path, got: Path) -> bool:
    return all(comment_lines(golden / name) == comment_lines(got / name)
               for name in file_set(golden) & file_set(got))


def _is_int(cell) -> bool:
    return isinstance(cell, str) and cell.lstrip("+-").isdigit()


def column_deviation(want: list, got: list) -> float:
    """Largest |got - want| over the column, relative to the column's
    max-abs; inf when the cells differ in count, text or integers."""
    if len(want) != len(got):
        return np.inf
    if any(map(_is_int, want)) or any(map(_is_int, got)):
        return 0.0 if list(want) == list(got) else np.inf
    try:
        a = np.array(want, dtype=float)
        b = np.array(got, dtype=float)
    except ValueError:
        return 0.0 if list(want) == list(got) else np.inf
    if not np.array_equal(np.isfinite(a), np.isfinite(b)):
        return np.inf
    fin = np.isfinite(a)
    if not np.array_equal(a[~fin], b[~fin]):
        return np.inf
    diff = float(np.max(np.abs(a[fin] - b[fin]), initial=0.0))
    scale = float(np.max(np.abs(a[fin]), initial=0.0))
    if diff == 0.0:
        return 0.0
    return diff / scale if scale > 0.0 else np.inf


def compare(golden: Path, got: Path) -> list[tuple[str, str, float]]:
    """(file, column, relative deviation) for every column of ``golden``,
    worst first; a missing or extra file or column counts as inf."""
    report = []
    want_files, got_files = file_set(golden), file_set(got)
    for name in sorted(want_files ^ got_files):
        report.append((name, "missing" if name in want_files else "extra", np.inf))
    for name in sorted(want_files & got_files):
        want, have = columns(golden / name), columns(got / name)
        for col in sorted(set(want) | set(have)):
            if col not in want or col not in have:
                report.append((name, col, np.inf))
            else:
                report.append((name, col, column_deviation(want[col], have[col])))
    return sorted(report, key=lambda r: -r[2])


def main_cli(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the committed goldens instead of diffing")
    parser.add_argument("--case", action="append", choices=ALL_CASES, metavar="NAME",
                        help="run, diff and write only this case (repeatable)")
    args = parser.parse_args(argv)
    cases = tuple(dict.fromkeys(args.case)) if args.case else ALL_CASES
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for case in cases:
            run_case(case, out)
        worst_all = 0.0
        kept = set()
        for case in cases:
            if not (GOLDEN_DIR / case).exists():
                print(f"{case}: no committed golden")
                continue
            report = compare(GOLDEN_DIR / case, out / case)
            worst = report[0] if report else ("-", "-", 0.0)
            worst_all = max(worst_all, worst[2])
            print(f"{case}: {len(report)} columns, worst {worst[2]:.3e} "
                  f"({worst[0]}: {worst[1]})")
            for name, col, dev in report:
                if dev > REL_TOL:
                    print(f"  over tolerance: {name}: {col}: {dev:.3e}")
            if worst[2] <= REL_TOL and same_comments(GOLDEN_DIR / case, out / case):
                kept.add(case)
        if args.write:
            if not args.case and GOLDEN_DIR.exists():
                for stale in set(GOLDEN_DIR.iterdir()) - {GOLDEN_DIR / c for c in cases}:
                    if stale.is_dir():
                        shutil.rmtree(stale)
                    else:
                        stale.unlink()
            for case in cases:
                if case in kept:
                    print(f"{case}: unchanged")
                    continue
                shutil.rmtree(GOLDEN_DIR / case, ignore_errors=True)
                shutil.copytree(out / case, GOLDEN_DIR / case)
                print(f"wrote {GOLDEN_DIR / case}")
    return 0 if args.write or worst_all <= REL_TOL else 1

if __name__ == "__main__":
    sys.exit(main_cli())
