"""Tests of the benchmark itself: tracer arithmetic and restoration, output
checks, and the metric names of BENCHMARK.json.

Run from the checkout root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import checks
import metrics
from hostspeed import MIN_SAMPLES, REF_SAMPLE_S, HostSpeed
from tracer import Tracer, installed_wrappers, self_times
from worker import Harness, expectations
from workloads import N_REFERENCE_SEEDS, WORKLOADS, Workload, config_text, expected_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# --- self-time arithmetic -------------------------------------------------

def test_self_times_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.inner", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def _fake_package():
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(inner(x))\n"
        "def boom():\n"
        "    raise KeyError('x')\n"
        "class Box:\n"
        "    def get(self):\n"
        "        return inner(0)\n",
        lib.__dict__,
    )
    for obj in (lib.inner, lib.outer, lib.boom, lib.Box, lib.Box.get):
        obj.__module__ = lib.__name__
    user.inner = lib.inner  # as `from .lib import inner` would bind it
    return lib, user


class Ticks:
    """A clock that advances by one on every reading."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_self_times_aliases_and_restore():
    lib, user = _fake_package()
    originals = {"inner": lib.inner, "outer": lib.outer, "get": lib.Box.get}
    tr = Tracer({"lib": lib}, [lib, user], clock=Ticks())
    with tr:
        assert lib.outer(1) == 3
        assert user.inner(1) == 2          # called through the alias
        assert lib.Box().get() == 1
        with pytest.raises(KeyError):
            lib.boom()
    spans = tr.spans
    names = [s[0] for s in spans]
    assert names == ["lib.outer", "lib.inner", "lib.inner", "lib.inner",
                     "lib.get", "lib.inner", "lib.boom"]
    assert [s[3] for s in spans] == [-1, 0, 0, -1, -1, 4, -1]
    # outer reads 0..5 with two 1-tick children: self = 5 - 2
    assert self_times(spans)[:3] == [3.0, 1.0, 1.0]
    assert lib.inner is originals["inner"] and user.inner is originals["inner"]
    assert lib.outer is originals["outer"] and lib.Box.get is originals["get"]
    assert installed_wrappers([lib, user]) == []


# --- host-speed normalisation ----------------------------------------------

def test_host_speed_samples_while_running_and_stops():
    speed = HostSpeed(period_s=0.001)
    with speed:
        mark = speed.mark()
        deadline = time.monotonic() + 5.0
        while len(speed.samples) < mark + 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert speed.to_ref(mark) > 0.0
    assert not speed._thread.is_alive()
    n = len(speed.samples)
    time.sleep(0.01)
    assert len(speed.samples) == n


def test_to_ref_is_reference_over_mean_sample():
    speed = HostSpeed()
    speed.samples[:] = [REF_SAMPLE_S] * 10 + [2 * REF_SAMPLE_S, 4 * REF_SAMPLE_S]
    assert speed.to_ref(10) == pytest.approx(REF_SAMPLE_S / (sum(speed.samples[12 - MIN_SAMPLES:]) / MIN_SAMPLES))
    assert speed.to_ref(0) == pytest.approx(12 / 16)
    with pytest.raises(RuntimeError):
        HostSpeed().to_ref(0)


# --- restoration on the real package --------------------------------------

@pytest.fixture(scope="module")
def harness():
    return Harness(ROOT)


def test_full_tracer_rebinds_every_alias_and_restores(harness):
    m = harness.mods
    tr = harness.tracer(full=True)
    before = {(id(owner), attr): (owner, attr, getattr(owner, attr))
              for _, owner, attr, _ in tr.targets()}
    tr.install()
    try:
        for mod, attr in [(m["dynamics"], "leray_project"), (m["noise"], "leray_project"),
                          (m["diagnostics"], "simulate_path"), (m["ensemble"], "simulate_path"),
                          (m["cli"], "run_ensemble"), (m["cli"], "coupled_sweep"),
                          (m["projection"], "leray_project")]:
            assert hasattr(getattr(mod, attr), "__perfbench_wrapped__"), f"{mod.__name__}.{attr}"
        rebound = list(tr._saved)
        assert not hasattr(m["cli"].main, "__perfbench_wrapped__")
    finally:
        tr.uninstall()
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, attr
    for owner, attr, original in before.values():
        assert getattr(owner, attr) is original, attr
    assert installed_wrappers(harness.aliases) == []


def test_runner_timer_wraps_only_the_runners(harness):
    tr = harness.tracer(full=False)
    with tr:
        wrapped = set(installed_wrappers(harness.aliases))
    assert wrapped == {"selflow.run_ensemble", "selflow.coupled_sweep",
                       "selflow.ensemble.run_ensemble", "selflow.ensemble.coupled_sweep",
                       "selflow.cli.run_ensemble", "selflow.cli.coupled_sweep"}
    assert installed_wrappers(harness.aliases) == []


def test_untraced_run_refuses_a_left_over_wrapper(harness, tmp_path):
    tr = harness.tracer(full=True)
    with tr, pytest.raises(RuntimeError, match="left installed"):
        harness.run_cli(WORKLOADS["ensemble-lean"], tmp_path / "x.cfg", tmp_path / "out", False)


# --- output checks ---------------------------------------------------------

TINY = Workload("tiny", "ensemble", "16x16", "periodic", 0.003, 2, True)


@pytest.fixture()
def tiny_run(harness, tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(config_text(TINY, 3), encoding="utf-8")
    e = expectations(harness, cfg_path)
    out_root = tmp_path / "out"
    r = harness.run_cli(TINY, cfg_path, out_root, traced=True)
    kw = dict(exit_code=r["code"], n_steps=e["n_steps"], dt=e["dt"], eps=e["params"].eps,
              every=e["cfg"].checkpoint_every, params=e["params"])
    run_dir = next(p for p in out_root.iterdir() if p.is_dir())
    return out_root, run_dir, kw, r


def test_clean_run_passes_and_matches_its_own_reference(tiny_run):
    out_root, run_dir, kw, r = tiny_run
    ref = checks.reference_of(run_dir, TINY)
    assert checks.check_run(TINY, out_root, reference=ref, **kw) == []
    m = metrics.per_layer(r["spans"], r["wall"])
    assert m["dynamics.step_coupled.calls"] == kw["n_steps"]
    assert m["noise.hs_fields_per_path_step"] == 8.0
    assert 0.0 <= m["trace.unattributed_share"] < 0.2


def _edit_cell(path: Path, row: int, col: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("damage", ["nan", "truncate", "delete", "garbage", "reference",
                                    "exit-code", "budget"])
def test_damaged_output_is_a_failed_op(tiny_run, damage):
    out_root, run_dir, kw, _ = tiny_run
    ref = checks.reference_of(run_dir, TINY)
    path = run_dir / "paths" / "path_001.csv"
    if damage == "nan":
        _edit_cell(path, 2, 2, lambda v: "nan")
    elif damage == "truncate":
        path.write_text(path.read_text(encoding="utf-8")[:-40], encoding="utf-8")
    elif damage == "delete":
        path.unlink()
    elif damage == "garbage":
        _edit_cell(path, 1, 2, lambda v: "x")
    elif damage == "reference":
        ref["ensemble.csv"]["rows"][0][3] *= 1.0 + 1e-6
    elif damage == "exit-code":
        kw = {**kw, "exit_code": 2}
    elif damage == "budget":
        header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
        _edit_cell(path, 2, header.index("int_diss_u"), lambda v: repr(3.0 * float(v) + 1.0))
    assert checks.check_run(TINY, out_root, reference=ref, **kw) != []


def test_references_cover_every_workload_seed():
    for w in WORKLOADS.values():
        refs = checks.load_references(HERE / "refs" / f"{w.name}.json")
        assert set(refs) == {str(s) for s in range(N_REFERENCE_SEEDS)}, w.name
        files = checks.REF_FILES[w.command]
        assert all(set(r) == set(files) for r in refs.values())
        assert set(files) <= set(expected_files(w))


# --- metric names -----------------------------------------------------------

def test_metric_names_units_and_caps():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e, layer = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names), [n for n in names if not NAME_RE.match(n)]
    assert all(UNIT_RE.match(m["unit"]) for m in e2e + layer)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in e2e] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in layer] == [(n, u) for n, u in metrics.PER_LAYER]
    assert all(m["better"] in ("higher", "lower") for m in e2e + layer)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_per_layer_produces_every_listed_metric():
    spans = [("cli.cmd_ensemble", 0.0, 4.0, -1, 0), ("ensemble.run_ensemble", 0.5, 3.0, 0, 0),
             ("noise.hs_norm_sq", 1.0, 2.0, 1, 4), ("projection.leray_project", 1.2, 1.4, 2, 4)]
    m = metrics.per_layer(spans, 5.0)
    filled_by_caller = {"cli.files_written", "cli.bytes_written", "trace.overhead_frac"}
    assert set(m) | filled_by_caller == {n for n, _ in metrics.PER_LAYER}
    assert m["cli.write_s"] == 1.0
    assert m["noise.hs_fields_per_path_step"] == 1.0
    assert m["trace.unattributed_share"] == pytest.approx(0.2)


# --- the command refuses a directory without the program ---------------------

def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ensemble-lean",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
