"""Metric names and units, and the per-layer metrics of one traced run.

A layer is a selflow module.  ``per_layer`` turns the spans of one traced
CLI run into the per-layer metrics listed in PER_LAYER; BENCHMARK.json
repeats these lists and the benchmark's tests check that they agree.
"""

from __future__ import annotations

from tracer import has_ancestor, self_times

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may get worse before a change counts as a regression.
# The three times are in reference seconds (see hostspeed.py).
END_TO_END = [
    ("path_steps_per_s", "1/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

LAYERS = ("projection", "noise", "operators", "dynamics", "pathrun", "diagnostics",
          "ensemble", "cli", "config")

# Functions reported on their own: (span name, report call count too).
NAMED = [
    ("projection.leray_project", True),
    ("noise.hs_norm_sq", True),
    ("noise.mix_increments", False),
    ("noise.normal_table", False),
    ("noise.sample_normals", False),
    ("operators.deriv", False),
    ("operators.laplacian", False),
    ("operators.gradient", False),
    ("operators.advect_skew", False),
    ("operators.dirichlet_form_vec", False),
    ("operators.pair_vec", False),
    ("operators.cross", False),
    ("dynamics.step_coupled", True),
    ("dynamics.gl_force", False),
    ("pathrun.record_columns", True),
    ("pathrun.simulate_batch", False),
    ("pathrun.simulate_path", False),
    ("diagnostics.defect_detect", True),
    ("diagnostics.stress_pairing", False),
    ("diagnostics.default_defect_threshold", False),
    ("diagnostics.epsilon_sweep", False),
    ("ensemble.run_ensemble", False),
    ("ensemble.run_path", False),
    ("ensemble.reduce_stats", False),
    ("ensemble.coupled_sweep", False),
]

RUNNERS = frozenset({"ensemble.run_ensemble", "ensemble.coupled_sweep"})
CLI_COMMANDS = frozenset({"cli.cmd_ensemble", "cli.cmd_sweep"})

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.share", "frac") for layer in LAYERS]
    + [(f"{name}.self_s", "s") for name, _ in NAMED]
    + [(f"{name}.calls", "count") for name, calls in NAMED if calls]
    + [
        ("operators.calls", "count"),
        ("projection.fields_projected", "count"),
        ("noise.hs_fields_per_path_step", "fields"),
        ("cli.write_s", "s"),
        ("cli.bytes_written", "bytes"),
        ("cli.files_written", "count"),
        ("trace.wall_s", "s"),
        ("trace.spans", "count"),
        ("trace.unattributed_share", "frac"),
        ("trace.overhead_frac", "frac"),
    ]
)


def lanes_of(array_arg) -> int:
    """Number of vector fields in a (..., 2, nx, ny) array."""
    n = 1
    for s in getattr(array_arg, "shape", ())[:-3]:
        n *= s
    return n


# Work counted per span: fields projected per leray_project call, and paths
# evaluated per hs_norm_sq call.
WORK = {
    "projection.leray_project": lambda args, kwargs: lanes_of(args[0] if args else kwargs["v"]),
    "noise.hs_norm_sq": lambda args, kwargs: lanes_of(args[1] if len(args) > 1 else kwargs["u"]),
}


def per_layer(spans, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced CLI run that took ``wall`` seconds.

    ``cli.*`` output counters and ``trace.overhead_frac`` need data outside
    the spans and are filled in by the caller.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    for (name, *_), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + s

    m: dict[str, float] = {}
    for layer in LAYERS:
        s = sum(v for k, v in self_by_name.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = s
        m[f"{layer}.share"] = s / wall
    for name, with_calls in NAMED:
        m[f"{name}.self_s"] = self_by_name.get(name, 0.0)
        if with_calls:
            m[f"{name}.calls"] = calls.get(name, 0)
    m["operators.calls"] = sum(v for k, v in calls.items() if k.startswith("operators."))

    projected = hs_projected = hs_lanes = 0
    for i, (name, _, _, _, work) in enumerate(spans):
        if name == "projection.leray_project":
            projected += work
            if has_ancestor(spans, i, "noise.hs_norm_sq"):
                hs_projected += work
        elif name == "noise.hs_norm_sq":
            hs_lanes += work
    m["projection.fields_projected"] = projected
    m["noise.hs_fields_per_path_step"] = hs_projected / hs_lanes if hs_lanes else 0.0

    # time from the end of the runner to the end of the CLI command: writing
    # artifacts plus the little post-processing in between
    write_s = 0.0
    for i, (name, t0, t1, _, _) in enumerate(spans):
        if name in CLI_COMMANDS:
            ends = [s[2] for s in spans if s[3] == i and s[0] in RUNNERS]
            write_s += t1 - (max(ends) if ends else t0)
    m["cli.write_s"] = write_s
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(spans)
    m["trace.unattributed_share"] = 1.0 - sum(selfs) / wall
    return m
