"""The four benchmark workloads: the selflow config each one runs, and the
artifacts its CLI run must leave behind.

Every workload uses a smooth unit director, the `wave` magnetic field (so
ledger2 is a real martingale), the default noise and `sim.dt = auto`.  Run
lengths are short so that one repetition takes a few seconds on a 2-core
machine; the per-step work is what is being measured.

This module imports nothing from selflow or numpy, so the light parent
process can use it.
"""

from __future__ import annotations

from dataclasses import dataclass

# The workload seed is mapped onto this many noise seeds; refs/<workload>.json
# holds the final-checkpoint reference values of every one of them.
N_REFERENCE_SEEDS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # selflow subcommand: "ensemble" or "sweep"
    grid: str
    bc: str
    T: float
    paths: int
    budget: bool
    sweep_eps: str = "0.2,0.1,0.05"

    def lanes(self) -> int:
        """Paths advanced per step: (path, eps) pairs for the sweep."""
        if self.command == "sweep":
            return self.paths * len(self.sweep_eps.split(","))
        return self.paths


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ensemble-budget", "ensemble", "64x64", "periodic", 0.0015, 16, True),
        Workload("ensemble-lean", "ensemble", "64x64", "periodic", 0.003, 16, False),
        Workload("sweep-eps", "sweep", "64x64", "periodic", 0.003, 2, False),
        Workload("bounded-ensemble", "ensemble", "32x32", "bounded", 0.01, 8, True),
    )
}


def noise_seed(seed: int) -> int:
    """The selflow `noise.seed` a benchmark `--seed` selects."""
    return seed % N_REFERENCE_SEEDS


def config_text(w: Workload, seed: int, T: float | None = None) -> str:
    """The flat selflow config of workload ``w`` for benchmark seed ``seed``;
    ``T`` overrides the run length (used for the short warm-up run)."""
    lines = [
        f"sim.grid = {w.grid}",
        f"sim.bc = {w.bc}",
        f"sim.T = {w.T if T is None else T!r}",
        "sim.dt = auto",
        "init.d = unit-smooth:0.4",
        "field.h = wave:0.2,0.2,0.5",
        f"noise.seed = {noise_seed(seed)}",
        f"run.mode = {w.command}",
        f"ensemble.paths = {w.paths}",
        f"track.budget = {'true' if w.budget else 'false'}",
        f"sweep.eps = {w.sweep_eps}",
    ]
    return "\n".join(lines) + "\n"


def expected_files(w: Workload) -> list[str]:
    """Artifacts (relative to the run directory) a successful run writes."""
    common = ["manifest.txt", "config.cfg"]
    if w.command == "sweep":
        return common + ["sweep.csv", "cauchy.csv"]
    return common + ["ensemble.csv"] + [f"paths/path_{i:03d}.csv" for i in range(w.paths)]
