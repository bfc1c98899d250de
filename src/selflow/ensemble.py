"""Monte-Carlo orchestration: independent paths, merged statistics, and the
coupled relaxation-parameter sweep averaged over paths.

Per-path seeds derive from the base seed through a splitmix64 mix of the
path index.  Ensembles and sweeps run their paths through one grouped lane
runner; results are collected into arrays indexed by path, then reduced in
index order, so the statistics are bit-identical no matter in which order
(or on how many threads) the paths actually executed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    RunConfig,
    build_grid,
    build_initial_d,
    build_initial_u,
    build_magnetic_field,
    build_noise_operator,
    build_params,
    parse_eps_list,
)
from .diagnostics import (
    SweepResult,
    WeakFormTracker,
    default_defect_threshold,
    defect_detect,
    stress_pairing,
)
from .fields import TestFunction, director_test_function, solenoidal_test_function
from .noise import WienerDriver, split_seed
from .pathrun import PathResult, PathSeries, simulate_batch, simulate_path

STAT_FIELDS = ("kinetic", "dirichlet", "penalty", "total", "ledger1", "ledger2",
               "dev_norm", "max_abs_d")


@dataclass
class EnsembleSpec:
    """How many paths, how they are seeded, and what gets tracked."""

    n_paths: int
    base_seed: int = 0
    checkpoint_every: int = 50
    track_budget: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")

    def path_seed(self, index: int) -> int:
        return split_seed(self.base_seed, index)


@dataclass
class EnsembleStats:
    """Per-checkpoint sample statistics of the tracked scalars, plus path
    suprema (sup over checkpoints, an under-estimate of the continuous-time
    sup at coarse checkpointing)."""

    times: np.ndarray
    n_paths: int
    mean: dict[str, np.ndarray]
    var: dict[str, np.ndarray]
    se: dict[str, np.ndarray]
    min: dict[str, np.ndarray]
    max: dict[str, np.ndarray]
    sup_total_mean: float
    sup_total_se: float

    def ledger_ci(self, name: str, i: int = -1, z: float = 3.0) -> tuple[float, float]:
        """(sample mean, z * standard error) of a ledger at checkpoint i."""
        return float(self.mean[name][i]), float(z * self.se[name][i])


@dataclass
class EnsembleResult:
    stats: EnsembleStats
    series: list[PathSeries]
    seeds: list[int]


def _build(config: RunConfig):
    """(grid, u0, d0, params, S, h) of a config."""
    grid = build_grid(config)
    u0 = build_initial_u(config, grid)
    d0 = build_initial_d(config, grid)
    params = build_params(config, grid, umax=float(np.max(np.abs(u0))))
    return grid, u0, d0, params, build_noise_operator(config, grid), build_magnetic_field(config, grid)


def run_path(config: RunConfig, seed: int, *,
             weak_tracker: WeakFormTracker | None = None,
             normals_table: np.ndarray | None = None,
             checkpoint_hook=None) -> PathResult:
    """One path, fully determined by (config, seed)."""
    grid, u0, d0, params, S, h = _build(config)
    if weak_tracker is None and config.track_weak:
        weak_tracker = default_weak_tracker(grid, params)
    return simulate_path(
        grid, params, u0, d0, S, h, WienerDriver(seed, config.modes),
        checkpoint_every=config.checkpoint_every,
        track_budget=config.track_budget,
        track_invariants=config.track_invariants,
        weak_tracker=weak_tracker,
        normals_table=normals_table,
        checkpoint_hook=checkpoint_hook,
    )


def default_weak_tracker(grid, params) -> WeakFormTracker:
    u_tests = [solenoidal_test_function(grid, 1, 1, name="phi11"),
               solenoidal_test_function(grid, 2, 1, name="phi21")]
    d_tests = [director_test_function(grid, 1, 1, component=0, name="psi0"),
               director_test_function(grid, 1, 1, component=2, name="psi2")]
    return WeakFormTracker(grid, params, u_tests, d_tests)


def default_sweep_test_functions(grid) -> list[TestFunction]:
    return [
        solenoidal_test_function(grid, 1, 1, name="phi11"),
        solenoidal_test_function(grid, 2, 1, name="phi21"),
        solenoidal_test_function(grid, 1, 2, name="phi12"),
    ]


def _run_lanes(spec: EnsembleSpec, grid, params, u0, d0, S, h, *,
               order: list[int] | None = None, batch_size: int = 16,
               checkpoint_hook=None) -> list[PathSeries]:
    """Every path of ``spec`` as one lane of :func:`simulate_batch`.

    Paths are grouped into fixed index-contiguous batches that advance in
    lockstep (vectorized over a leading path axis), up to ``spec.threads``
    batches at a time; every lane is bit-identical to a lone path with its
    seed, whatever the batch size.  ``order`` permutes only the execution
    order of those work units (a reproducibility probe); results are stored
    by path index, so the output does not depend on it.
    """
    n = spec.n_paths
    series: list[PathSeries | None] = [None] * n
    starts = range(0, n, batch_size)

    def work(g: int) -> None:
        idx = range(starts[g], min(starts[g] + batch_size, n))
        drivers = [WienerDriver(spec.path_seed(i), S.n_modes) for i in idx]
        batch = simulate_batch(
            grid, params, u0, d0, S, h, drivers,
            checkpoint_every=spec.checkpoint_every,
            track_budget=spec.track_budget,
            checkpoint_hook=checkpoint_hook,
        )
        series[idx.start:idx.stop] = [res.series for res in batch]

    group_order = list(range(len(starts))) if order is None else list(order)
    if spec.threads > 1:
        with ThreadPoolExecutor(max_workers=spec.threads) as ex:
            list(ex.map(work, group_order))
    else:
        for g in group_order:
            work(g)
    return series


def run_ensemble(spec: EnsembleSpec, config: RunConfig,
                 order: list[int] | None = None, batch_size: int = 16) -> EnsembleResult:
    """Independent paths with derived seeds, merged into EnsembleStats; each
    path is bit-identical to :func:`run_path` with its seed (see
    :func:`_run_lanes` for the grouping and ``order``)."""
    grid, u0, d0, params, S, h = _build(config)
    series = _run_lanes(spec, grid, params, u0, d0, S, h, order=order, batch_size=batch_size)
    seeds = [spec.path_seed(i) for i in range(spec.n_paths)]
    return EnsembleResult(stats=reduce_stats(series, spec), series=series, seeds=seeds)


def reduce_stats(series: list[PathSeries], spec: EnsembleSpec) -> EnsembleStats:
    times = series[0].columns["t"]
    n = len(series)
    mean, var, se, mn, mx = {}, {}, {}, {}, {}
    for name in STAT_FIELDS:
        stack = np.stack([s.columns[name] for s in series])  # (M, n_check)
        mean[name] = stack.mean(axis=0)
        v = stack.var(axis=0, ddof=1) if n > 1 else np.zeros(stack.shape[1])
        var[name] = v
        se[name] = np.sqrt(v / n)
        mn[name] = stack.min(axis=0)
        mx[name] = stack.max(axis=0)
    sups = np.array([s.sup_total() for s in series])
    sup_se = float(sups.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return EnsembleStats(
        times=times,
        n_paths=n,
        mean=mean,
        var=var,
        se=se,
        min=mn,
        max=mx,
        sup_total_mean=float(sups.mean()),
        sup_total_se=sup_se,
    )


@dataclass
class CoupledSweepResult:
    """Cauchy differences of the stress pairings, averaged over paths."""

    eps_list: list[float]
    phi_names: list[str]
    per_path: list[SweepResult]
    cauchy_mean: np.ndarray  # (n_eps-1, n_phi)
    cauchy_se: np.ndarray


def coupled_sweep(spec: EnsembleSpec, config: RunConfig,
                  eps_list: list[float] | None = None) -> CoupledSweepResult:
    """Coupled relaxation-parameter sweep with the pairing Cauchy differences
    averaged across paths.

    Each eps runs every path of ``spec`` as a batched ensemble; a path reads
    the same Wiener stream (same seed and dt) at every eps, so its
    realizations are coupled.  Every checkpoint records the stress pairings,
    penalty mass, sphere deviation and defect count of each path.
    """
    if eps_list is None:
        eps_list = parse_eps_list(config.sweep_eps)
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    grid, u0, d0, params, S, h = _build(config)
    phis = default_sweep_test_functions(grid)
    names = [tf.name for tf in phis]
    defect_r = 8.0 * max(grid.hx, grid.hy)
    delta0_sq = default_defect_threshold(grid, eps_list[0], defect_r)

    runs = []  # runs[a][p]: series of path p at eps_list[a]
    for eps in eps_list:
        def hook(state, eps=eps):
            row = {f"pairing_{tf.name}": stress_pairing(state.d, grid, grid.bc_director, tf)
                   for tf in phis}
            row["defect_count"] = np.array(
                [float(defect_detect(d, grid, eps, defect_r, delta0_sq).count) for d in state.d])
            return row

        runs.append(_run_lanes(spec, grid, replace(params, eps=eps), u0, d0, S, h,
                               checkpoint_hook=hook))

    def across_eps(p: int, name: str) -> np.ndarray:  # (n_eps, n_check)
        return np.stack([run[p].columns[name] for run in runs])

    per_path = [
        SweepResult(
            eps_list=eps_list,
            times=runs[0][p].columns["t"],
            phi_names=names,
            penalty=across_eps(p, "penalty"),
            dev_norm=across_eps(p, "dev_norm"),
            defect_count=across_eps(p, "defect_count"),
            pairings=np.stack([across_eps(p, f"pairing_{n}") for n in names], axis=-1),
            sup_penalty=across_eps(p, "penalty").max(axis=1),
        )
        for p in range(spec.n_paths)
    ]
    if len(eps_list) < 2:
        empty = np.zeros((0, len(phis)))
        return CoupledSweepResult(eps_list, names, per_path, empty, empty)
    stack = np.stack([r.cauchy() for r in per_path])  # (M, n_eps-1, n_phi)
    mean = stack.mean(axis=0)
    se = (
        stack.std(axis=0, ddof=1) / np.sqrt(spec.n_paths)
        if spec.n_paths > 1
        else np.zeros_like(mean)
    )
    return CoupledSweepResult(eps_list, names, per_path, mean, se)
