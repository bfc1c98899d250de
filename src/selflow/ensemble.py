"""Monte-Carlo orchestration: independent paths, merged statistics, and the
coupled relaxation-parameter sweep averaged over paths.

A :class:`RunConfig` describes the whole run: ``ensemble.paths`` paths,
seeded from ``noise.seed``, recorded every ``out.checkpoint_every`` steps.
Path i reads the stream of ``split_seed(noise.seed, i)``.  Ensembles and
sweeps run their paths through one grouped lane runner; results are
collected into arrays indexed by path, then reduced in index order, so the
statistics are bit-identical no matter in which order (or on how many
threads) the paths actually executed.
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
    default_defect_radius,
    default_defect_threshold,
    defect_detect,
    stress_pairing,
)
from .fields import TestFunction, director_test_function, solenoidal_test_function
from .noise import WienerDriver, split_seed
from .pathrun import PathResult, PathSeries, simulate_batch, simulate_path

STAT_FIELDS = ("kinetic", "dirichlet", "penalty", "total", "ledger1", "ledger2",
               "dev_norm", "max_abs_d")

# Grid nodes per lane group.  A step's temporaries scale with lanes x nodes;
# at 16384 nodes a director-sized (3-component) temporary is about 0.4 MB,
# so the working set of a step stays near a 2 MiB L2 cache.
LANE_NODES = 16384


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


def run_path(config: RunConfig, seed: int) -> PathResult:
    """One path, fully determined by (config, seed)."""
    grid, u0, d0, params, S, h = _build(config)
    return simulate_path(
        grid, params, u0, d0, S, h, WienerDriver(seed, config.modes),
        checkpoint_every=config.checkpoint_every,
        track_budget=config.track_budget,
        track_invariants=config.track_invariants,
        weak_tracker=default_weak_tracker(grid, params) if config.track_weak else None,
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


def lane_width(grid) -> int:
    """Paths per lane group on ``grid``: ``LANE_NODES`` grid nodes, and at
    least one path."""
    return max(1, LANE_NODES // (grid.nx * grid.ny))


def _run_lanes(config: RunConfig, grid, params, u0, d0, S, h, threads: int, *,
               order: list[int] | None = None, batch_size: int | None = None,
               checkpoint_hook=None) -> tuple[list[PathSeries], list[int]]:
    """(series, seeds) of every path of ``config``, each run as one lane of
    :func:`simulate_batch`.

    Paths are grouped into index-contiguous batches of ``batch_size`` paths
    (by default :func:`lane_width` of the grid) that advance in lockstep
    (vectorized over a leading path axis), up to ``threads`` batches at a
    time; every lane is bit-identical to a lone path with its seed, whatever
    the batch size.  ``order`` permutes only the execution order of those
    work units (a reproducibility probe); results are stored by path index,
    so the output does not depend on it.
    """
    n = config.paths
    if batch_size is None:
        batch_size = lane_width(grid)
    seeds = [split_seed(config.seed, i) for i in range(n)]
    series: list[PathSeries | None] = [None] * n
    starts = range(0, n, batch_size)

    def work(g: int) -> None:
        idx = range(starts[g], min(starts[g] + batch_size, n))
        batch = simulate_batch(
            grid, params, u0, d0, S, h, [WienerDriver(seeds[i], S.n_modes) for i in idx],
            checkpoint_every=config.checkpoint_every,
            track_budget=config.track_budget,
            checkpoint_hook=checkpoint_hook,
        )
        series[idx.start:idx.stop] = [res.series for res in batch]

    group_order = list(range(len(starts))) if order is None else list(order)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(work, group_order))
    else:
        for g in group_order:
            work(g)
    return series, seeds


def run_ensemble(config: RunConfig, threads: int = 1, *,
                 order: list[int] | None = None,
                 batch_size: int | None = None) -> EnsembleResult:
    """The ``ensemble.paths`` paths of ``config``, merged into EnsembleStats.
    Path i's checkpoint columns are bit-identical to those of
    :func:`run_path` with seed ``result.seeds[i]`` (see :func:`_run_lanes`
    for the grouping, ``threads`` and ``order``)."""
    grid, u0, d0, params, S, h = _build(config)
    series, seeds = _run_lanes(config, grid, params, u0, d0, S, h, threads,
                               order=order, batch_size=batch_size)
    return EnsembleResult(stats=reduce_stats(series), series=series, seeds=seeds)


def reduce_stats(series: list[PathSeries]) -> EnsembleStats:
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
    seeds: list[int]


def coupled_sweep(config: RunConfig, threads: int = 1) -> CoupledSweepResult:
    """Coupled relaxation-parameter sweep over ``sweep.eps`` with the pairing
    Cauchy differences averaged across paths.

    Each eps runs every path of ``config`` as a batched ensemble (see
    :func:`_run_lanes`); a path reads the same Wiener stream (same seed and
    dt) at every eps, so its realizations are coupled.  The grid, dt and
    initial data are built at the smallest eps, so an automatic dt is
    stable for every eps.  No sweep output reads a ledger, so the paths
    step with the budget off whatever ``track.budget`` says.  Every
    checkpoint records the stress pairings, penalty mass, sphere deviation
    and defect count of each path.
    """
    eps_list = parse_eps_list(config.sweep_eps)
    config = replace(config, eps=eps_list[-1], track_budget=False)
    grid, u0, d0, params, S, h = _build(config)
    phis = default_sweep_test_functions(grid)
    names = [tf.name for tf in phis]
    defect_r = default_defect_radius(grid)
    delta0_sq = default_defect_threshold(grid, eps_list[0], defect_r)

    runs = []  # runs[a][p]: series of path p at eps_list[a]
    for eps in eps_list:
        def hook(state, eps=eps):
            row = {f"pairing_{tf.name}": stress_pairing(state.d, grid, grid.bc_director, tf)
                   for tf in phis}
            row["defect_count"] = np.array(
                [float(defect_detect(d, grid, eps, defect_r, delta0_sq).count) for d in state.d])
            return row

        series, seeds = _run_lanes(config, grid, replace(params, eps=eps), u0, d0, S, h,
                                   threads, checkpoint_hook=hook)
        runs.append(series)

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
        for p in range(config.paths)
    ]
    if len(eps_list) < 2:
        empty = np.zeros((0, len(phis)))
        return CoupledSweepResult(eps_list, names, per_path, empty, empty, seeds)
    stack = np.stack([r.cauchy() for r in per_path])  # (M, n_eps-1, n_phi)
    mean = stack.mean(axis=0)
    se = (
        stack.std(axis=0, ddof=1) / np.sqrt(config.paths)
        if config.paths > 1
        else np.zeros_like(mean)
    )
    return CoupledSweepResult(eps_list, names, per_path, mean, se, seeds)
