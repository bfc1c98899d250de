"""Monte-Carlo orchestration: independent paths, merged statistics, and the
coupled relaxation-parameter sweep averaged over paths.

A :class:`RunConfig` describes the whole run: ``ensemble.paths`` paths,
seeded from ``noise.seed``, recorded every ``out.checkpoint_every`` steps.
Path i reads the stream of ``split_seed(noise.seed, i)``.  Ensembles and
sweeps run their paths through one grouped lane runner, which joins the
groups' batched checkpoint tables into one (paths, n_checkpoints) table in
path-index order; statistics reduce over its path axis, so they are
bit-identical no matter in which order (or on how many threads) the paths
actually executed.  Each runner returns the tables its command writes, as
:class:`PathSeries` columns: an ensemble its statistics, a sweep every
path's checkpoint row at every eps and the Cauchy gaps between them.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import (
    RunConfig,
    build_grid,
    build_noise_operator,
    build_params,
    checked_field,
    parse_eps_list,
)
from .diagnostics import (
    WeakFormTracker,
    default_defect_radius,
    default_defect_threshold,
    defect_detect,
    stress_pairing,
)
from .fields import TestFunction, director_test_function, solenoidal_test_function
from .grids import LANE_NODES
from .noise import WienerDriver, split_seed
from .pathrun import PathResult, PathSeries, simulate_batch, simulate_path, sphere_columns

# the record columns an ensemble reduces, in ensemble.csv order
STAT_FIELDS = ("dev_norm", "dirichlet", "kinetic", "ledger1", "ledger2", "max_abs_d",
               "penalty", "total")


@dataclass
class EnsembleResult:
    stats: PathSeries   # the ensemble.csv table (see reduce_stats)
    series: PathSeries  # columns (paths, n_checkpoints)
    seeds: list[int]


@dataclass
class SweepResult:
    """Coupled relaxation-parameter sweep: each path's checkpoint row at
    every eps, and the Cauchy differences of the stress pairings between
    consecutive eps at the last checkpoint, averaged over paths."""

    eps_list: list[float]
    series: PathSeries  # the hook's columns (paths, n_eps, n_check)
    cauchy: PathSeries  # eps_hi, eps_lo, then one (n_eps - 1,) column per test function
    seeds: list[int]


def _build(config: RunConfig):
    """(grid, u0, d0, params, S, h) of a config, its fields checked finite.
    The params are built before d0 is checked: an eps whose square
    underflows is refused by the step count under ``sim.T``, before its
    penalty mass would refuse the director."""
    grid = build_grid(config)
    u0 = checked_field(config, grid, "init_u")
    params = build_params(config, grid, umax=float(np.max(np.abs(u0))))
    d0 = checked_field(config, grid, "init_d")
    return grid, u0, d0, params, build_noise_operator(config, grid), checked_field(config, grid, "h_spec")


def run_path(config: RunConfig) -> PathResult:
    """The one path of ``config``, reading the stream of ``noise.seed``."""
    grid, u0, d0, params, S, h = _build(config)
    return simulate_path(
        grid, params, u0, d0, S, h, WienerDriver(config.seed, config.modes),
        checkpoint_every=config.checkpoint_every,
        track_budget=config.track_budget,
        track_invariants=config.track_invariants,
        weak_tracker=default_weak_tracker(grid, params) if config.track_weak else None,
    )


def default_weak_tracker(grid, params) -> WeakFormTracker:
    u_tests = default_sweep_test_functions(grid)[:2]  # phi11, phi21
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
               order: list[int] | None = None,
               checkpoint_hook=None) -> tuple[PathSeries, list[int]]:
    """(series, seeds) of every path of ``config``, each run as one lane of
    :func:`simulate_batch`; the series columns are (paths, n_checkpoints).

    Paths are grouped into index-contiguous batches of :func:`lane_width`
    paths that advance in lockstep (vectorized over a leading path axis), up
    to ``threads`` batches at a time; every lane is bit-identical to a lone
    path with its seed, whatever the batch size.  ``order`` permutes only
    the execution order of those work units (a reproducibility probe); the
    groups' tables are joined in path-index order, so the output does not
    depend on it.
    """
    n, width = config.paths, lane_width(grid)
    seeds = [split_seed(config.seed, i) for i in range(n)]
    starts = range(0, n, width)
    groups: list[PathSeries | None] = [None] * len(starts)

    def work(g: int) -> None:
        idx = range(starts[g], min(starts[g] + width, n))
        groups[g] = simulate_batch(
            grid, params, u0, d0, S, h, [WienerDriver(seeds[i], S.n_modes) for i in idx],
            checkpoint_every=config.checkpoint_every,
            track_budget=config.track_budget,
            checkpoint_hook=checkpoint_hook,
        ).series

    group_order = list(range(len(starts))) if order is None else list(order)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(work, group_order))
    else:
        for g in group_order:
            work(g)
    columns = {name: np.concatenate([grp.columns[name] for grp in groups])
               for name in groups[0].columns}
    return PathSeries(columns), seeds


def run_ensemble(config: RunConfig, threads: int = 1, *,
                 order: list[int] | None = None) -> EnsembleResult:
    """The ``ensemble.paths`` paths of ``config`` and their statistics
    (:func:`reduce_stats`).  Row i of every checkpoint column is
    bit-identical to the column of :func:`run_path` with ``noise.seed =
    result.seeds[i]`` (see :func:`_run_lanes` for the grouping, ``threads``
    and ``order``)."""
    grid, u0, d0, params, S, h = _build(config)
    series, seeds = _run_lanes(config, grid, params, u0, d0, S, h, threads, order=order)
    return EnsembleResult(stats=reduce_stats(series), series=series, seeds=seeds)


def reduce_stats(series: PathSeries) -> PathSeries:
    """The ``ensemble.csv`` table of a (paths, n_checkpoints) table: ``t``,
    then the sample mean, standard error, min and max over the path axis of
    each STAT_FIELDS column, per checkpoint."""
    c = series.columns
    n = c["t"].shape[0]
    stats = {"t": c["t"][0]}
    for name in STAT_FIELDS:
        table = c[name]
        v = table.var(axis=0, ddof=1) if n > 1 else np.zeros(table.shape[1])
        stats[f"{name}_mean"] = table.mean(axis=0)
        stats[f"{name}_se"] = np.sqrt(v / n)
        stats[f"{name}_min"] = table.min(axis=0)
        stats[f"{name}_max"] = table.max(axis=0)
    return PathSeries(stats)


def coupled_sweep(config: RunConfig, threads: int = 1) -> SweepResult:
    """Coupled relaxation-parameter sweep over ``sweep.eps`` with the pairing
    Cauchy differences averaged across paths.

    Each eps runs every path of ``config`` as a batched ensemble (see
    :func:`_run_lanes`); a path reads the same Wiener stream (same seed and
    dt) at every eps, so its realizations are coupled.  The grid, dt and
    initial data are built at the smallest eps, so an automatic dt is
    stable for every eps.  No sweep output reads a ledger or the energy
    record: the checkpoint hook is the whole row, so the paths keep no
    ledgers whatever ``track.budget`` says, and the record is not built.
    Every checkpoint records, per path and in ``sweep.csv`` order, the
    clock, penalty mass, sphere deviation, defect count and stress
    pairings (one traceless stress for all test functions).
    """
    eps_list = parse_eps_list(config.sweep_eps)
    config = replace(config, eps=eps_list[-1])
    grid, u0, d0, params, S, h = _build(config)
    phis = default_sweep_test_functions(grid)
    names = [tf.name for tf in phis]
    defect_r = default_defect_radius(grid)
    delta0_sq = default_defect_threshold(grid, eps_list[0], defect_r)

    runs = []  # runs[a]: the (paths, n_check) columns at eps_list[a]
    for eps in eps_list:
        def hook(state, eps=eps):
            row = {"t": state.t, **sphere_columns(state.d, grid, eps)}
            row["defect_count"] = np.array(
                [float(len(defect_detect(d, grid, eps, defect_r, delta0_sq))) for d in state.d])
            for name, value in stress_pairing(state.d, grid, phis).items():
                row[f"pairing_{name}"] = value
            return row

        series, seeds = _run_lanes(config, grid, replace(params, eps=eps), u0, d0, S, h,
                                   threads, checkpoint_hook=hook)
        runs.append(series.columns)

    series = PathSeries({name: np.stack([cols[name] for cols in runs], axis=1)
                         for name in runs[0]})
    last = np.stack([series.columns[f"pairing_{n}"][:, :, -1] for n in names], axis=-1)
    gaps = np.abs(np.diff(last, axis=1)).mean(axis=0)  # (n_eps - 1, n_phi)
    cauchy = PathSeries({"eps_hi": np.array(eps_list[:-1]), "eps_lo": np.array(eps_list[1:]),
                         **dict(zip(names, gaps.T))})
    return SweepResult(eps_list, series, cauchy, seeds)
