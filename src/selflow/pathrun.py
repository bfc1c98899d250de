"""Drive paths from t = 0 to T, emitting checkpoint records.

One runner, :func:`simulate_batch`, advances any number of independent
paths in lockstep as one leading-axis array state, which is how ensembles
stay affordable in pure numpy.  It returns one batched result: a
:class:`PathSeries` whose columns are (lanes, n_checkpoints) tables, and
the final state, whose ledgers also hold the invariant monitors, with its
path axis.  Ensembles and sweeps read those tables as they are;
:func:`simulate_path` is the one-lane case and the one place a lane is
split off (:meth:`PathResult.lane`).  The checkpoint record and the
stepper's ledgers take the energy-budget terms from the same helpers,
:func:`~selflow.dynamics.director_terms` and
:func:`~selflow.dynamics.budget_integrands`; a checkpoint hook's row takes
the penalty mass and sphere deviation from :func:`sphere_columns`, as the
record does.  A run keeps one :class:`~selflow.dynamics.Workspace` for its
steps and records, and drops it when it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .dynamics import (
    BlowUpError,
    Ledgers,
    Params,
    SimState,
    Workspace,
    budget_integrands,
    check_stability,
    director_terms,
    penalty_density,
    step_coupled,
)
from .noise import NoiseOperatorS, WienerDriver
from .projection import ProjectionError, divergence_bound, interior_divergence_max

# rows of standard normals drawn from each driver at a time
RNG_CHUNK = 256


def sphere_columns(d: np.ndarray, grid, eps: float, tmp: np.ndarray | None = None) -> dict:
    """Penalty mass int (1 - |d|^2)^2 / (4 eps^2) and sphere deviation
    || |d|^2 - 1 || of a director, one value per path when ``d`` carries a
    leading path axis; its fields are built in the flat scratch ``tmp``
    when it is given."""
    plane = d.shape[:-3] + d.shape[-2:]
    dev_sq, pen, rest = ops.carve(tmp, plane, plane)
    ops.dot3(d, d, out=dev_sq, tmp=rest)
    dev_sq -= 1.0
    return {
        "penalty": ops.pair_scalar(penalty_density(d, eps, out=pen, tmp=rest), 1.0, grid,
                                   tmp=rest),
        "dev_norm": np.sqrt(np.maximum(ops.pair_scalar(dev_sq, dev_sq, grid, tmp=rest), 0.0)),
    }


def record_columns(state: SimState, params: Params, S: NoiseOperatorS,
                   h: np.ndarray, work: Workspace | None = None) -> dict:
    """Every energy-identity term at the current state; batch-transparent
    (per-path values when the state carries a leading path axis, and the
    clock and untouched ledgers shared as scalars).

    ``hs`` carries its 0.5 xi1^2 prefactor; ``strat_drift`` is the bare
    0.5 (<grad d, grad((d x h) x h)> + ||grad(d x h)||^2).  The int_*
    entries are the stepper's running left-endpoint time integrals, built
    from the same integrands.  Its fields are built in the step's buffers of
    ``work`` (a new workspace when it is None).
    """
    grid, u, d = state.grid, state.u, state.d
    if work is None:
        work = Workspace()
    spare = work.spare(d, S.hs_scratch(u.shape))
    kinetic = 0.5 * ops.pair_vec(u, u, grid, tmp=spare)
    dirichlet = 0.5 * ops.dirichlet_form_vec(d, d, grid, tmp=spare)
    sphere = sphere_columns(d, grid, params.eps, tmp=spare)
    pen = sphere["penalty"]
    lap_d, tau, dxh, dxhxh = director_terms(d, h, grid, params.eps, work)
    # only periodic grids read ||grad u||^2 off the Laplacian
    lap_u = (ops.laplacian(u, grid, grid.bc_velocity, out=work("lap_u", u.shape), tmp=spare)
             if grid.periodic else None)
    diss_u, diss_d, hs, strat = budget_integrands(u, lap_u, d, lap_d, tau, dxh, dxhxh,
                                                  grid, S, params, tmp=spare)
    sq, rest = ops.carve(spare, d.shape[:-3] + d.shape[-2:])
    led = state.ledgers
    return {
        "t": state.t,
        "kinetic": kinetic,
        "dirichlet": dirichlet,
        "penalty": pen,
        "total": kinetic + params.lam * (dirichlet + pen),
        "dissipation_u": diss_u,
        "dissipation_d": diss_d,
        "hs": 0.5 * params.xi1**2 * hs,
        "strat_drift": 0.5 * strat,
        "ledger1": led.noise_u,
        "ledger2": led.noise_d,
        "int_diss_u": led.int_diss_u,
        "int_diss_d": led.int_diss_d,
        "int_hs": led.int_hs,
        "int_strat": led.int_strat,
        "max_abs_d": np.sqrt(np.max(ops.dot3(d, d, out=sq, tmp=rest), axis=(-2, -1))),
        "dev_norm": sphere["dev_norm"],
    }


@dataclass
class PathSeries:
    """Checkpoint table: one array per record field, or per field of a
    checkpoint hook's row.  A column is (n_checkpoints,) for one path and a
    C-contiguous (paths, n_checkpoints) array for a batch."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class PathResult:
    """A run's checkpoint table, final state (with its ledgers) and weak-form
    tracker, batched over its lanes by :func:`simulate_batch`."""

    series: PathSeries
    state: SimState
    weak_tracker: object | None = None

    def lane(self, i: int) -> "PathResult":
        """Path ``i`` alone: 1-D columns (views of row i), its state and its
        weak-form tracker."""
        return PathResult(
            PathSeries({name: col[i] for name, col in self.series.columns.items()}),
            _lane_state(self.state, i),
            None if self.weak_tracker is None else self.weak_tracker.lane(i),
        )


def _normal_rows(drivers: list[WienerDriver], n_steps: int):
    """Each step's (lanes, N+1) standard normals, every driver's stream read
    RNG_CHUNK rows at a time."""
    for base in range(0, n_steps, RNG_CHUNK):
        size = min(RNG_CHUNK, n_steps - base)
        yield from np.stack([drv.normal_table(size) for drv in drivers], axis=1)


def _lane_state(state: SimState, i: int) -> SimState:
    # a per-path ledger's lane i, or the value shared by all paths
    led = Ledgers(**{k: float(v[i]) if np.ndim(v) else float(v)
                     for k, v in vars(state.ledgers).items()})
    return SimState(state.grid, state.t, state.u[i], state.d[i], state.step, led)


def simulate_batch(
    grid,
    params: Params,
    u0: np.ndarray,
    d0: np.ndarray,
    S: NoiseOperatorS,
    h: np.ndarray,
    drivers: list[WienerDriver],
    *,
    checkpoint_every: int = 50,
    track_budget: bool = True,
    track_invariants: bool = False,
    weak_tracker=None,
    normals_table: np.ndarray | None = None,
    checkpoint_hook=None,
) -> PathResult:
    """Advance len(drivers) independent paths from (u0, d0) in lockstep as
    one batched state (leading path axis) and collect checkpoint records
    into (lanes, n_checkpoints) columns; the state and ``weak_tracker`` of
    the result keep their path axis.  ``track_invariants`` has the stepper
    keep the invariant-monitor maxima in the state's ledgers.

    Each path reads its own driver stream, RNG_CHUNK rows at a time, and no
    kernel mixes lanes, so lane m is bit-identical to a lone run with
    drivers[m].  ``normals_table`` (n_steps, len(drivers), N+1) replaces
    the drivers' streams, one step per row; without it the run takes
    round(T / dt) steps.  ``weak_tracker`` accumulates per lane.  A
    checkpoint row is :func:`record_columns`, or, when ``checkpoint_hook``
    is given, the dict of per-lane values that ``checkpoint_hook(state)``
    returns for the batched state.  Only the record reads the noise and
    budget ledgers, so with a hook the steps keep none (they stay 0)
    whatever ``track_budget`` says.  Values shared by all lanes (the clock,
    untracked ledgers) are repeated on every lane's row.  Raises the
    stepper's stability / blow-up errors, :class:`BlowUpError` when a
    checkpoint row holds a value that is not finite, and
    :class:`ProjectionError` with
    the worst lane's value when a checkpoint after step 0 finds a divergence
    above its ``divergence_bound(proj_tol)``.  The steps and records write
    their fields into one :class:`~selflow.dynamics.Workspace`, made here
    and dropped on return, and before each ``checkpoint_hook`` call.
    """
    if normals_table is None:
        n_steps = max(1, int(round(params.T / params.dt)))
        normals_rows = _normal_rows(drivers, n_steps)
    else:
        n_steps, normals_rows = normals_table.shape[0], normals_table
    m = len(drivers)
    check_stability(params, grid, umax=float(np.max(np.abs(u0))))
    state = SimState.initial(grid, np.broadcast_to(u0, (m,) + u0.shape),
                             np.broadcast_to(d0, (m,) + d0.shape))
    if weak_tracker is not None:
        weak_tracker.initialize(state.u, state.d)
    work = Workspace()

    rows: list[dict] = []

    def emit():
        nonlocal work
        if state.step:
            div = interior_divergence_max(state.u, grid, tmp=work.spare(state.d))
            if np.any(div > divergence_bound(state.u, grid, params.proj_tol)):
                raise ProjectionError(
                    f"divergence exceeds proj.tol = {params.proj_tol:.3e} at step {state.step}",
                    float(np.max(div)))
        # a finite state whose energy terms overflow has blown up too: the
        # check below reports it, so the overflow itself is not warned of
        with np.errstate(over="ignore", invalid="ignore"):
            if checkpoint_hook is None:
                row = record_columns(state, params, S, h, work)
            else:
                # the hook builds its fields itself: the step's buffers are
                # dropped first, so they do not add to its peak memory
                work = Workspace()
                row = checkpoint_hook(state)
        if not all(np.all(np.isfinite(value)) for value in row.values()):
            raise BlowUpError(state.step, state.t)
        rows.append(row)

    emit()
    for step, normals in enumerate(normals_rows):
        step_coupled(
            state, params, S, h, normals,
            track_budget=track_budget and checkpoint_hook is None,
            track_noise=checkpoint_hook is None,
            weak_tracker=weak_tracker,
            track_invariants=track_invariants,
            work=work,
        )
        if (step + 1) % checkpoint_every == 0 or step + 1 == n_steps:
            emit()

    columns = {name: np.stack([np.broadcast_to(np.asarray(row[name], dtype=float), (m,))
                               for row in rows], axis=1)
               for name in rows[0]}
    return PathResult(PathSeries(columns), state, weak_tracker)


def simulate_path(
    grid,
    params: Params,
    u0: np.ndarray,
    d0: np.ndarray,
    S: NoiseOperatorS,
    h: np.ndarray,
    driver: WienerDriver,
    *,
    normals_table: np.ndarray | None = None,
    **options,
) -> PathResult:
    """One path: lane 0 of a one-lane :func:`simulate_batch`.  A
    ``normals_table`` is (n_steps, N+1); the other options are the batch
    runner's."""
    if normals_table is not None:
        normals_table = normals_table[:, None, :]
    return simulate_batch(grid, params, u0, d0, S, h, [driver],
                          normals_table=normals_table, **options).lane(0)
