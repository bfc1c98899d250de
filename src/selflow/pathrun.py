"""Drive paths from t = 0 to T, emitting checkpoint records.

One runner, :func:`simulate_batch`, advances any number of independent
paths in lockstep as one leading-axis array state, which is how ensembles
stay affordable in pure numpy; :func:`simulate_path` is its one-lane case.
Everything downstream (budget residuals, ensembles, sweeps) consumes the
:class:`PathSeries` produced here.  The checkpoint record and the stepper's
ledgers take the energy-budget terms from the same helpers,
:func:`~selflow.dynamics.director_terms` and
:func:`~selflow.dynamics.budget_integrands`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .dynamics import (
    Ledgers,
    Params,
    SimState,
    budget_integrands,
    check_stability,
    director_terms,
    penalty_density,
    step_coupled,
)
from .noise import MagneticField, NoiseOperatorS, WienerDriver
from .projection import ProjectionError, interior_divergence_max

# rows of standard normals drawn from each driver at a time
RNG_CHUNK = 256


def record_columns(state: SimState, params: Params, S: NoiseOperatorS,
                   h: MagneticField) -> dict:
    """Every energy-identity term at the current state; batch-transparent
    (per-path values when the state carries a leading path axis, and the
    clock and untouched ledgers shared as scalars).

    ``hs`` carries its 0.5 xi1^2 prefactor; ``strat_drift`` is the bare
    0.5 (<grad d, grad((d x h) x h)> + ||grad(d x h)||^2).  The int_*
    entries are the stepper's running left-endpoint time integrals, built
    from the same integrands.
    """
    grid, u, d = state.grid, state.u, state.d
    kinetic = 0.5 * ops.pair_vec(u, u, grid)
    dirichlet = 0.5 * ops.dirichlet_form_vec(d, d, grid)
    pen = ops.pair_scalar(penalty_density(d, params.eps), 1.0, grid)
    _, _, tau, dxh, dxhxh = director_terms(d, h.values, grid, grid.bc_director, params.eps)
    diss_u, diss_d, hs, strat = budget_integrands(u, d, tau, dxh, dxhxh, grid, S, params.xi1)
    dev_sq = ops.dot3(d, d) - 1.0
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
        "max_abs_d": np.sqrt(np.max(ops.dot3(d, d), axis=(-2, -1))),
        "dev_norm": np.sqrt(np.maximum(ops.pair_scalar(dev_sq, dev_sq, grid), 0.0)),
    }


def _at(value, lane: int) -> float:
    """Lane ``lane`` of a per-path value, or the value shared by all paths."""
    return float(value[lane]) if np.ndim(value) else float(value)


@dataclass
class InvariantSink:
    """Per-step monitors, per path: worst divergence and advection-pairing
    defect."""

    max_divergence: float | np.ndarray = 0.0
    max_adv_ratio: float | np.ndarray = 0.0

    def record_advection(self, pairing, u_norm) -> None:
        self.max_adv_ratio = np.maximum(self.max_adv_ratio,
                                        np.abs(pairing) / (1.0 + u_norm**3))

    def record_divergence(self, div_inf) -> None:
        self.max_divergence = np.maximum(self.max_divergence, div_inf)

    def lane(self, i: int) -> "InvariantSink":
        return InvariantSink(_at(self.max_divergence, i), _at(self.max_adv_ratio, i))


@dataclass
class PathSeries:
    """Checkpoint table for one path: one array per record field, plus any
    extra columns contributed by a checkpoint hook."""

    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def sup_total(self) -> float:
        return float(np.max(self.columns["total"]))


@dataclass
class PathResult:
    series: PathSeries
    state: SimState
    seed: int
    invariants: InvariantSink | None = None
    weak_tracker: object | None = None


def _normal_rows(drivers: list[WienerDriver], n_steps: int):
    """Each step's (lanes, N+1) standard normals, every driver's stream read
    RNG_CHUNK rows at a time."""
    for base in range(0, n_steps, RNG_CHUNK):
        size = min(RNG_CHUNK, n_steps - base)
        yield from np.stack([drv.normal_table(size) for drv in drivers], axis=1)


def _lane_state(state: SimState, i: int) -> SimState:
    led = Ledgers(**{k: _at(v, i) for k, v in vars(state.ledgers).items()})
    return SimState(state.grid, state.t, state.u[i], state.d[i], state.step, led)


def simulate_batch(
    grid,
    params: Params,
    u0: np.ndarray,
    d0: np.ndarray,
    S: NoiseOperatorS,
    h: MagneticField,
    drivers: list[WienerDriver],
    *,
    checkpoint_every: int = 50,
    track_budget: bool = True,
    track_invariants: bool = False,
    weak_tracker=None,
    normals_table: np.ndarray | None = None,
    checkpoint_hook=None,
) -> list[PathResult]:
    """Advance len(drivers) independent paths from (u0, d0) in lockstep as
    one batched state (leading path axis) and collect checkpoint records.

    Each path reads its own driver stream, RNG_CHUNK rows at a time, and no
    kernel mixes lanes, so lane m is bit-identical to a lone run with
    drivers[m].  ``normals_table`` (n_steps, len(drivers), N+1) replaces
    the drivers' streams, one step per row; without it the run takes
    round(T / dt) steps.  ``weak_tracker`` accumulates per lane, and
    ``checkpoint_hook(state)`` is called at every checkpoint with the
    batched state; its dict of per-lane values becomes extra columns.
    Raises the stepper's stability / blow-up errors, and
    :class:`ProjectionError` with the worst lane's value when a checkpoint
    after step 0 finds a divergence above ``params.proj_tol``.
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
    sink = InvariantSink() if track_invariants else None

    rows: list[dict] = []

    def emit():
        if state.step:
            worst = float(np.max(interior_divergence_max(state.u, grid)))
            if worst > params.proj_tol:
                raise ProjectionError(
                    f"divergence exceeds proj.tol = {params.proj_tol:.3e} at step {state.step}",
                    worst)
        rows.append(record_columns(state, params, S, h))
        if checkpoint_hook is not None:
            rows[-1].update(checkpoint_hook(state))

    emit()
    for step, normals in enumerate(normals_rows):
        step_coupled(
            state, params, S, h, normals,
            track_budget=track_budget,
            weak_tracker=weak_tracker,
            invariant_sink=sink,
        )
        if (step + 1) % checkpoint_every == 0 or step + 1 == n_steps:
            emit()

    out = []
    for lane, drv in enumerate(drivers):
        columns = {name: np.array([_at(row[name], lane) for row in rows]) for name in rows[0]}
        out.append(PathResult(
            PathSeries(columns), _lane_state(state, lane), drv.seed,
            None if sink is None else sink.lane(lane),
            None if weak_tracker is None else weak_tracker.lane(lane),
        ))
    return out


def simulate_path(
    grid,
    params: Params,
    u0: np.ndarray,
    d0: np.ndarray,
    S: NoiseOperatorS,
    h: MagneticField,
    driver: WienerDriver,
    *,
    normals_table: np.ndarray | None = None,
    **options,
) -> PathResult:
    """One path: a one-lane :func:`simulate_batch`, unwrapped.  A
    ``normals_table`` is (n_steps, N+1); the other options are the batch
    runner's."""
    if normals_table is not None:
        normals_table = normals_table[:, None, :]
    return simulate_batch(grid, params, u0, d0, S, h, [driver],
                          normals_table=normals_table, **options)[0]
