"""Coupled Euler-Maruyama stepping of the relaxed director/velocity system.

One step advances both fields from the same time-n state:

    d+ = d + dt [ -(u.grad)d + gamma (lap d - f_eps(d)) + 0.5 xi2^2 (d x h) x h ]
           + xi2 (d x h) dW2
    u+ = P[ u + dt ( -adv(u,u) + mu lap u - lam stress(d) ) + xi1 S(u) dW1 ]

with P the Leray projection.  The Stratonovich director noise is integrated
in Ito form with its drift correction made explicit.

Discrete forms are chosen so the step-by-step energy budget closes without
spatial leakage in periodic mode: velocity self-advection is the
skew-symmetric form (its kinetic pairing vanishes identically), the director
is advected with plain central (u.grad)d, and the stress force is the
reduced form sum_c (lap d_c) grad d_c, whose pairing with u cancels the
director advection term exactly.  It equals the Ericksen tensor divergence
div(grad d . grad d) up to a gradient, which the projection removes; the
tensor itself lives with its diagnostic users in :mod:`selflow.diagnostics`.
Bounded grids leave the budget a spatial floor (their projection is not
orthogonal in the quadrature inner product), larger with a pinned
``dirichlet`` wall.

Running ledgers accumulate the discrete stochastic integrals and the
left-endpoint time integrals that the energy-budget diagnostic consumes,
from the integrands the checkpoint record uses (:func:`budget_integrands`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .grids import Grid
from .noise import MagneticField, NoiseOperatorS
from .projection import PROJ_TOL, interior_divergence_max, leray_project


class BlowUpError(RuntimeError):
    """Non-finite state detected during stepping."""

    def __init__(self, step: int, t: float):
        super().__init__(f"solution blew up at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


class StabilityError(ValueError):
    """Requested dt exceeds the explicit-stepping stability bound."""


@dataclass
class Params:
    """Physical and numerical parameters of one simulation."""

    eps: float = 0.2
    mu: float = 1.0
    lam: float = 1.0
    gamma: float = 1.0
    xi1: float = 1.0
    xi2: float = 1.0
    dt: float = 1e-4
    T: float = 0.5
    proj_tol: float = PROJ_TOL
    dt_override: bool = False

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        for name in ("mu", "lam", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("xi1", "xi2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")


def stability_dt(eps: float, grid: Grid, mu: float, gamma: float, umax: float = 0.0) -> float:
    """Explicit-step time-step cap.

    min of the two diffusive bounds h^2/(8 mu), h^2/(8 gamma), the
    penalty-stiffness bound eps^2/(4 gamma) (the eps^2 stiffness of the
    relaxation force), and an advective CFL bound when a velocity scale is
    supplied.
    """
    h2 = min(grid.hx, grid.hy) ** 2
    cap = min(h2 / (8.0 * mu), h2 / (8.0 * gamma), eps**2 / (4.0 * gamma))
    if umax > 0:
        cap = min(cap, min(grid.hx, grid.hy) / (4.0 * umax))
    return cap


def check_stability(params: Params, grid: Grid, umax: float = 0.0) -> None:
    cap = stability_dt(params.eps, grid, params.mu, params.gamma, umax)
    if params.dt > cap * (1.0 + 1e-12) and not params.dt_override:
        raise StabilityError(
            f"dt = {params.dt:.3e} exceeds stability bound {cap:.3e}; "
            "set dt_override to force"
        )


@dataclass
class Ledgers:
    """Running stochastic integrals and left-endpoint budget integrals."""

    noise_u: float = 0.0       # sum <u_n, xi1 S(u_n) dW1>
    noise_d: float = 0.0       # sum <d_n x h, gamma (lap d_n - f_eps)> dW2
    int_diss_u: float = 0.0    # sum dt ||grad u_n||^2
    int_diss_d: float = 0.0    # sum dt ||lap d_n - f_eps(d_n)||^2
    int_hs: float = 0.0        # sum dt * 0.5 xi1^2 ||S(u_n)||_HS^2
    int_strat: float = 0.0     # sum dt * 0.5 (<grad d, grad((dxh)xh)> + ||grad(dxh)||^2)


@dataclass
class SimState:
    """Paths of the coupled system: fields, clock, and ledgers.  The fields
    may carry a leading path axis, and the ledgers then hold one value per
    path."""

    grid: Grid
    t: float
    u: np.ndarray
    d: np.ndarray
    step: int = 0
    ledgers: Ledgers = field(default_factory=Ledgers)

    @classmethod
    def initial(cls, grid: Grid, u0: np.ndarray, d0: np.ndarray) -> "SimState":
        grid.check_values(u0)
        grid.check_values(d0)
        return cls(grid, 0.0, u0.copy(), d0.copy())


def gl_force(d: np.ndarray, eps: float) -> np.ndarray:
    """Relaxation force (|d|^2 - 1) d / eps^2 (gradient of the penalty)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    q = np.sum(d * d, axis=-3, keepdims=True) - 1.0
    out = q * d
    out /= eps**2
    return out


def penalty_density(d: np.ndarray, eps: float) -> np.ndarray:
    """Penalty density (1 - |d|^2)^2 / (4 eps^2), pointwise nonnegative."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return (1.0 - ops.dot3(d, d)) ** 2 / (4.0 * eps**2)


def strat_correction(d: np.ndarray, h: np.ndarray, xi2: float = 1.0) -> np.ndarray:
    """Ito drift of the Stratonovich director noise: 0.5 xi2^2 ((d x h) x h)."""
    return 0.5 * xi2**2 * ops.cross(ops.cross(d, h), h)


def director_terms(d: np.ndarray, h: np.ndarray, grid: Grid, bc: str, eps: float):
    """Time-n director terms (lap d, f_eps(d), tau = lap d - f_eps(d),
    d x h, (d x h) x h)."""
    lap_d = ops.laplacian(d, grid, bc)
    f = gl_force(d, eps)
    dxh = ops.cross(d, h)
    return lap_d, f, lap_d - f, dxh, ops.cross(dxh, h)


def budget_integrands(u: np.ndarray, d: np.ndarray, tau: np.ndarray, dxh: np.ndarray,
                      dxhxh: np.ndarray, grid: Grid, S: NoiseOperatorS, xi1: float):
    """The four unscaled energy-budget integrands at one state, per path:
    ||grad u||^2, ||tau||^2, ||S(u)||_HS^2 (0.0 when xi1 = 0, where no
    noise term needs it) and <grad d, grad((d x h) x h)> + ||grad(d x h)||^2."""
    hs = S.hs_norm_sq(u) if xi1 != 0.0 else 0.0
    strat = ops.dirichlet_form_vec(d, dxhxh, grid) + ops.dirichlet_form_vec(dxh, dxh, grid)
    return ops.dirichlet_form_vec(u, u, grid), ops.pair_vec(tau, tau, grid), hs, strat


def step_coupled(
    state: SimState,
    params: Params,
    S: NoiseOperatorS,
    h: MagneticField,
    normals: np.ndarray,
    *,
    track_budget: bool = False,
    weak_tracker=None,
    invariant_sink=None,
) -> SimState:
    """Advance the coupled state by one step (mutates and returns ``state``).

    Both updates read the time-n fields.  ``normals`` holds this step's N+1
    standard normals (N velocity modes, then the director motion), one row
    per path.  State arrays may carry a leading path axis, in which case the
    ledgers accumulate per path.  ``weak_tracker`` and ``invariant_sink``
    receive the per-step pairings when supplied.  A ``dirichlet`` director
    wall keeps its time-n values, which are those of the initial director.
    """
    grid, dt = state.grid, params.dt
    u, d = state.u, state.d
    bc_u, bc_d = grid.bc_velocity, grid.bc_director

    root = np.sqrt(dt)
    dB = root * normals[..., :S.n_modes]
    dW2 = root * normals[..., S.n_modes]

    # time-n director pieces; the central gradient of d is shared between
    # the advection term and the reduced stress force
    lap_d, f, tau, dxh, dxhxh = director_terms(d, h.values, grid, bc_d, params.eps)
    g_d = ops.gradient(d, grid, bc_d)  # (..., 3, 2, nx, ny)
    adv_d = u[..., 0:1, :, :] * g_d[..., 0, :, :]
    adv_d += u[..., 1:2, :, :] * g_d[..., 1, :, :]

    # time-n velocity pieces
    adv_u = ops.advect_skew(u, u, grid, bc_u)
    lap_u = ops.laplacian(u, grid, bc_u)
    # reduced stress force: sum over c of lap_d[c] grad d[c], added in
    # component order as a sum over that axis adds
    sforce = lap_d[..., 0:1, :, :] * g_d[..., 0, :, :, :]
    for c in (1, 2):
        sforce += lap_d[..., c:c + 1, :, :] * g_d[..., c, :, :, :]
    # done with; freed before the ledgers so the peak memory of a many-lane
    # step stays lower
    del lap_d, g_d
    if params.xi1 != 0.0:
        # unprojected mode mix; folded into the step projection below.
        # Pairings against divergence-free fields (u_n, the solenoidal test
        # functions) see the projected value up to proj_tol.
        noise_u = params.xi1 * S.mix_increments(u, dB)
    else:
        noise_u = None

    # ledgers, all pairings against time-n fields
    led = state.ledgers
    if noise_u is not None:
        led.noise_u = led.noise_u + ops.pair_vec(u, noise_u, grid)
    if params.xi2 != 0.0:
        led.noise_d = led.noise_d + params.gamma * ops.pair_vec(dxh, tau, grid) * dW2
    if track_budget:
        diss_u, diss_d, hs, strat = budget_integrands(u, d, tau, dxh, dxhxh, grid, S, params.xi1)
        led.int_diss_u = led.int_diss_u + dt * diss_u
        led.int_diss_d = led.int_diss_d + dt * diss_d
        led.int_hs = led.int_hs + dt * 0.5 * params.xi1**2 * hs
        led.int_strat = led.int_strat + dt * 0.5 * strat
    if weak_tracker is not None:
        weak_tracker.accumulate(u, d, noise_u, dxh, dxhxh, f, dt, dW2)
    if invariant_sink is not None:
        invariant_sink.record_advection(ops.pair_vec(adv_u, u, grid),
                                        np.sqrt(ops.pair_vec(u, u, grid)))

    # updates, built in place on the spent time-n terms with the operations
    # and order of d + dt * (-adv_d + gamma tau + 0.5 xi2^2 dxhxh) and
    # u + dt * (-adv_u + mu lap_u - lam sforce) + noise_u
    d_new = np.negative(adv_d, out=adv_d)
    d_new += params.gamma * tau
    d_new += 0.5 * params.xi2**2 * dxhxh
    d_new *= dt
    d_new += d
    if params.xi2 != 0.0:
        d_new += params.xi2 * dxh * np.asarray(dW2)[..., None, None, None]
    if bc_d == "dirichlet":
        for wall in (np.s_[..., 0, :], np.s_[..., -1, :], np.s_[..., :, 0], np.s_[..., :, -1]):
            d_new[wall] = d[wall]

    v = np.negative(adv_u, out=adv_u)
    v += params.mu * lap_u
    v -= params.lam * sforce
    v *= dt
    v += u
    if noise_u is not None:
        v += noise_u
    # checked before the projection, which refuses non-finite input
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d_new))):
        raise BlowUpError(state.step, state.t)
    u_new = leray_project(v, grid, tol=params.proj_tol)
    if invariant_sink is not None:
        invariant_sink.record_divergence(interior_divergence_max(u_new, grid))

    state.u, state.d = u_new, d_new
    state.t += dt
    state.step += 1
    return state
