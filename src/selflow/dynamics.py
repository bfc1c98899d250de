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
from the integrands the checkpoint record uses (:func:`budget_integrands`),
and, when asked, the running maxima of the per-step invariant monitors.

A step writes every field it builds into a :class:`Workspace`, which a
run keeps for all its steps and checkpoint records: no field-sized array
is allocated per step, and the two time-n fields a step replaces become
the buffers of the next step's update.  Every workspace buffer and the
state's fields start on a cache line (:func:`aligned_empty`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .grids import Grid
from .noise import NoiseOperatorS
from .projection import PROJ_TOL, interior_divergence_max, leray_project


class BlowUpError(RuntimeError):
    """Non-finite state detected during stepping."""

    def __init__(self, step: int, t: float):
        super().__init__(f"solution blew up at step {step} (t = {t:.6g})")
        self.step = step
        self.t = t


class StabilityError(ValueError):
    """Requested dt exceeds the explicit-stepping stability bound."""


# bytes per cache line: numpy's wide (AVX-512) loops load one line at a time
CACHE_LINE = 64


def aligned_empty(shape: tuple) -> np.ndarray:
    """A new C-contiguous float array of ``shape`` whose data starts on a
    cache line, so that no vector load of its leading elements straddles two
    lines (the allocator's own offset follows earlier allocations)."""
    size = math.prod(shape)
    raw = np.empty(size + CACHE_LINE // 8)
    skip = (-raw.ctypes.data % CACHE_LINE) // 8
    return raw[skip:skip + size].reshape(shape)


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
        # written as `not lo < x < inf` so that NaN is refused too
        for name in ("eps", "mu", "lam", "gamma", "dt", "T"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("xi1", "xi2"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


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
    """Running stochastic and left-endpoint budget integrals, and monitor maxima."""

    noise_u: float = 0.0       # sum <u_n, xi1 S(u_n) dW1>
    noise_d: float = 0.0       # sum <d_n x h, gamma (lap d_n - f_eps)> dW2
    int_diss_u: float = 0.0    # sum dt ||grad u_n||^2
    int_diss_d: float = 0.0    # sum dt ||lap d_n - f_eps(d_n)||^2
    int_hs: float = 0.0        # sum dt * 0.5 xi1^2 ||S(u_n)||_HS^2
    int_strat: float = 0.0     # sum dt * 0.5 (<grad d, grad((dxh)xh)> + ||grad(dxh)||^2)
    max_divergence: float = 0.0  # max |div u_{n+1}|_inf over the controlled nodes
    max_adv_ratio: float = 0.0   # max |<adv(u_n, u_n), u_n>| / (1 + ||u_n||^3)


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
        u, d = aligned_empty(u0.shape), aligned_empty(d0.shape)
        np.copyto(u, u0)
        np.copyto(d, d0)
        return cls(grid, 0.0, u, d)


class Workspace:
    """The buffers one lane group's steps and checkpoint records write into.

    ``work(name, shape)`` is buffer ``name`` as a C-contiguous float array
    of ``shape`` starting on a cache line, made on first use (and remade
    larger when a larger shape is asked for) and reused by every later
    call.  A name holds one value from its writer to its last reader within
    a step or a record.
    :meth:`spare` is the flat scratch the operators carve their
    temporaries from (:func:`~selflow.operators.carve`); between the
    gradient of d and its last reader it holds that gradient.  ``"u"`` and
    ``"d"`` take the step's updates: :meth:`swap` hands them the spent
    time-n fields.
    """

    def __init__(self):
        self._bufs: dict[str, tuple[np.ndarray, dict]] = {}

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        flat, views = self._bufs.get(name, (None, None))
        view = None if views is None else views.get(shape)
        if view is None:
            size = math.prod(shape)
            if flat is None or flat.size < size:
                flat, views = aligned_empty((size,)), {}
                self._bufs[name] = flat, views
            view = views[shape] = flat[:size].reshape(shape)
        return view

    def spare(self, d: np.ndarray, least: int = 0) -> np.ndarray:
        """The flat scratch buffer, two directors ``d`` long, or ``least``
        when that is longer: room for the gradient of d, and for the
        temporaries of any one operator (the bounded Hilbert-Schmidt norm's
        mode stack may need more, its
        :meth:`~selflow.noise.NoiseOperatorS.hs_scratch`)."""
        return self("spare", (max(2 * d.size, least),))

    def swap(self, name: str, spent: np.ndarray) -> None:
        """Make the spent array ``spent`` buffer ``name``; the state's fields
        are aligned as the buffers are, so every buffer stays aligned."""
        self._bufs[name] = spent.reshape(-1), {}


def gl_force(d: np.ndarray, eps: float, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """Relaxation force (|d|^2 - 1) d / eps^2 (gradient of the penalty)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    sq, q, _ = ops.carve(tmp, d.shape, d.shape[:-3] + (1,) + d.shape[-2:])
    np.multiply(d, d, out=sq)
    np.sum(sq, axis=-3, keepdims=True, out=q)
    q -= 1.0
    return ops._divide(np.multiply(q, d, out=out), eps**2)


def penalty_density(d: np.ndarray, eps: float, out: np.ndarray | None = None,
                    tmp: np.ndarray | None = None) -> np.ndarray:
    """Penalty density (1 - |d|^2)^2 / (4 eps^2), pointwise nonnegative."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = ops.dot3(d, d, out=out, tmp=tmp)
    np.subtract(1.0, p, out=p)
    np.square(p, out=p)
    return ops._divide(p, 4.0 * eps**2)


def director_terms(d: np.ndarray, h: np.ndarray, grid: Grid, eps: float,
                   work: Workspace | None = None):
    """Time-n director terms (lap d, tau = lap d - f_eps(d), d x h,
    (d x h) x h), with the grid's director closure, in the buffers of
    ``work`` (a new workspace when it is None); f_eps(d) is built in tau's."""
    if work is None:
        work = Workspace()
    spare = work.spare(d)
    lap_d = ops.laplacian(d, grid, grid.bc_director, out=work("lap_d", d.shape), tmp=spare)
    tau = gl_force(d, eps, out=work("tau", d.shape), tmp=spare)
    np.subtract(lap_d, tau, out=tau)
    dxh = ops.cross(d, h, out=work("dxh", d.shape), tmp=spare)
    return lap_d, tau, dxh, ops.cross(dxh, h, out=work("dxhxh", d.shape), tmp=spare)


def budget_integrands(u: np.ndarray, lap_u: np.ndarray, d: np.ndarray, lap_d: np.ndarray,
                      tau: np.ndarray, dxh: np.ndarray, dxhxh: np.ndarray, grid: Grid,
                      S: NoiseOperatorS, params: Params, tmp: np.ndarray | None = None):
    """The four unscaled energy-budget integrands at one state, per path:
    ||grad u||^2, ||tau||^2, ||S(u)||_HS^2 (0.0 when xi1 = 0, where no
    noise term needs it; bounded grids project its modes to proj_tol) and
    <grad d, grad((d x h) x h)> + ||grad(d x h)||^2.

    Summation by parts is exact on periodic grids and under a neumann
    closure, so there the Dirichlet form of (d, (d x h) x h) is read off
    the Laplacian the caller holds, as -<lap d, (d x h) x h>; periodic
    grids read ||grad u||^2 = -<lap u, u> the same way.  Elsewhere the
    identity needs zero wall values, which a dirichlet director wall and a
    file velocity need not have: a dirichlet wall keeps the forward-link
    form of the Stratonovich term and reads no ``lap_d``, and bounded grids
    keep that of ||grad u||^2 and read no ``lap_u``.  The forms' products
    are built in the flat scratch ``tmp`` when it is given."""
    hs = S.hs_norm_sq(u, params.proj_tol, tmp=tmp) if params.xi1 != 0.0 else 0.0
    if grid.periodic:
        diss_u = -ops.pair_vec(lap_u, u, grid, tmp=tmp)
    else:
        diss_u = ops.dirichlet_form_vec(u, u, grid, tmp=tmp)
    if grid.bc_director == "dirichlet":
        strat = ops.dirichlet_form_vec(d, dxhxh, grid, tmp=tmp)
    else:
        strat = -ops.pair_vec(lap_d, dxhxh, grid, tmp=tmp)
    strat = strat + ops.dirichlet_form_vec(dxh, dxh, grid, tmp=tmp)
    return diss_u, ops.pair_vec(tau, tau, grid, tmp=tmp), hs, strat


def step_coupled(
    state: SimState,
    params: Params,
    S: NoiseOperatorS,
    h: np.ndarray,
    normals: np.ndarray,
    *,
    track_budget: bool = False,
    track_noise: bool = True,
    weak_tracker=None,
    track_invariants: bool = False,
    work: Workspace | None = None,
) -> SimState:
    """Advance the coupled state by one step (mutates and returns ``state``).

    Both updates read the time-n fields.  ``normals`` holds this step's N+1
    standard normals (N velocity modes, then the director motion), one row
    per path.  State arrays may carry a leading path axis, in which case the
    ledgers accumulate per path.  ``track_noise`` updates the two noise
    ledgers and ``track_budget`` the four time integrals.  ``weak_tracker``
    receives the per-step pairings when supplied; ``track_invariants``
    updates the monitor maxima in the ledgers.  A ``dirichlet`` director
    wall keeps its time-n values, which are those of the initial director.
    Every field is built in ``work`` (a new workspace when it is None),
    which keeps the replaced time-n arrays for the next step's update.
    """
    grid, dt = state.grid, params.dt
    u, d = state.u, state.d
    bc_u, bc_d = grid.bc_velocity, grid.bc_director
    if work is None:
        work = Workspace()
    spare = work.spare(d, S.hs_scratch(u.shape) if track_budget else 0)

    root = np.sqrt(dt)
    dB = root * normals[..., :S.n_modes]
    dW2 = root * normals[..., S.n_modes]

    # time-n pieces, each in its own buffer, the scratch carved from spare;
    # adv_u and adv_d are built in the buffers of the updates
    lap_d, tau, dxh, dxhxh = director_terms(d, h, grid, params.eps, work)
    adv_u = ops.advect_skew(u, u, grid, bc_u, out=work("u", u.shape), tmp=spare)
    lap_u = ops.laplacian(u, grid, bc_u, out=work("lap_u", u.shape), tmp=spare)
    if params.xi1 != 0.0:
        # unprojected mode mix; folded into the step projection below.
        # Pairings against divergence-free fields (u_n, the solenoidal test
        # functions) see the projected value up to proj_tol.
        noise_u = S.mix_increments(u, dB, out=work("noise", u.shape), tmp=spare)
        noise_u *= params.xi1
    else:
        noise_u = None
    # the central gradient of d, in spare, is shared between the reduced
    # stress force and the advection term; nothing else touches spare
    # until the advection term is built
    g_d = ops.gradient(d, grid, bc_d, out=work("spare", d.shape[:-2] + (2,) + d.shape[-2:]))
    # reduced stress force: sum over c of lap_d[c] grad d[c], added in
    # component order as a sum over that axis adds, each product made in
    # the director update's buffer before the advection term takes it
    adv_d = work("d", d.shape)
    term = adv_d[..., :2, :, :]
    sforce = np.multiply(lap_d[..., 0:1, :, :], g_d[..., 0, :, :, :], out=work("sforce", u.shape))
    for c in (1, 2):
        sforce += np.multiply(lap_d[..., c:c + 1, :, :], g_d[..., c, :, :, :], out=term)
    # director advection (u.grad)d; the y products overwrite the y half of
    # the gradient, its last read
    np.multiply(u[..., 0:1, :, :], g_d[..., 0, :, :], out=adv_d)
    g_dy = g_d[..., 1, :, :]
    g_dy *= u[..., 1:2, :, :]
    adv_d += g_dy

    # ledgers, all pairings against time-n fields
    led = state.ledgers
    if track_noise and noise_u is not None:
        led.noise_u = led.noise_u + ops.pair_vec(u, noise_u, grid, tmp=spare)
    if track_noise and params.xi2 != 0.0:
        led.noise_d = led.noise_d + params.gamma * ops.pair_vec(dxh, tau, grid, tmp=spare) * dW2
    if track_budget:
        diss_u, diss_d, hs, strat = budget_integrands(u, lap_u, d, lap_d, tau, dxh, dxhxh,
                                                      grid, S, params, tmp=spare)
        led.int_diss_u = led.int_diss_u + dt * diss_u
        led.int_diss_d = led.int_diss_d + dt * diss_d
        led.int_hs = led.int_hs + dt * 0.5 * params.xi1**2 * hs
        led.int_strat = led.int_strat + dt * 0.5 * strat
    if weak_tracker is not None:
        weak_tracker.accumulate(u, d, noise_u, dxh, dxhxh, dt, dW2)
    if track_invariants:
        ratio = (np.abs(ops.pair_vec(adv_u, u, grid, tmp=spare))
                 / (1.0 + np.sqrt(ops.pair_vec(u, u, grid, tmp=spare))**3))
        led.max_adv_ratio = np.maximum(led.max_adv_ratio, ratio)

    # updates, built in place on the spent time-n terms with the operations
    # and order of d + dt * (gamma tau - adv_d + 0.5 xi2^2 dxhxh) and
    # u + dt * (mu lap_u - adv_u - lam sforce) + noise_u; b - a is b + (-a)
    # in IEEE arithmetic, so these are the bits of -adv_d + gamma tau and
    # -adv_u + mu lap_u
    term, _ = ops.carve(spare, d.shape)
    d_new = np.subtract(np.multiply(params.gamma, tau, out=term), adv_d, out=adv_d)
    d_new += np.multiply(0.5 * params.xi2**2, dxhxh, out=term)
    d_new *= dt
    d_new += d
    if params.xi2 != 0.0:
        np.multiply(params.xi2, dxh, out=term)
        term *= np.asarray(dW2)[..., None, None, None]
        d_new += term
    if bc_d == "dirichlet":
        for wall in (np.s_[..., 0, :], np.s_[..., -1, :], np.s_[..., :, 0], np.s_[..., :, -1]):
            d_new[wall] = d[wall]

    term, _ = ops.carve(spare, u.shape)
    v = np.subtract(np.multiply(params.mu, lap_u, out=term), adv_u, out=adv_u)
    v -= np.multiply(params.lam, sforce, out=term)
    v *= dt
    v += u
    if noise_u is not None:
        v += noise_u
    # checked before the projection, which refuses non-finite input
    ok_u, ok_d, _ = ops.carve(spare, u.shape, d.shape, dtype=bool)
    if not (np.all(np.isfinite(v, out=ok_u)) and np.all(np.isfinite(d_new, out=ok_d))):
        raise BlowUpError(state.step, state.t)
    u_new = leray_project(v, grid, tol=params.proj_tol, out=v, tmp=spare)
    if track_invariants:
        led.max_divergence = np.maximum(led.max_divergence,
                                        interior_divergence_max(u_new, grid, tmp=spare))

    work.swap("u", u)
    work.swap("d", d)
    state.u, state.d = u_new, d_new
    state.t += dt
    state.step += 1
    return state
