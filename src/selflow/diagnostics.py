"""Verifiable identities: energy budget, pointwise algebra, multiplier
(Pohozaev-type) residuals, defect detection, stress pairings, weak-form
residuals, and the per-path record of the coupled relaxation-parameter
sweep.

All diagnostics are pure functions of their inputs; runs, ensembles and
the sweep itself are orchestrated in :mod:`selflow.ensemble`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .dynamics import Params, gl_force, penalty_density, strat_correction
from .fields import TestFunction
from .grids import Grid
from .noise import MagneticField, NoiseOperatorS
# simulate_path is unused here; perfbench's tracer test still looks up this alias
from .pathrun import PathSeries, simulate_path  # noqa: F401

__all__ = [
    "energy_budget_residual",
    "budget_residual_series",
    "triple_product_defects",
    "sphere_generator_drift",
    "ericksen_tensor",
    "traceless_stress",
    "stress_pairing",
    "WeakFormTracker",
    "PohozaevReport",
    "pohozaev_residual",
    "GeometryError",
    "local_energy",
    "DefectReport",
    "defect_detect",
    "default_defect_threshold",
    "SweepResult",
    "GronwallReport",
    "gronwall_bound_check",
]


class GeometryError(ValueError):
    """Ball not contained in the domain with the required margin."""


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------

def energy_budget_residual(series: PathSeries, params: Params, i_a: int = 0, i_b: int = -1) -> float:
    """Defect of the stochastic energy identity over [t_a, t_b].

    residual = [E(t_b) - E(t_a)]
             + mu * int ||grad u||^2 + lam*gamma * int ||lap d - f||^2
             - int hs - lam*xi2^2 * int strat_drift
             - dledger1 + (lam*xi2/gamma) * dledger2

    with the time integrals accumulated step-by-step by the stepper
    (left-endpoint rule).  In the continuum this vanishes identically; the
    discrete value measures the stepping error plus the realized-vs-mean
    quadratic variation of the noise.  The ledger2 coefficient follows from
    the chain rule applied to the discrete energy (ledger2 carries a factor
    gamma by its definition); signs are fixed by requiring the zero-noise
    reduction to balance exactly.  Read from :func:`budget_residual_series`:
    the residual over [t_a, t_b] is the difference of those from t = 0.
    """
    res = budget_residual_series(series, params)
    return float(res[i_b] - res[i_a])


def _plus_dissipated(x, int_diss_u, int_diss_d, params: Params):
    """x + mu * int ||grad u||^2 + lam*gamma * int ||lap d - f||^2, summed
    left to right: an energy term plus the energy dissipated up to then."""
    return x + params.mu * int_diss_u + params.lam * params.gamma * int_diss_d


def budget_residual_series(series: PathSeries, params: Params) -> np.ndarray:
    """Budget residual (see :func:`energy_budget_residual`) from t = 0 to
    each checkpoint."""
    c = series.columns

    def dacc(name):
        return c[name] - c[name][0]

    return (
        _plus_dissipated(dacc("total"), dacc("int_diss_u"), dacc("int_diss_d"), params)
        - dacc("int_hs")
        - params.lam * params.xi2**2 * dacc("int_strat")
        - dacc("ledger1")
        + (params.lam * params.xi2 / params.gamma) * dacc("ledger2")
    )


# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------

def triple_product_defects(d: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise defects of <(d x h) x h, d> = -|d x h|^2 and <d x h, d> = 0."""
    dxh = ops.cross(d, h)
    first = ops.dot3(ops.cross(dxh, h), d) + ops.dot3(dxh, dxh)
    second = ops.dot3(dxh, d)
    return first, second


def sphere_generator_drift(d: np.ndarray, h: np.ndarray, xi2: float = 1.0) -> np.ndarray:
    """Pointwise drift of |d|^2/2 for spatially constant d with u = 0:
    <d, strat correction> + 0.5 xi2^2 |d x h|^2.  Identically zero by the
    vector triple product."""
    dxh = ops.cross(d, h)
    return ops.dot3(d, strat_correction(d, h, xi2)) + 0.5 * xi2**2 * ops.dot3(dxh, dxh)


# ---------------------------------------------------------------------------
# stress pairings
# ---------------------------------------------------------------------------

def ericksen_tensor(d: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """Elastic stress tensor sigma_ij = <d_i d, d_j d>, shape (..., 2, 2, nx, ny)."""
    g = ops.gradient(d, grid, bc)  # (..., 3, 2, nx, ny)
    return np.sum(g[..., :, :, None, :, :] * g[..., :, None, :, :, :], axis=-5)


def traceless_stress(d: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """Traceless elastic stress, shape (..., 2, 2, nx, ny):

        0.5 * [[|d1 d|^2 - |d2 d|^2,  2 <d1 d, d2 d>],
               [2 <d1 d, d2 d>,       |d2 d|^2 - |d1 d|^2]]

    built from the Ericksen tensor sigma.  The (1,1) entry is stored as the
    negation of the (0,0) entry, so the pointwise trace is exactly zero.
    """
    sig = ericksen_tensor(d, grid, bc)
    t00 = 0.5 * (sig[..., 0, 0, :, :] - sig[..., 1, 1, :, :])
    t01 = sig[..., 0, 1, :, :]
    return np.stack([np.stack([t00, t01], axis=-3), np.stack([t01, -t00], axis=-3)], axis=-4)


def _pair_tensor(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Quadrature pairing of tensor fields: the sum of a * b * w over the last four axes."""
    return np.sum(a * b * w, axis=(-4, -3, -2, -1))


def stress_pairing(d: np.ndarray, grid: Grid, bc_d: str, phi: TestFunction):
    """<traceless stress(d), grad phi> by quadrature: a float for one
    director, one value per path when ``d`` carries leading path axes."""
    T = traceless_stress(d, grid, bc_d)
    pf = phi.field
    gphi = ops.gradient(pf.values, grid, pf.bc)  # (2, 2, nx, ny), [i, j] = d_j phi_i
    pairing = _pair_tensor(T, gphi, grid.quad_weights())
    return float(pairing) if pairing.ndim == 0 else pairing


# ---------------------------------------------------------------------------
# weak-form residuals
# ---------------------------------------------------------------------------

class WeakFormTracker:
    """Accumulates the time-integrated weak-form pairings of both equations
    against static test functions, including the realized stochastic
    integrals, so the residual of the weak formulation can be evaluated at
    any time along a path.

    At finite relaxation the |grad d|^2 d term of the limit equation is
    represented by -f_eps(d); the substitution is recorded in the residual
    keys ('penalty' component).
    """

    def __init__(self, grid: Grid, params: Params, u_tests=(), d_tests=()):
        self.grid = grid
        self.params = params
        self.u_tests = list(u_tests)
        self.d_tests = list(d_tests)
        self._u_pre = [self._precompute(tf.field) for tf in self.u_tests]
        self._d_pre = [self._precompute(tf.field) for tf in self.d_tests]
        self._w = grid.quad_weights()

    def _precompute(self, f):
        """(values, gradient, Laplacian) of one static test field."""
        return f.values, ops.gradient(f.values, self.grid, f.bc), ops.laplacian(f.values, self.grid, f.bc)

    def initialize(self, u0: np.ndarray, d0: np.ndarray) -> None:
        """Start from (u0, d0); a leading path axis makes every pairing and
        accumulator per path."""
        lanes = u0.shape[:-3]
        self.pair_u0 = [ops.pair_vec(u0, p[0], self.grid) for p in self._u_pre]
        self.pair_d0 = [ops.pair_vec(d0, p[0], self.grid) for p in self._d_pre]
        self.acc_u = np.zeros((len(self.u_tests),) + lanes)
        self.acc_d = np.zeros((len(self.d_tests),) + lanes)

    def lane(self, i: int) -> "WeakFormTracker":
        """The tracker of path ``i`` alone (shares the test-function data)."""
        out = copy.copy(self)
        out.pair_u0 = [v[i] for v in self.pair_u0]
        out.pair_d0 = [v[i] for v in self.pair_d0]
        out.acc_u, out.acc_d = self.acc_u[:, i], self.acc_d[:, i]
        return out

    def accumulate(self, u, d, noise_u, dxh, dxhxh, f, dt, dW2) -> None:
        p = self.params
        w = self._w
        g = self.grid
        if self.u_tests:
            # the traceless stress of the current d, shared across tests
            T = traceless_stress(d, g, g.bc_director)
        uu = u[..., :, None, :, :] * u[..., None, :, :, :]
        for k, (phi, gphi, lphi) in enumerate(self._u_pre):
            adv = _pair_tensor(uu, gphi, w)
            visc = p.mu * ops.pair_vec(u, lphi, g)
            stress = p.lam * _pair_tensor(T, gphi, w)
            self.acc_u[k] += dt * (adv + visc + stress)
            if noise_u is not None:
                self.acc_u[k] += ops.pair_vec(phi, noise_u, g)
        du = d[..., :, None, :, :] * u[..., None, :, :, :]
        for k, (psi, gpsi, lpsi) in enumerate(self._d_pre):
            adv = _pair_tensor(du, gpsi, w)
            lap = p.gamma * ops.pair_vec(d, lpsi, g)
            pen = p.gamma * ops.pair_vec(-f, psi, g)
            strat = 0.5 * p.xi2**2 * ops.pair_vec(dxhxh, psi, g)
            self.acc_d[k] += dt * (adv + lap + pen + strat)
            self.acc_d[k] += p.xi2 * ops.pair_vec(dxh, psi, g) * dW2

    def residual_u(self, u_now: np.ndarray) -> dict:
        return self._residual(self.u_tests, self._u_pre, self.pair_u0, self.acc_u, u_now)

    def residual_d(self, d_now: np.ndarray) -> dict:
        return self._residual(self.d_tests, self._d_pre, self.pair_d0, self.acc_d, d_now)

    def _residual(self, tests, pre, pair0, acc, now) -> dict:
        """{test name: <now, test> - <start, test> - accumulated pairings}."""
        return {tf.name: ops.pair_vec(now, pre[k][0], self.grid) - pair0[k] - acc[k]
                for k, tf in enumerate(tests)}


# ---------------------------------------------------------------------------
# multiplier (Pohozaev) residuals
# ---------------------------------------------------------------------------

X_CHOICES = ("radial", "x1", "shear")


def _check_radius(r: float, grid: Grid | None = None) -> None:
    """Refuse r <= 0 (or NaN) and, given a periodic grid, a radius beyond
    half the shorter period, where the wrapped ball overlaps itself."""
    if not r > 0.0:
        raise ValueError(f"ball radius must be > 0, got {r!r}")
    if grid is not None and grid.periodic and r > _half_period(grid):
        raise ValueError(f"ball radius {r!r} exceeds half the shorter period "
                         f"{_half_period(grid)!r} of the periodic grid")


def _half_period(grid: Grid) -> float:
    return 0.5 * min(grid.lx, grid.ly)


def _min_image(grid: Grid, dx, dy):
    """Displacements (dx, dy), wrapped to the nearest image on periodic grids."""
    if grid.periodic:
        dx = dx - grid.lx * np.round(dx / grid.lx)
        dy = dy - grid.ly * np.round(dy / grid.ly)
    return dx, dy


def _ball_weights(grid: Grid, center, r: float, sub: int = 8) -> np.ndarray:
    """Inclusion weights of the ball B_r(center) on node-centered cells.

    Cells well inside / outside get weight 1 / 0; cells cut by the circle
    get the sampled area fraction (sub x sub subsamples).  Plain cell-center
    inclusion makes the multiplier residual oscillate at O(h) with grid
    alignment; the area fractions restore a clean decay.
    """
    x0, y0 = center
    X, Y = grid.meshgrid()
    dx, dy = _min_image(grid, X - x0, Y - y0)
    dist = np.hypot(dx, dy)
    half_diag = 0.5 * np.hypot(grid.hx, grid.hy)
    w = (dist <= r).astype(float)
    band = np.abs(dist - r) <= half_diag
    if np.any(band):
        off = (np.arange(sub) + 0.5) / sub - 0.5
        ox, oy = np.meshgrid(off * grid.hx, off * grid.hy, indexing="ij")
        bx = dx[band][:, None] + ox.ravel()[None, :]
        by = dy[band][:, None] + oy.ravel()[None, :]
        w[band] = np.mean(bx**2 + by**2 <= r**2, axis=1)
    return w


def _bilinear(values: np.ndarray, grid: Grid, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of (..., nx, ny) samples at interior points."""
    fx = px / grid.hx
    fy = py / grid.hy
    ix = np.clip(np.floor(fx).astype(int), 0, grid.nx - 2)
    iy = np.clip(np.floor(fy).astype(int), 0, grid.ny - 2)
    tx = fx - ix
    ty = fy - iy
    v00 = values[..., ix, iy]
    v10 = values[..., ix + 1, iy]
    v01 = values[..., ix, iy + 1]
    v11 = values[..., ix + 1, iy + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


@dataclass
class PohozaevReport:
    """Every term of the multiplier identity on B_r(center):

        boundary_kinetic + bulk_stress + bulk_div + boundary_energy = rhs

    boundary_kinetic = int_{dB} <X.grad d, nu.grad d>,
    bulk_stress      = -int_B <grad d (x) grad d, grad X>,
    bulk_div         =  int_B div X * e_eps,
    boundary_energy  = -int_{dB} e_eps <X, nu>,
    rhs              =  int_B <X.grad d, lap d - f_eps(d)>.
    """

    center: tuple[float, float]
    r: float
    choice: str
    boundary_kinetic: float
    bulk_stress: float
    bulk_div: float
    boundary_energy: float
    rhs: float
    residual: float


def _x_field(choice: str, px: np.ndarray, py: np.ndarray, center) -> tuple[np.ndarray, np.ndarray]:
    x0, y0 = center
    if choice == "radial":
        return px - x0, py - y0
    if choice == "x1":
        return px - x0, np.zeros_like(py)
    if choice == "shear":
        return np.zeros_like(px), px - x0
    raise ValueError(f"X choice must be one of {X_CHOICES}")


def pohozaev_residual(
    d: np.ndarray,
    grid: Grid,
    eps: float,
    center: tuple[float, float],
    r: float,
    choice: str = "radial",
    bc: str | None = None,
    n_theta: int | None = None,
) -> PohozaevReport:
    """Evaluate the multiplier identity on B_r(center) for one X choice.

    Bulk integrals use cell inclusion with area fractions on the cut cells;
    the circle integrals use the midpoint rule with bilinearly interpolated
    fields.  The elliptic residual tau = lap d - f_eps(d) is built from the
    same discrete operators as everything else, so the report's residual is
    pure discretization defect, decaying at first order or better under
    refinement.
    """
    _check_radius(r)
    if bc is None:
        bc = grid.bc_director
    x0, y0 = center
    if not grid.contains_ball(x0, y0, r, margin_cells=1):
        raise GeometryError(f"ball B_{r}({x0}, {y0}) not inside the domain with margin")

    g = ops.gradient(d, grid, bc)  # (3, 2, nx, ny)
    e_density = _energy_density(d, grid, eps, bc)
    tau = ops.laplacian(d, grid, bc) - gl_force(d, eps)

    w = grid.quad_weights() * _ball_weights(grid, (x0, y0), r)

    X, Y = grid.meshgrid()
    Xf1, Xf2 = _x_field(choice, X, Y, center)
    xdotgrad = Xf1 * g[:, 0] + Xf2 * g[:, 1]  # (3, nx, ny)

    sigma = ericksen_tensor(d, grid, bc)
    grad_x = {"radial": np.eye(2), "x1": np.array([[1.0, 0.0], [0.0, 0.0]]),
              "shear": np.array([[0.0, 0.0], [1.0, 0.0]])}[choice]
    div_x = float(np.trace(grad_x))

    bulk_stress = -float(np.sum(sigma * grad_x[:, :, None, None] * w))
    bulk_div = div_x * float(np.sum(e_density * w))
    rhs = float(np.sum(ops.dot3(xdotgrad, tau) * w))

    if n_theta is None:
        n_theta = max(64, int(np.ceil(2.0 * np.pi * r / min(grid.hx, grid.hy))))
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    px = x0 + r * np.cos(theta)
    py = y0 + r * np.sin(theta)
    nu1, nu2 = np.cos(theta), np.sin(theta)
    g_c = _bilinear(g, grid, px, py)  # (3, 2, n_theta)
    e_c = _bilinear(e_density, grid, px, py)
    Xc1, Xc2 = _x_field(choice, px, py, center)
    xg = Xc1 * g_c[:, 0] + Xc2 * g_c[:, 1]
    ng = nu1 * g_c[:, 0] + nu2 * g_c[:, 1]
    darc = r * (2.0 * np.pi / n_theta)
    boundary_kinetic = float(np.sum(np.sum(xg * ng, axis=0)) * darc)
    boundary_energy = -float(np.sum(e_c * (Xc1 * nu1 + Xc2 * nu2)) * darc)

    residual = boundary_kinetic + bulk_stress + bulk_div + boundary_energy - rhs
    return PohozaevReport(
        center=(x0, y0),
        r=r,
        choice=choice,
        boundary_kinetic=boundary_kinetic,
        bulk_stress=bulk_stress,
        bulk_div=bulk_div,
        boundary_energy=boundary_energy,
        rhs=rhs,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# local energy and defect detection
# ---------------------------------------------------------------------------

def _energy_density(d: np.ndarray, grid: Grid, eps: float, bc: str) -> np.ndarray:
    g = ops.gradient(d, grid, bc)
    return 0.5 * np.sum(g * g, axis=(-4, -3)) + penalty_density(d, eps)


def _wrapped_dist_sq(grid: Grid, x0: float, y0: float) -> np.ndarray:
    X, Y = grid.meshgrid()
    dx, dy = _min_image(grid, X - x0, Y - y0)
    return dx**2 + dy**2


def local_energy(
    d: np.ndarray, grid: Grid, eps: float, center: tuple[float, float], r: float,
    bc: str | None = None,
) -> float:
    """Relaxation energy 0.5 |grad d|^2 + F_eps integrated over the discrete
    ball (cell-center inclusion; periodic distance on the torus, where r
    may reach half the shorter period)."""
    _check_radius(r, grid)
    if bc is None:
        bc = grid.bc_director
    e = _energy_density(d, grid, eps, bc)
    mask = _wrapped_dist_sq(grid, *center) <= r**2
    return float(np.sum(e * grid.quad_weights() * mask))


# nodes per verify chunk of the defect scan: bounds the candidates' masks
# and their product with the energy to about 1 MB
_VERIFY_NODES = 2**17


def _ball_energy_bound(e_w: np.ndarray, grid: Grid, r: float) -> np.ndarray:
    """Upper bound, at every node, on the weighted energy of the ball of
    radius r centered there: the circular convolution of ``e_w`` >= 0 with
    the disk kernel K of lattice offsets min(k, n - k) h whose length is at
    most r + 1e-9 max(lx, ly).

    A node of the ball at lattice offset (a, b) from its center falls on
    kernel index (a mod nx, b mod ny), whose offset is no longer, so the
    kernel holds it.  On bounded grids the circular sum also counts nodes
    across the opposite wall, which only adds nonnegative terms.  The
    inflation covers the rounding of the node coordinates (about 1e-16 l)
    in the exact predicate.  A non-finite e_w gives a NaN bound, quietly.
    """
    ox = np.minimum(np.arange(grid.nx), grid.nx - np.arange(grid.nx)) * grid.hx
    oy = np.minimum(np.arange(grid.ny), grid.ny - np.arange(grid.ny)) * grid.hy
    rk = r + 1e-9 * max(grid.lx, grid.ly)
    kernel = (ox[:, None] ** 2 + oy[None, :] ** 2 <= rk * rk).astype(float)
    with np.errstate(invalid="ignore"):
        return np.fft.irfft2(np.fft.rfft2(e_w) * np.fft.rfft2(kernel), s=e_w.shape)


def _bound_margin(e_w: np.ndarray) -> float:
    """Rounding margin of :func:`_ball_energy_bound`: 1e-9 sum(e_w), plus
    the smallest normal float, as the FFT does not keep subnormal values."""
    return 1e-9 * float(np.sum(e_w)) + np.finfo(float).tiny


def _window(centers: np.ndarray, n: int, half: int, periodic: bool) -> np.ndarray:
    """Node indices along one axis, shape (len(centers), width), of a window
    around each center holding every node within ``half`` cells of it (all
    n nodes when the window would wrap onto itself)."""
    if 2 * half + 1 >= n:
        return np.broadcast_to(np.arange(n), (len(centers), n))
    idx = centers[:, None] + np.arange(-half, half + 1)
    return idx % n if periodic else np.clip(idx, 0, n - 1)


def _exact_ball_energies(e_w: np.ndarray, grid: Grid, r: float,
                         ci: np.ndarray, cj: np.ndarray) -> np.ndarray:
    """sum(e_w * mask) of each center (x[ci], y[cj]), mask the predicate
    ``_wrapped_dist_sq <= r**2``, evaluated on a window around the center
    and written into a zeroed full-size row.

    Each row sum is the same pairwise summation over the same full-length
    array as np.sum(e_w * mask), so energies, threshold tests and tie order
    match the per-center definition bit for bit.  A sum over the in-ball
    nodes only would reorder exact ties of symmetric fields.
    """
    xs, ys = grid.x, grid.y
    wi = _window(ci, grid.nx, int(r / grid.hx) + 1, grid.periodic)
    wj = _window(cj, grid.ny, int(r / grid.hy) + 1, grid.periodic)
    flat = e_w.ravel()
    out = np.empty(len(ci))
    step = max(1, _VERIFY_NODES // flat.size)
    for c in range(0, len(ci), step):
        sl = slice(c, c + step)
        dx, dy = _min_image(grid, xs[wi[sl]] - xs[ci[sl], None], ys[wj[sl]] - ys[cj[sl], None])
        m = len(dx)
        masks = np.zeros((m, grid.nx, grid.ny), dtype=bool)
        masks[np.arange(m)[:, None, None], wi[sl, :, None], wj[sl, None, :]] = (
            dx[:, :, None] ** 2 + dy[:, None, :] ** 2 <= r**2)
        out[sl] = np.sum(flat * masks.reshape(m, -1), axis=1)
    return out


@dataclass
class DefectReport:
    """Candidate concentration set: scan centers whose local energy on a
    ball of radius r exceeds the threshold, merged over overlaps.  At fixed
    relaxation parameter the set is a finite-eps proxy for the limit
    concentration set, not the limit object itself."""

    r: float
    delta0_sq: float
    centers: list[tuple[float, float, float]] = field(default_factory=list)  # (x, y, energy)

    @property
    def count(self) -> int:
        return len(self.centers)


def defect_detect(
    d: np.ndarray,
    grid: Grid,
    eps: float,
    r: float,
    delta0_sq: float,
    bc: str | None = None,
    stride: int = 2,
) -> DefectReport:
    """Scan a coarse lattice of centers (every stride-th node; on bounded
    grids only those whose ball fits inside the domain), flag local
    energies above the threshold, and merge overlapping hits by greedy
    non-maximum suppression (deterministic; larger thresholds give
    subsets).  On periodic grids r may reach half the shorter period; on
    bounded grids a radius that no scan center holds is a GeometryError.

    Bound, then verify.  The weighted energy density e_w is nonnegative, so
    one FFT convolution with a slightly inflated disk kernel bounds the
    energy of every ball from above (:func:`_ball_energy_bound`).  A center
    whose bound plus the rounding margin 1e-9 sum(e_w) (at least the
    smallest normal float) is at most ``delta0_sq`` cannot be a hit and is
    skipped; the margin covers the FFT's rounding error, measured below
    1e-15 sum(e_w) per entry up to 128^2 at half a period, and the
    subnormal values the FFT drops.  Every other center (a NaN bound
    included) is summed exactly by :func:`_exact_ball_energies`, so the
    result is the per-center definition's bit for bit.  The scan keeps no
    state between calls.
    """
    _check_radius(r, grid)
    if bc is None:
        bc = grid.bc_director
    ci, cj = (a.ravel() for a in np.meshgrid(np.arange(0, grid.nx, stride),
                                             np.arange(0, grid.ny, stride), indexing="ij"))
    if not grid.periodic:
        held = grid.contains_ball(grid.x[ci], grid.y[cj], r, margin_cells=0)
        ci, cj = ci[held], cj[held]
        if not ci.size:
            raise GeometryError(f"no scan center (stride {stride}) holds a ball of "
                                f"radius {r!r} inside the bounded domain")
    e_w = _energy_density(d, grid, eps, bc) * grid.quad_weights()
    bound = _ball_energy_bound(e_w, grid, r)[ci, cj]
    cand = np.flatnonzero(~(bound + _bound_margin(e_w) <= delta0_sq))
    energies = _exact_ball_energies(e_w, grid, r, ci[cand], cj[cand])

    # greedy suppression: the strongest hit left (ties by x, then y) is a
    # center, and every hit within 2r of it is dropped
    hit = energies > delta0_sq
    e, x, y = energies[hit], grid.x[ci[cand][hit]], grid.y[cj[cand][hit]]
    order = np.lexsort((y, x, -e))
    e, x, y = e[order], x[order], y[order]
    alive = np.ones(e.size, dtype=bool)
    centers: list[tuple[float, float, float]] = []
    for k in range(e.size):
        if alive[k]:
            centers.append((float(x[k]), float(y[k]), float(e[k])))
            dx, dy = _min_image(grid, x - x[k], y - y[k])
            alive &= dx * dx + dy * dy > (2.0 * r) ** 2
    return DefectReport(r=r, delta0_sq=delta0_sq, centers=centers)


def default_defect_radius(grid: Grid) -> float:
    """Default defect-scan radius: 8h, capped on periodic grids at half the
    shorter period (the largest ball that does not overlap itself), and on
    bounded grids at the largest radius whose ball some center of the
    default scan (stride 2) holds inside the domain."""
    r = 8.0 * max(grid.hx, grid.hy)
    if grid.periodic:
        return min(r, _half_period(grid))
    xs, ys = grid.x[::2], grid.y[::2]
    return min(r, float(np.max(np.minimum(xs, grid.lx - xs))),
               float(np.max(np.minimum(ys, grid.ly - ys))))


def default_defect_threshold(grid: Grid, eps: float, r: float | None = None) -> float:
    """Default concentration threshold: 0.3 times the local energy of an
    isolated synthetic vortex (core two cells wide) on a ball of radius r,
    :func:`default_defect_radius` when it is None.  The threshold scale is
    a calibration choice, config-overridable."""
    from .initial import vortex_director

    h = max(grid.hx, grid.hy)
    if r is None:
        r = default_defect_radius(grid)
    x0, y0 = 0.5 * grid.lx, 0.5 * grid.ly
    ref = vortex_director(grid, x0, y0, core=2.0 * h)
    return 0.3 * local_energy(ref, grid, eps, (x0, y0), r, bc="neumann")


# ---------------------------------------------------------------------------
# coupled relaxation-parameter sweep record
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Per-eps, per-checkpoint observables of a shared-noise sweep, plus the
    Cauchy differences of the stress pairings between consecutive eps."""

    eps_list: list[float]
    times: np.ndarray
    phi_names: list[str]
    penalty: np.ndarray        # (n_eps, n_check)
    dev_norm: np.ndarray       # (n_eps, n_check)  || |d|^2 - 1 ||
    defect_count: np.ndarray   # (n_eps, n_check)
    pairings: np.ndarray       # (n_eps, n_check, n_phi)
    sup_penalty: np.ndarray    # (n_eps,)

    def cauchy(self, i_check: int = -1) -> np.ndarray:
        """|pairing(eps_k) - pairing(eps_{k+1})| at one checkpoint,
        shape (n_eps - 1, n_phi)."""
        p = self.pairings[:, i_check, :]
        return np.abs(np.diff(p, axis=0))


# ---------------------------------------------------------------------------
# expectation-level growth check
# ---------------------------------------------------------------------------

@dataclass
class GronwallReport:
    t_half: float
    t_full: float
    mean_half: float
    mean_full: float
    se_half: float
    se_full: float
    growth_rate_bound: float
    growth_ok: bool
    second_moment: float
    second_moment_half_sample: float
    second_moment_stable: bool


def gronwall_bound_check(
    series_list: list[PathSeries], params: Params, S: NoiseOperatorS, h: MagneticField
) -> GronwallReport:
    """Sample-level check of the exponential-in-time energy bound.

    Per path X(T) = sup_{t<=T} total + mu*int||grad u||^2 + lam*gamma*int
    ||lap d - f||^2 must stay finite; the growth comparison between T/2 and
    T applies to the sup-energy alone (the dissipation integral grows even
    without noise), against the rate C computed from the noise constants
    (linear-growth constant of the noise operator and the magnetic field
    bound).  The p = 2 sample moment is checked finite and stable under
    halving the path count.
    """
    M = len(series_list)
    if M < 2:
        raise ValueError("need at least 2 paths")
    t = series_list[0].columns["t"]
    i_half = int(np.searchsorted(t, t[-1] / 2.0))
    i_half = min(max(i_half, 1), len(t) - 1)

    def path_quantity(s: PathSeries, i_end: int) -> float:
        c = s.columns
        sup = float(np.max(c["total"][: i_end + 1]))
        return float(_plus_dissipated(sup, c["int_diss_u"][i_end], c["int_diss_d"][i_end], params))

    x_half = np.array([path_quantity(s, i_half) for s in series_list])
    x_full = np.array([path_quantity(s, len(t) - 1) for s in series_list])
    sup_half = np.array([float(np.max(s.columns["total"][: i_half + 1])) for s in series_list])
    sup_full = np.array([float(np.max(s.columns["total"])) for s in series_list])
    m_half, m_full = float(x_half.mean()), float(x_full.mean())
    se_half = float(x_half.std(ddof=1) / np.sqrt(M))
    se_full = float(x_full.std(ddof=1) / np.sqrt(M))

    c_rate = 0.5 * params.xi1**2 * S.linear_growth_constant() + 2.0 * params.lam * params.xi2**2 * h.max_abs**2 + 1.0
    dt_gap = float(t[-1] - t[i_half])
    ms_half, ms_full = float(sup_half.mean()), float(sup_full.mean())
    slack = 3.0 * (
        float(sup_full.std(ddof=1) / np.sqrt(M)) / max(ms_full, 1e-300)
        + float(sup_half.std(ddof=1) / np.sqrt(M)) / max(ms_half, 1e-300)
    )
    growth_ok = bool(
        np.isfinite(m_full)
        and np.log(max(ms_full, 1e-300) / max(ms_half, 1e-300)) <= c_rate * dt_gap + slack
    )

    m2 = float(np.mean(x_full**2))
    m2_half_sample = float(np.mean(x_full[: M // 2] ** 2))
    m2_stable = bool(0.5 <= (m2_half_sample + 1e-300) / (m2 + 1e-300) <= 2.0)
    return GronwallReport(
        t_half=float(t[i_half]),
        t_full=float(t[-1]),
        mean_half=m_half,
        mean_full=m_full,
        se_half=se_half,
        se_full=se_full,
        growth_rate_bound=c_rate,
        growth_ok=growth_ok,
        second_moment=m2,
        second_moment_half_sample=m2_half_sample,
        second_moment_stable=m2_stable,
    )
