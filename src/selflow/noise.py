"""Seeded Wiener drivers, the Hilbert-Schmidt noise operator, and the
magnetic field.

The velocity noise is a truncated cylindrical Wiener process: N independent
Brownian modes B_i acting through a diagonal operator

    S(u)(e_i) = sigma0 * i^{-q} * P(psi_i u + g_i),

with P the Leray projection, psi_i smooth scalar shapes and g_i optional
divergence-free additive seeds.  The director noise uses one extra scalar
Brownian motion.  The driver is counter-based (Philox) and keyed only by
(seed, n_modes), so increment streams are bit-identical across eps and grid
choices; that is what makes coupled eps-sweeps meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .grids import Grid
from .projection import PROJ_TOL, gradient_norm_sq, leray_project

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def split_seed(base_seed: int, index: int) -> int:
    """Derive the seed of path ``index`` from ``base_seed`` (splitmix64 mix).

    Distinct indices give distinct, decorrelated 64-bit seeds without any
    coordination between paths.
    """
    with np.errstate(over="ignore"):
        z = np.uint64(base_seed & 0xFFFFFFFFFFFFFFFF) + _SPLITMIX_GAMMA * np.uint64(index + 1)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return int(z)


class WienerDriver:
    """Increment source for the N velocity modes and the director motion.

    One driver owns one path: a Philox stream keyed by the seed, read as
    rows of N+1 standard normals.  Increments are the normals scaled by
    sqrt(dt), so the stream position is dt-independent and two runs with the
    same (seed, n_modes) see bit-identical noise regardless of grid or eps.
    """

    def __init__(self, seed: int, n_modes: int):
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        self.seed = int(seed)
        self.n_modes = int(n_modes)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def normal_table(self, n_steps: int) -> np.ndarray:
        """The next (n_steps, N+1) standard normals of the stream.  Reads
        continue one another, so the rows do not depend on how they are
        chunked."""
        return self._gen.standard_normal((n_steps, self.n_modes + 1))


def coarsen_normals(table: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate a fine-step standard-normal table onto a step ``factor``
    times coarser, preserving the underlying Brownian path: normals sum in
    blocks and rescale by 1/sqrt(factor) (increments scale by sqrt(dt))."""
    n = table.shape[0]
    if n % factor:
        raise ValueError("table length must be divisible by the coarsening factor")
    out = table.reshape(n // factor, factor, table.shape[1]).sum(axis=1)
    return out / np.sqrt(factor)


@dataclass
class MagneticField:
    """External field h acting on the director, bounded with bounded first
    differences (a discrete stand-in for H^2 regularity)."""

    grid: Grid
    values: np.ndarray

    @classmethod
    def constant(cls, grid: Grid, h: tuple[float, float, float]) -> "MagneticField":
        vals = np.zeros((3, grid.nx, grid.ny))
        vals[0], vals[1], vals[2] = h
        return cls(grid, vals)

    @classmethod
    def wave(cls, grid: Grid, amps: tuple[float, float, float]) -> "MagneticField":
        """Smooth non-constant field: a spatially varying h makes the
        director-noise ledger a genuine (non-degenerate) martingale, since
        with constant h the integral of <d x h, lap d> vanishes identically.
        """
        X, Y = grid.meshgrid()
        ax, ay = 2.0 * np.pi / grid.lx, 2.0 * np.pi / grid.ly
        a, b, c = amps
        vals = np.stack(
            [
                a * np.cos(ax * X) * np.cos(ay * Y),
                b * np.sin(ax * X + 0.5),
                c * (1.0 + 0.5 * np.sin(ax * X) * np.sin(ay * Y)),
            ]
        )
        return cls(grid, vals)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=0)))


def default_mode_shapes(grid: Grid, n_modes: int) -> np.ndarray:
    """Smooth scalar shapes psi_i, shape (N, nx, ny).

    Bounded domains use cos(i pi x/lx) cos(i pi y/ly); periodic grids use the
    periodized frequencies 2 pi i / l so the shapes stay smooth across the
    seam (the mode shapes are an implementation choice, not constrained
    beyond smoothness).
    """
    X, Y = grid.meshgrid()
    idx = np.arange(1, n_modes + 1)
    if grid.periodic:
        ax = 2.0 * np.pi * idx / grid.lx
        ay = 2.0 * np.pi * idx / grid.ly
    else:
        ax = np.pi * idx / grid.lx
        ay = np.pi * idx / grid.ly
    return np.cos(ax[:, None, None] * X) * np.cos(ay[:, None, None] * Y)


def _mode_sum(wts: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i wts[..., i] * stack[i], accumulated in index order."""
    w = wts.reshape(wts.shape[:-1] + (1,) * (stack.ndim - 1) + wts.shape[-1:])
    out = w[..., 0] * stack[0]
    for i in range(1, len(stack)):
        out += w[..., i] * stack[i]
    return out


class NoiseOperatorS:
    """Diagonal Hilbert-Schmidt noise operator, immutable and shareable.

    Lipschitz continuity and the linear-growth bound hold by construction:
    the projection is an L2 contraction, so

        sum_i ||S(u)(e_i)||^2 <= C (1 + ||u||^2)

    with C = 2 sigma0^2 max(sum i^{-2q} |psi_i|_inf^2, sum i^{-2q} ||g_i||^2).
    """

    def __init__(
        self,
        grid: Grid,
        n_modes: int = 8,
        sigma0: float = 1.0,
        q: float = 1.5,
        shapes: np.ndarray | None = None,
        additive: np.ndarray | None = None,
        proj_tol: float = PROJ_TOL,
    ):
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if sigma0 < 0:
            raise ValueError("sigma0 must be nonnegative")
        self.grid = grid
        self.n_modes = int(n_modes)
        self.sigma0 = float(sigma0)
        self.q = float(q)
        self.proj_tol = proj_tol
        self.shapes = default_mode_shapes(grid, n_modes) if shapes is None else np.asarray(shapes, float)
        if self.shapes.shape != (n_modes, grid.nx, grid.ny):
            raise ValueError("shapes must have shape (N, nx, ny)")
        if additive is None:
            additive = np.zeros((n_modes, 2, grid.nx, grid.ny))
        self.additive = np.asarray(additive, float)
        if self.additive.shape != (n_modes, 2, grid.nx, grid.ny):
            raise ValueError("additive seeds must have shape (N, 2, nx, ny)")
        self._has_additive = bool(np.any(self.additive))
        self.decay = self.sigma0 * np.arange(1, n_modes + 1, dtype=float) ** (-self.q)
        if grid.periodic:
            # sum_i decay_i^2 ||psi_i u + g_i||^2 = hx hy (sum W |u|^2
            # + 2 sum G . u) + c, with the mode sums folded once here
            wsq = self.decay**2
            self._fold_w = np.sum(wsq[:, None, None] * self.shapes**2, axis=0)
            self._fold_g = np.sum(
                wsq[:, None, None, None] * self.shapes[:, None] * self.additive, axis=0)
            self._fold_c = grid.hx * grid.hy * float(
                np.sum(wsq * np.sum(self.additive**2, axis=(-3, -2, -1))))

    def mix_increments(self, u: np.ndarray, dB: np.ndarray) -> np.ndarray:
        """Mode sum sum_i dB_i sigma0 i^{-q} (psi_i u + g_i) BEFORE projection.

        By linearity, projecting this once equals summing the projected
        modes; the coupled stepper folds it into its own projection.

        The modes are accumulated one at a time in index order rather than
        contracted by BLAS, whose rounding depends on the number of leading
        lanes; so each lane of a batch mixes bit-identically to a lone path.
        """
        dB = np.asarray(dB)
        if dB.shape[-1] != self.n_modes:
            raise ValueError(f"expected {self.n_modes} increments, got {dB.shape[-1]}")
        wts = self.decay * dB
        mix = _mode_sum(wts, self.shapes)[..., None, :, :] * u
        if self._has_additive:
            mix = mix + _mode_sum(wts, self.additive)
        return mix

    def hs_norm_sq(self, u: np.ndarray):
        """Squared Hilbert-Schmidt norm sum_i ||S(u)(e_i)||^2.

        Accepts a batched velocity (..., 2, nx, ny) and returns per-path
        values with the leading axes preserved.  Periodic grids take the
        full norm of the unprojected modes from the folded mode sums, then
        subtract each mode's gradient part by Parseval
        (:func:`gradient_norm_sq`), clamping the total at 0; no projected
        field is built.  Bounded grids project each mode.
        """
        grid = self.grid
        if grid.periodic:
            axes = (-3, -2, -1)
            sq = u * u
            sq *= self._fold_w
            full = np.sum(sq, axis=axes)
            if self._has_additive:
                full = full + 2.0 * np.sum(self._fold_g * u, axis=axes)
            total = grid.hx * grid.hy * full + self._fold_c
        else:
            total = 0.0
        for i in range(self.n_modes):
            v = self.shapes[i] * u
            if self._has_additive:
                v += self.additive[i]
            if grid.periodic:
                total = total - self.decay[i] ** 2 * gradient_norm_sq(v, grid)
            else:
                v *= self.decay[i]
                proj = leray_project(v, grid, tol=self.proj_tol)
                total = total + ops.pair_vec(proj, proj, grid)
        if grid.periodic:
            total = np.maximum(total, 0.0)
        return float(total) if u.ndim == 3 else total

    def linear_growth_constant(self) -> float:
        """C with hs_norm_sq(u) <= C (1 + ||u||^2) for every u."""
        wsq = self.decay**2
        shape_part = float(np.sum(wsq * np.max(np.abs(self.shapes), axis=(-2, -1)) ** 2))
        w = self.grid.quad_weights()
        add_part = float(np.sum(wsq * np.sum(self.additive**2 * w, axis=(-3, -2, -1))))
        return 2.0 * max(shape_part, add_part, 1e-300)
