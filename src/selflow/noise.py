"""Seeded Wiener drivers and the Hilbert-Schmidt noise operator.

The velocity noise is a truncated cylindrical Wiener process: N independent
Brownian modes B_i acting through a diagonal operator

    S(u)(e_i) = sigma0 * i^{-q} * P(psi_i u),

with P the Leray projection and psi_i smooth scalar shapes.  The director
noise uses one extra scalar Brownian motion.  The driver is counter-based
(Philox) and keyed only by (seed, n_modes), so increment streams are
bit-identical across eps and grid choices; that is what makes coupled
eps-sweeps meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from . import operators as ops
from .grids import LANE_NODES, Grid
from .projection import PROJ_TOL, bounded_scratch, leray_project, spectral_table

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


class NoiseOperatorS:
    """Diagonal Hilbert-Schmidt noise operator, immutable and shareable.

    Lipschitz continuity and the linear-growth bound hold by construction:
    the projection is an L2 contraction, so

        sum_i ||S(u)(e_i)||^2 <= C (1 + ||u||^2)

    with C = 2 sigma0^2 sum i^{-2q} |psi_i|_inf^2.
    """

    def __init__(
        self,
        grid: Grid,
        n_modes: int = 8,
        sigma0: float = 1.0,
        q: float = 1.5,
        shapes: np.ndarray | None = None,
    ):
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if sigma0 < 0:
            raise ValueError("sigma0 must be nonnegative")
        self.grid = grid
        self.n_modes = int(n_modes)
        self.shapes = default_mode_shapes(grid, n_modes) if shapes is None else np.asarray(shapes, float)
        if self.shapes.shape != (n_modes, grid.nx, grid.ny):
            raise ValueError("shapes must have shape (N, nx, ny)")
        self.decay = float(sigma0) * np.arange(1, n_modes + 1, dtype=float) ** (-float(q))
        if grid.periodic:
            # sum_i decay_i^2 ||psi_i u||^2 = hx hy sum W |u|^2, with the
            # mode sum W folded once here
            self._fold_w = np.sum(self.decay[:, None, None] ** 2 * self.shapes**2, axis=0)
            # the shapes with the central divergence's 1/(2h) divisors folded
            # in, one array when the cells are square
            self._shapes_dx = self.shapes / (2.0 * grid.hx)
            self._shapes_dy = (self._shapes_dx if grid.hy == grid.hx
                               else self.shapes / (2.0 * grid.hy))

    def mix_increments(self, u: np.ndarray, dB: np.ndarray, out: np.ndarray | None = None,
                       tmp: np.ndarray | None = None) -> np.ndarray:
        """Mode sum sum_i dB_i sigma0 i^{-q} psi_i u BEFORE projection.

        By linearity, projecting this once equals summing the projected
        modes; the coupled stepper folds it into its own projection.

        The modes are accumulated one at a time in index order rather than
        contracted by BLAS, whose rounding depends on the number of leading
        lanes; so each lane of a batch mixes bit-identically to a lone path.
        The sum is written into ``out`` when it is given, and the mode sum
        and its terms are built in the flat scratch ``tmp`` when it is given.
        """
        dB = np.asarray(dB)
        if dB.shape[-1] != self.n_modes:
            raise ValueError(f"expected {self.n_modes} increments, got {dB.shape[-1]}")
        wts = (self.decay * dB)[..., None, None, :]
        plane = dB.shape[:-1] + self.shapes.shape[1:]
        mix, term, _ = ops.carve(tmp, plane, plane)
        np.multiply(wts[..., 0], self.shapes[0], out=mix)
        for i in range(1, self.n_modes):
            mix += np.multiply(wts[..., i], self.shapes[i], out=term)
        return np.multiply(mix[..., None, :, :], u, out=out)

    def hs_batch(self, shape: tuple) -> int:
        """Modes the bounded :meth:`hs_norm_sq` projects per call on a
        velocity of ``shape``: as many as fit ``LANE_NODES`` grid nodes of
        its lanes, at least 1 and at most N."""
        nodes = math.prod(shape[:-3]) * shape[-2] * shape[-1]
        return min(self.n_modes, max(1, LANE_NODES // nodes))

    def hs_scratch(self, shape: tuple) -> int:
        """Length of the flat scratch :meth:`hs_norm_sq` carves on a
        velocity of ``shape``: on bounded grids the mode stack and the
        projection's scratch for it, on periodic grids the products, one
        divergence and its spectrum."""
        lanes, (nx, ny) = math.prod(shape[:-3]), shape[-2:]
        if self.grid.periodic:
            return lanes * (3 * nx * ny + 2 * nx * (ny // 2 + 1))
        stack = (self.hs_batch(shape),) + tuple(shape)
        return math.prod(stack) + bounded_scratch(stack)

    def hs_norm_sq(self, u: np.ndarray, tol: float = PROJ_TOL, tmp: np.ndarray | None = None):
        """Squared Hilbert-Schmidt norm sum_i ||S(u)(e_i)||^2.

        Accepts a batched velocity (..., 2, nx, ny) and returns per-path
        values with the leading axes preserved.  Periodic grids take the
        full norm of the unprojected modes from the folded mode sum, then
        subtract each mode's gradient part by Parseval, clamping the total
        at 0; no projected field is built.  Per mode that is one central
        divergence of psi_i u, built from the pre-scaled shapes, and one
        forward transform (the weights are
        :func:`~selflow.projection.spectral_table`'s).  Bounded grids project
        each mode to the projection tolerance ``tol``, k = :meth:`hs_batch`
        modes per :func:`~selflow.projection.leray_project` call: each batch
        is one (k, ..., 2, nx, ny) stack, projected, squared, weighted and
        summed in place, its (mode, lane) sums added in mode order, so the
        total is bit-identical to one mode per call.  Either way the fields
        are made once per call, or carved from the flat scratch ``tmp``
        (:meth:`hs_scratch` long) when it is given.
        """
        grid = self.grid
        if not grid.periodic:
            # the projection writes into its input without a copy; the
            # square, weight and sum are the arithmetic of pair_vec(proj, proj)
            k = self.hs_batch(u.shape)
            stack, rest = ops.carve(tmp, (k,) + u.shape)
            weights = grid.quad_weights()
            total = 0.0
            for first in range(0, self.n_modes, k):
                modes = range(first, min(first + k, self.n_modes))
                v = stack[:len(modes)]
                for j, i in enumerate(modes):
                    np.multiply(self.shapes[i], u, out=v[j])
                    v[j] *= self.decay[i]
                leray_project(v, grid, tol=tol, out=v, tmp=rest)
                np.square(v, out=v)
                v *= weights
                for part in np.sum(v, axis=(-3, -2, -1)):
                    total = total + part
            return float(total) if u.ndim == 3 else total
        plane = u.shape[:-3] + u.shape[-2:]
        sq, div, rest = ops.carve(tmp, u.shape, plane)
        spec, _ = ops.carve(rest, plane[:-1] + (grid.ny // 2 + 1,), dtype=complex)
        np.multiply(u, u, out=sq)
        sq *= self._fold_w
        total = grid.hx * grid.hy * np.sum(sq, axis=(-3, -2, -1))
        weights = spectral_table(grid)[3]
        # sq is spent: its components hold each mode's two products, and
        # the x one then takes the y difference
        px, py = sq[..., 0, :, :], sq[..., 1, :, :]
        flat = spec.view(np.float64)  # real and imaginary parts side by side
        for i in range(self.n_modes):
            np.multiply(self._shapes_dx[i], u[..., 0, :, :], out=px)
            np.multiply(self._shapes_dy[i], u[..., 1, :, :], out=py)
            ops.central_difference(px, 0, out=div)
            div += ops.central_difference(py, 1, out=px)
            np.fft.rfft2(div, axes=(-2, -1), out=spec)
            np.square(flat, out=flat)
            flat *= weights
            total -= self.decay[i] ** 2 * np.sum(flat, axis=(-2, -1))
        total = np.maximum(total, 0.0)
        return float(total) if u.ndim == 3 else total
