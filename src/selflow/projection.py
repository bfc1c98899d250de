"""Leray projection onto discretely divergence-free fields.

The projection removes the central-difference divergence: it solves the
composite pressure Poisson problem L p = div v where L = div(grad(.)) is the
*wide* Laplacian (central differences applied twice), so that u = v - grad p
satisfies div u = 0 in the same discrete sense that :func:`divergence`
measures.  Using the compact 5-point stencil here instead would leave an
O(h^2) divergence floor.

:func:`leray_project` returns u alone; no caller needs the pressure.
Periodic grids solve the system directly and exactly in Fourier space with
modified wavenumbers, and :func:`gradient_norm_sq` evaluates
||(I - P) v||^2 by Parseval without building P v.  Bounded (no-slip) grids
solve the interior system with a homogeneous-Neumann pressure closure as a
minimum-norm solve through the factorized Gram matrix A A^T, with
iterative refinement, over all leading axes of the field at once; only the
interior divergence is controllable there because the boundary rows use
one-sided stencils.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid
from .operators import divergence, interior_divergence

PROJ_TOL = 1e-10


class ProjectionError(RuntimeError):
    """Pressure solve failed to reach the requested divergence tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved residual {achieved:.3e})")
        self.achieved = achieved


def _spectral_table(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(s1, s2, 1/|s|^2, w) on the rfft2 half spectrum, lined up with the
    float view of a spectrum: s1 keeps its (nx, 1) column, the others are
    repeated for the real and the imaginary part.

    s1, s2 are the modified wavenumbers of the central difference, 0 on the
    Nyquist columns (exact kernel modes).  w are the Parseval weights
    hx hy / (nx ny) / |s|^2, doubled on every column but 0 and the y-Nyquist
    column (whose conjugate partners rfft2 omits).  1/|s|^2 and w are 0
    where |s| = 0 (modes P leaves alone).
    """
    key = "spectral"
    if key not in grid._cache:
        mx = np.rint(np.fft.fftfreq(grid.nx) * grid.nx).astype(int)
        my = np.arange(grid.ny // 2 + 1)
        s1 = np.sin(2.0 * np.pi * mx / grid.nx) / grid.hx
        s2 = np.sin(2.0 * np.pi * my / grid.ny) / grid.hy
        s1[np.abs(mx) * 2 == grid.nx] = 0.0
        count = np.full(grid.ny // 2 + 1, 2.0)
        count[0] = 1.0
        if grid.ny % 2 == 0:
            s2[-1] = 0.0
            count[-1] = 1.0
        s1, s2 = s1[:, None], s2[None, :]
        denom = s1 * s1 + s2 * s2
        scale = grid.hx * grid.hy / (grid.nx * grid.ny)
        with np.errstate(divide="ignore"):
            inv = np.where(denom > 0.0, 1.0 / denom, 0.0)
            w = np.where(denom > 0.0, scale * count / denom, 0.0)
        grid._cache[key] = (s1,) + tuple(np.repeat(a, 2, axis=-1) for a in (s2, inv, w))
    return grid._cache[key]


def _project_periodic_fft(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral solve on the float view of rfft2(v), with no complex
    temporaries.  With q = (s . v^)/|s|^2 the correction is v^ - s q, so
    each real and imaginary part is corrected by s times the same part of
    q."""
    s1, s2, inv, _ = _spectral_table(grid)
    vhat = np.fft.rfft2(v, axes=(-2, -1))
    flat = vhat.view(np.float64)  # real and imaginary parts side by side
    v0, v1 = flat[..., 0, :, :], flat[..., 1, :, :]
    q = s1 * v0
    tmp = s2 * v1
    q += tmp
    q *= inv
    np.multiply(s1, q, out=tmp)
    v0 -= tmp
    np.multiply(s2, q, out=tmp)
    v1 -= tmp
    return np.fft.irfft2(vhat, s=(grid.nx, grid.ny), axes=(-2, -1))


def gradient_norm_sq(v: np.ndarray, grid: Grid) -> np.ndarray:
    """||(I - P) v||^2 per lane for v of shape (..., 2, nx, ny) on a
    periodic grid: the norm of the gradient part of v.

    The complement of P is the gradient part s (s . v^)/|s|^2, and the
    central divergence of v has transform i s . v^, so by Parseval the
    norm is sum_k |div_h v^(k)|^2 / |s|^2: one forward transform of a
    scalar field, squared in place on its float view.
    """
    if not grid.periodic:
        raise ValueError("gradient_norm_sq needs a periodic grid")
    dhat = np.fft.rfft2(divergence(v, grid, "periodic"), axes=(-2, -1))
    sq = dhat.view(np.float64)
    np.square(sq, out=sq)
    sq *= _spectral_table(grid)[3]
    return np.sum(sq, axis=(-2, -1))


def _bounded_1d_blocks(n: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1-D blocks of the bounded pressure system.

    B: all-node pressure -> central pressure gradient at the n-2 interior
       nodes (boundary pressures are free unknowns; that is the natural,
       weakly-imposed homogeneous Neumann condition).
    D: interior corrections (zero at the wall) -> central divergence rows.
    S: selection of interior nodes.
    """
    m = n - 2
    B = np.zeros((m, n))
    D = np.zeros((m, m))
    S = np.zeros((m, n))
    for r in range(m):
        i = r + 1
        B[r, i + 1] += 1.0 / (2.0 * h)
        B[r, i - 1] -= 1.0 / (2.0 * h)
        S[r, i] = 1.0
        if r + 1 < m:
            D[r, r + 1] += 1.0 / (2.0 * h)
        if r - 1 >= 0:
            D[r, r - 1] -= 1.0 / (2.0 * h)
    return B, D, S


def _bounded_solver(grid: Grid):
    """Cached pieces of the bounded projection.

    The map A takes pressures on all nodes to the central divergence (at
    interior nodes) of the interior-supported correction grad p.  A is onto,
    so the minimum-norm pressure solves A A^T y = b exactly; A A^T is SPD
    and factorized once per grid.
    """
    key = "leray_bounded"
    if key not in grid._cache:
        import scipy.sparse as sp  # bounded grids only: kept off the package import
        import scipy.sparse.linalg as spla
        Bx, Dx, Sx = _bounded_1d_blocks(grid.nx, grid.hx)
        By, Dy, Sy = _bounded_1d_blocks(grid.ny, grid.hy)
        A = (
            sp.kron(sp.csr_matrix(Dx @ Bx), sp.csr_matrix(Sy))
            + sp.kron(sp.csr_matrix(Sx), sp.csr_matrix(Dy @ By))
        ).tocsr()
        gram = (A @ A.T).tocsc()
        lu = spla.splu(gram)
        grid._cache[key] = (A, A.T, lu)
    return grid._cache[key]


def interior_divergence_max(u: np.ndarray, grid: Grid):
    """Largest |central divergence| of u (..., 2, nx, ny) per path, over
    every node on periodic grids and over the interior nodes otherwise
    (the only ones the bounded projection controls)."""
    d = divergence(u, grid, "periodic") if grid.periodic else interior_divergence(u, grid)
    return np.max(np.abs(d), axis=(-2, -1))


def _project_bounded(v: np.ndarray, grid: Grid, tol: float) -> np.ndarray:
    """Project every leading axis of v (..., 2, nx, ny) in one pass: one
    batched divergence, then each refinement round is one multi-column
    Gram solve; a column stops refining exactly when it would alone."""
    A, At, lu = _bounded_solver(grid)
    nx, ny = grid.nx, grid.ny
    u = v.reshape(-1, 2, nx, ny).copy()
    u[..., 0, :] = u[..., -1, :] = 0.0
    u[..., :, 0] = u[..., :, -1] = 0.0
    # (n_interior, k), Fortran order: one column per lane
    b0 = interior_divergence(u, grid).reshape(u.shape[0], -1).T

    # minimum-norm pressure via the Gram factorization, with iterative
    # refinement to wash out the squared conditioning of A A^T
    p_flat = np.zeros((nx * ny, u.shape[0]), order="F")
    r = b0.copy(order="F")
    for _ in range(4):
        active = np.max(np.abs(r), axis=0) > 0.01 * tol
        if not active.any():
            break
        # a plain slice while every column refines (views, no gathered copies)
        cols = slice(None) if active.all() else np.flatnonzero(active)
        p_flat[:, cols] += At @ lu.solve(r[:, cols])
        r[:, cols] = b0[:, cols] - A @ p_flat[:, cols]

    p = p_flat.T.reshape(-1, nx, ny)
    u[:, 0, 1:-1, 1:-1] -= (p[:, 2:, 1:-1] - p[:, :-2, 1:-1]) / (2.0 * grid.hx)
    u[:, 1, 1:-1, 1:-1] -= (p[:, 1:-1, 2:] - p[:, 1:-1, :-2]) / (2.0 * grid.hy)
    achieved = interior_divergence_max(u, grid)
    if np.any(achieved > tol):
        raise ProjectionError("bounded pressure solve stalled", float(np.max(achieved)))
    return u.reshape(v.shape)


def leray_project(v: np.ndarray, grid: Grid, tol: float = PROJ_TOL) -> np.ndarray:
    """Project v onto the discretely divergence-free space: u = v - grad p.

    v has shape (..., 2, nx, ny); every leading axis is projected on its
    own and kept in u, on periodic and bounded grids alike.  The periodic
    solve is direct and exact; ``tol`` bounds the interior divergence that
    the bounded solve must reach.  Raises :class:`ProjectionError` with the
    achieved residual if it cannot; on a batch it carries the worst lane's
    residual.
    """
    if not np.all(np.isfinite(v)):
        raise ValueError("leray_project: input contains non-finite values")
    grid.check_values(v)
    if grid.periodic:
        return _project_periodic_fft(v, grid)
    return _project_bounded(v, grid, tol)
