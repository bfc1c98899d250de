"""Leray projection onto discretely divergence-free fields.

The projection removes the central-difference divergence: it solves the
composite pressure Poisson problem L p = div v where L = div(grad(.)) is the
*wide* Laplacian (central differences applied twice), so that u = v - grad p
satisfies div u = 0 in the same discrete sense that :func:`divergence`
measures.  Using the compact 5-point stencil here instead would leave an
O(h^2) divergence floor.

:func:`leray_project` returns u alone; no caller needs the pressure.
Periodic grids solve the system directly and exactly in Fourier space with
modified wavenumbers; the Parseval weights of :func:`spectral_table` let
the noise operator's Hilbert-Schmidt norm evaluate ||(I - P) v||^2 without
building P v.  Bounded (no-slip) grids solve the interior system with a
homogeneous-Neumann pressure closure as a minimum-norm solve through the
factorized Gram matrix A A^T, over all leading axes of the field at once;
only the interior divergence is controllable there because the boundary
rows use one-sided stencils.  Iterative refinement works on the corrected
field: each round corrects the lanes still refining and takes their
interior divergence, which is both the next round's residual and, after
the last round, the divergence the tolerance check measures.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import Grid
from .operators import _divide, carve, divergence, interior_divergence

PROJ_TOL = 1e-10
# |v|_inf (1/hx + 1/hy) above which the divergence bound grows with it: the
# rounding floor of a central divergence is about 1e-16 of that product, a
# hundredth of the bound at the default proj.tol
DIV_SCALE = 1e4


class ProjectionError(RuntimeError):
    """Pressure solve failed to reach the requested divergence tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved residual {achieved:.3e})")
        self.achieved = achieved


def spectral_table(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(s1, s2, 1/|s|^2, w) on the rfft2 half spectrum, lined up with the
    float view of a spectrum: s1 keeps its (nx, 1) column, the others are
    repeated for the real and the imaginary part.

    s1, s2 are the modified wavenumbers of the central difference, 0 on the
    Nyquist columns (exact kernel modes).  w are the Parseval weights
    hx hy / (nx ny) / |s|^2, doubled on every column but 0 and the y-Nyquist
    column (whose conjugate partners rfft2 omits).  1/|s|^2 and w are 0
    where |s| = 0 (modes P leaves alone).

    The gradient part (I - P) v has transform s (s . v^)/|s|^2 and the
    central divergence of v has transform i s . v^, so by Parseval
    ||(I - P) v||^2 is the sum of w times the squared float view of
    rfft2(div_h v).
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


def _project_periodic_fft(v: np.ndarray, grid: Grid, out: np.ndarray | None,
                          tmp: np.ndarray | None) -> np.ndarray:
    """Spectral solve on the float view of rfft2(v), with no complex
    temporaries.  With q = (s . v^)/|s|^2 the correction is v^ - s q, so
    each real and imaginary part is corrected by s times the same part of
    q.  The inverse makes irfft2's two passes, the first in place."""
    s1, s2, inv, _ = spectral_table(grid)
    half = grid.ny // 2 + 1
    vhat, rest = carve(tmp, v.shape[:-1] + (half,), dtype=complex)
    q, t, _ = carve(rest, v.shape[:-3] + (grid.nx, 2 * half), v.shape[:-3] + (grid.nx, 2 * half))
    np.fft.rfft2(v, axes=(-2, -1), out=vhat)
    flat = vhat.view(np.float64)  # real and imaginary parts side by side
    v0, v1 = flat[..., 0, :, :], flat[..., 1, :, :]
    np.multiply(s1, v0, out=q)
    q += np.multiply(s2, v1, out=t)
    q *= inv
    np.multiply(s1, q, out=t)
    v0 -= t
    np.multiply(s2, q, out=t)
    v1 -= t
    np.fft.ifft(vhat, axis=-2, out=vhat)
    return np.fft.irfft(vhat, n=grid.ny, axis=-1, out=out)


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
    """Cached pieces of the bounded projection: (A^T, LU of A A^T).

    The map A takes pressures on all nodes to the central divergence (at
    interior nodes) of the interior-supported correction grad p.  A is onto,
    so the minimum-norm pressure is A^T y with A A^T y = b; A A^T is SPD
    and factorized once per grid.  A itself is not kept: the refinement
    measures its residual on the corrected field.
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
        lu = spla.splu((A @ A.T).tocsc())
        grid._cache[key] = (A.T, lu)
    return grid._cache[key]


def interior_divergence_max(u: np.ndarray, grid: Grid, tmp: np.ndarray | None = None):
    """Largest |central divergence| of u (..., 2, nx, ny) per path, over
    every node on periodic grids and over the interior nodes otherwise
    (the only ones the bounded projection controls); its fields are built
    in the flat scratch ``tmp`` when it is given."""
    if grid.periodic:
        div, rest = carve(tmp, u.shape[:-3] + (grid.nx, grid.ny))
        d = divergence(u, grid, "periodic", out=div, tmp=rest)
    else:
        div, rest = carve(tmp, u.shape[:-3] + (grid.nx - 2, grid.ny - 2))
        d = interior_divergence(u, grid, out=div, tmp=rest)
    return np.max(np.abs(d, out=d), axis=(-2, -1))


def divergence_bound(v: np.ndarray, grid: Grid, tol: float):
    """Largest divergence a projected field of the size of v (..., 2, nx, ny)
    may keep, per path: tol * max(1, |v|_inf (1/hx + 1/hy) / DIV_SCALE), so
    unit-scale fields keep the absolute ``tol``."""
    axes = (-3, -2, -1)
    vmax = np.maximum(np.max(v, axis=axes), -np.min(v, axis=axes))
    return tol * np.maximum(1.0, vmax * ((1.0 / grid.hx + 1.0 / grid.hy) / DIV_SCALE))


def bounded_scratch(shape: tuple) -> int:
    """Length of the flat scratch :func:`leray_project` carves on a bounded
    field of ``shape`` (..., 2, nx, ny): per lane, two interior fields and
    one pressure plane (the finite-value mask of the field fits in them)."""
    nx, ny = shape[-2:]
    return math.prod(shape[:-3]) * (2 * (nx - 2) * (ny - 2) + nx * ny)


def _project_bounded(v: np.ndarray, grid: Grid, tol: float, out: np.ndarray | None,
                     tmp: np.ndarray | None) -> np.ndarray:
    """Project every leading axis of v (..., 2, nx, ny) in one pass.

    Each refinement round makes one multi-column Gram solve for the
    residual of the columns still refining, applies the pressure
    correction to those lanes, and takes their interior divergence on the
    corrected field.  That divergence is the next round's residual and,
    after the last round, the achieved divergence checked against the lane's
    :func:`divergence_bound`.  A column stops refining exactly when it would alone.
    The lanes are corrected in ``out``; when ``out`` is v they are corrected
    in place, with no copy.  The pressures are transposed to one contiguous
    plane per lane once per round, so each lane's gradient correction
    subtracts contiguous slices.  The residuals, the pressure planes and the
    gradient corrections are carved from the flat scratch ``tmp`` (of
    :func:`bounded_scratch` length) when it is given.
    """
    At, lu = _bounded_solver(grid)
    nx, ny = grid.nx, grid.ny
    if out is None:
        out = np.empty(v.shape)
    u = out.reshape(-1, 2, nx, ny)
    if out is not v:
        np.copyto(u, v.reshape(-1, 2, nx, ny))
    u[..., 0, :] = u[..., -1, :] = 0.0
    u[..., :, 0] = u[..., :, -1] = 0.0
    k = u.shape[0]
    bound = divergence_bound(u, grid, tol)
    # one row of r per lane: its interior divergence, so r[cols].T holds
    # the Gram right-hand sides in Fortran order, one column per lane; g
    # holds one interior field per lane (scratch is its flat view, rows its
    # rows), and planes one pressure per lane
    inner = (k, nx - 2, ny - 2)
    div_in, g, planes, _ = carve(tmp, inner, inner, (k, nx, ny))
    r, scratch, rows = div_in.reshape(k, -1), g.reshape(-1), g.reshape(k, -1)
    interior_divergence(u, grid, out=div_in, tmp=scratch)
    res = np.max(np.abs(r, out=rows), axis=1)
    # minimum-norm pressure via the Gram factorization, with iterative
    # refinement to wash out the squared conditioning of A A^T
    for _ in range(4):
        active = res > 0.01 * bound
        if not active.any():
            break
        if active.all():
            # a plain slice while every column refines: views, no gathers
            cols, lanes = slice(None), u
        else:
            cols = np.flatnonzero(active)
            lanes = u[cols]
        m = len(lanes)
        p, gm = planes[:m], g[:m]
        np.copyto(p.reshape(m, -1), (At @ lu.solve(r[cols].T)).T)
        np.subtract(p[:, 2:, 1:-1], p[:, :-2, 1:-1], out=gm)
        lanes[:, 0, 1:-1, 1:-1] -= _divide(gm, 2.0 * grid.hx)
        np.subtract(p[:, 1:-1, 2:], p[:, 1:-1, :-2], out=gm)
        lanes[:, 1, 1:-1, 1:-1] -= _divide(gm, 2.0 * grid.hy)
        if lanes is u:
            div = interior_divergence(u, grid, out=div_in, tmp=scratch).reshape(k, -1)
        else:
            div = interior_divergence(lanes, grid, tmp=scratch).reshape(m, -1)
            r[cols] = div
            u[cols] = lanes
        res[cols] = np.max(np.abs(div, out=rows[:m]), axis=1)
    if np.any(res > bound):
        raise ProjectionError("bounded pressure solve stalled", float(np.max(res)))
    return out


def leray_project(v: np.ndarray, grid: Grid, tol: float = PROJ_TOL,
                  out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Project v onto the discretely divergence-free space: u = v - grad p.

    v has shape (..., 2, nx, ny); every leading axis is projected on its
    own and kept in u, on periodic and bounded grids alike.  The periodic
    solve is direct and exact; the bounded solve must bring each path's
    interior divergence within :func:`divergence_bound` of ``tol``.  Raises
    :class:`ProjectionError` with the achieved residual if it cannot; on a
    batch it carries the worst lane's residual.  The result is written into
    ``out`` when it is given (v itself may be passed), and the solve's
    temporaries (the periodic spectra; the bounded residuals and pressures,
    :func:`bounded_scratch` long) are carved from the flat scratch ``tmp``
    when it is given.
    """
    if not np.all(np.isfinite(v, out=carve(tmp, v.shape, dtype=bool)[0])):
        raise ValueError("leray_project: input contains non-finite values")
    grid.check_values(v)
    if grid.periodic:
        return _project_periodic_fft(v, grid, out, tmp)
    return _project_bounded(v, grid, tol, out, tmp)
