"""Discrete differential operators and quadrature on raw arrays.

Second-order central differences in the interior.  Boundary closure depends
on the field's boundary mode:

* ``periodic``  -- wrap-around stencils,
* ``neumann``   -- reflected ghost values (zero normal derivative),
* ``dirichlet`` / ``noslip`` / ``none`` -- one-sided second-order stencils.

All operators take the array, the grid and a bc string; the Field wrappers
in :mod:`selflow.fields` dispatch here.  Arrays are (nx, ny) scalars or
(k, nx, ny) stacks; x is axis -2, y is axis -1.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid, GridError

_ONESIDED = ("none", "dirichlet", "noslip")


def _step(grid: Grid, axis: int) -> float:
    return grid.hx if axis == 0 else grid.hy


def deriv(a: np.ndarray, grid: Grid, axis: int, bc: str) -> np.ndarray:
    """First derivative along ``axis`` (0 = x, 1 = y), central differences."""
    if a.shape[-2:] != (grid.nx, grid.ny):
        raise GridError(f"field shape {a.shape} does not match grid {(grid.nx, grid.ny)}")
    h = _step(grid, axis)
    ax = -2 + axis
    if bc == "periodic":
        return (np.roll(a, -1, axis=ax) - np.roll(a, 1, axis=ax)) / (2.0 * h)
    out = np.gradient(a, h, axis=ax, edge_order=2)
    if bc == "neumann":
        # reflected ghosts make the normal derivative vanish at the wall
        lo = [slice(None)] * a.ndim
        hi = [slice(None)] * a.ndim
        lo[ax], hi[ax] = 0, -1
        out[tuple(lo)] = 0.0
        out[tuple(hi)] = 0.0
    elif bc not in _ONESIDED:
        raise GridError(f"unknown boundary mode {bc!r}")
    return out


def _second_diff(a: np.ndarray, grid: Grid, axis: int, bc: str) -> np.ndarray:
    if a.shape[-2:] != (grid.nx, grid.ny):
        raise GridError(f"field shape {a.shape} does not match grid {(grid.nx, grid.ny)}")
    h2 = _step(grid, axis) ** 2
    ax = -2 + axis
    if bc == "periodic":
        return (np.roll(a, -1, axis=ax) - 2.0 * a + np.roll(a, 1, axis=ax)) / h2

    out = np.empty_like(a)

    def sl(idx):
        s = [slice(None)] * a.ndim
        s[ax] = idx
        return tuple(s)

    out[sl(slice(1, -1))] = (a[sl(slice(2, None))] - 2.0 * a[sl(slice(1, -1))]
                             + a[sl(slice(None, -2))]) / h2
    if bc == "neumann":
        out[sl(0)] = 2.0 * (a[sl(1)] - a[sl(0)]) / h2
        out[sl(-1)] = 2.0 * (a[sl(-2)] - a[sl(-1)]) / h2
    elif bc in _ONESIDED:
        out[sl(0)] = (2.0 * a[sl(0)] - 5.0 * a[sl(1)] + 4.0 * a[sl(2)] - a[sl(3)]) / h2
        out[sl(-1)] = (2.0 * a[sl(-1)] - 5.0 * a[sl(-2)] + 4.0 * a[sl(-3)] - a[sl(-4)]) / h2
    else:
        raise GridError(f"unknown boundary mode {bc!r}")
    return out


def gradient(a: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """Gradient: (nx, ny) -> (2, nx, ny); (..., k, nx, ny) -> (..., k, 2, nx, ny)."""
    dx = deriv(a, grid, 0, bc)
    dy = deriv(a, grid, 1, bc)
    return np.stack([dx, dy], axis=-3)


def divergence(v: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """Divergence of a 2-vector field (..., 2, nx, ny) -> (..., nx, ny)."""
    if v.ndim < 3 or v.shape[-3] != 2:
        raise GridError(f"divergence expects shape (..., 2, nx, ny), got {v.shape}")
    return deriv(v[..., 0, :, :], grid, 0, bc) + deriv(v[..., 1, :, :], grid, 1, bc)


def laplacian(a: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """Five-point Laplacian, component-wise on stacked arrays."""
    return _second_diff(a, grid, 0, bc) + _second_diff(a, grid, 1, bc)


def inner(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """L2 inner product over the domain, summing vector components."""
    return float(np.sum(a * b * grid.quad_weights()))


def norm_l2(a: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(max(inner(a, a, grid), 0.0)))


def norm_linf(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _forward_links(a: np.ndarray, grid: Grid, axis: int, periodic: bool) -> np.ndarray:
    h = _step(grid, axis)
    ax = -2 + axis
    if periodic:
        return (np.roll(a, -1, axis=ax) - a) / h
    s_hi = [slice(None)] * a.ndim
    s_lo = [slice(None)] * a.ndim
    s_hi[ax] = slice(1, None)
    s_lo[ax] = slice(None, -1)
    return (a[tuple(s_hi)] - a[tuple(s_lo)]) / h


def _link_weights(grid: Grid, axis: int) -> np.ndarray:
    # transverse trapezoid weight x longitudinal h; rectangle rule if periodic
    if grid.periodic:
        return np.full((grid.nx, grid.ny), grid.hx * grid.hy)
    n_long = (grid.nx if axis == 0 else grid.ny) - 1
    n_tr = grid.ny if axis == 0 else grid.nx
    w_tr = np.full(n_tr, grid.hy if axis == 0 else grid.hx)
    w_tr[0] *= 0.5
    w_tr[-1] *= 0.5
    h = _step(grid, axis)
    if axis == 0:
        return np.outer(np.full(n_long, h), w_tr)
    return np.outer(w_tr, np.full(n_long, h))


def dirichlet_form_vec(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete Dirichlet form <grad a, grad b> built from forward links, of
    vector fields (..., k, nx, ny): reduced over the trailing component and
    space axes only (leading path axes survive).

    Chosen so that <laplacian(f), g> == -dirichlet_form_vec(f, g) exactly
    in periodic mode, in bounded-neumann mode, and for fields vanishing on
    the boundary; the step-by-step energy budget then closes without
    spatial leakage.
    """
    total = 0.0
    for axis in (0, 1):
        la = _forward_links(a, grid, axis, grid.periodic)
        lb = _forward_links(b, grid, axis, grid.periodic)
        total = total + np.sum(la * lb * _link_weights(grid, axis), axis=(-3, -2, -1))
    return total


def pair_vec(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """L2 pairing of vector fields (..., k, nx, ny); leading axes survive."""
    return np.sum(a * b * grid.quad_weights(), axis=(-3, -2, -1))


def pair_scalar(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """L2 pairing of scalar fields (..., nx, ny); leading axes survive."""
    return np.sum(a * b * grid.quad_weights(), axis=(-2, -1))


def advect_skew(u: np.ndarray, f: np.ndarray, grid: Grid, bc_f: str) -> np.ndarray:
    """Skew-symmetric advection 0.5*[u . grad f + div(u f)] with central
    differences; ``f`` is (..., k, nx, ny) and ``u`` is (..., 2, nx, ny).

    With central differences and rectangle quadrature the associated
    trilinear form is exactly antisymmetric in periodic mode, so
    <advect_skew(u, f), f> vanishes to rounding regardless of div u.
    """
    u0 = u[..., 0:1, :, :]
    u1 = u[..., 1:2, :, :]
    conv = u0 * deriv(f, grid, 0, bc_f) + u1 * deriv(f, grid, 1, bc_f)
    dive = deriv(u0 * f, grid, 0, bc_f) + deriv(u1 * f, grid, 1, bc_f)
    return 0.5 * (conv + dive)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise cross product of 3-vector fields (..., 3, nx, ny)."""
    a0, a1, a2 = a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]
    b0, b1, b2 = b[..., 0, :, :], b[..., 1, :, :], b[..., 2, :, :]
    return np.stack(
        [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-3
    )


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise inner product over the component axis (axis -3)."""
    return np.sum(a * b, axis=-3)
