"""Discrete differential operators and quadrature on raw arrays.

Second-order central differences in the interior.  Boundary closure depends
on the field's boundary mode:

* ``periodic``  -- wrap-around stencils,
* ``neumann``   -- reflected ghost values (zero normal derivative),
* ``dirichlet`` / ``noslip`` / ``none`` -- one-sided second-order stencils.

All operators take the array, the grid and a bc string, and act on every
leading axis at once: arrays are (nx, ny) scalars or (..., k, nx, ny)
stacks, x is axis -2 and y is axis -1.  Periodic stencils do the
arithmetic of the ``np.roll`` formulas without the rolled copies, so they
are bit-identical to them.  The bounded first derivative does the
arithmetic of numpy's ``gradient(a, h, edge_order=2)`` without calling it:
the same central quotient inside and the same three-point sums
(-1.5/h) a0 + (2/h) a1 + (-0.5/h) a2 at the edges, bit for bit.
``interior_divergence`` is the bounded divergence at the interior nodes
alone, bit for bit the inner rows of ``divergence(v, grid, "none")``.  The
quadrature forms use the grid's rule, a constant hx*hy weight on periodic
grids.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid, GridError

_BOUNDED = ("none", "dirichlet", "noslip", "neumann")


def _step(grid: Grid, axis: int) -> float:
    return grid.hx if axis == 0 else grid.hy


def _at(ax: int, idx) -> tuple:
    """Index ``idx`` along axis ``ax`` (-2 or -1), everything else whole."""
    return (Ellipsis, idx) if ax == -1 else (Ellipsis, idx, slice(None))


def _periodic_stencil(a: np.ndarray, ax: int, combine, divisor: float,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Array whose entries along ``ax`` are combine(out, a[i+1], a[i],
    a[i-1]) / divisor with wrap-around neighbours, written into ``out`` (a
    new array when it is None); ``combine`` writes into its first argument.

    The bulk is one pass over the merged space axes (a view of ``a`` when
    they are contiguous, as on every array the package builds), where
    a[i+1] sits k entries on (k = ny along x, 1 along y).  The two wrap
    rows are then written on their own; along y they also overwrite the
    bulk entries whose neighbours crossed a row end."""
    if out is None:
        out = np.empty(a.shape)
    k = a.shape[-1] if ax == -2 else 1
    merged = a.shape[:-2] + (-1,)
    ma, mo = a.reshape(merged), out.reshape(merged, copy=False)
    combine(mo[..., k:-k], ma[..., 2 * k:], ma[..., k:-k], ma[..., :-2 * k])
    for o, p, c, m in ((0, 1, 0, -1), (-1, 0, -1, -2)):
        combine(out[_at(ax, o)], a[_at(ax, p)], a[_at(ax, c)], a[_at(ax, m)])
    out /= divisor
    return out


def _central(out, plus, centre, minus):
    np.subtract(plus, minus, out=out)


def _forward(out, plus, centre, minus):
    np.subtract(plus, centre, out=out)


def _second(out, plus, centre, minus):
    # (a[i+1] - 2 a[i]) + a[i-1], the order of the roll formula
    np.multiply(centre, 2.0, out=out)
    np.subtract(plus, out, out=out)
    out += minus


def deriv(a: np.ndarray, grid: Grid, axis: int, bc: str,
          out: np.ndarray | None = None) -> np.ndarray:
    """First derivative along ``axis`` (0 = x, 1 = y), central differences;
    written into ``out`` (a's shape) when it is given."""
    if a.shape[-2:] != (grid.nx, grid.ny):
        raise GridError(f"field shape {a.shape} does not match grid {(grid.nx, grid.ny)}")
    h = _step(grid, axis)
    ax = -2 + axis
    if bc == "periodic":
        return _periodic_stencil(a, ax, _central, 2.0 * h, out)
    if bc not in _BOUNDED:
        raise GridError(f"unknown boundary mode {bc!r}")
    if out is None:
        out = np.empty(a.shape)
    inner = out[_at(ax, slice(1, -1))]
    np.subtract(a[_at(ax, slice(2, None))], a[_at(ax, slice(None, -2))], out=inner)
    inner /= 2.0 * h
    if bc == "neumann":
        # reflected ghosts make the normal derivative vanish at the wall
        out[_at(ax, 0)] = 0.0
        out[_at(ax, -1)] = 0.0
        return out
    # second-order one-sided edges, summed left to right as numpy's gradient does
    for o, nodes, coefs in ((0, (0, 1, 2), (-1.5, 2.0, -0.5)),
                            (-1, (-3, -2, -1), (0.5, -2.0, 1.5))):
        edge = out[_at(ax, o)]
        np.multiply(a[_at(ax, nodes[0])], coefs[0] / h, out=edge)
        for i, c in zip(nodes[1:], coefs[1:]):
            edge += (c / h) * a[_at(ax, i)]
    return out


def _second_diff(a: np.ndarray, grid: Grid, axis: int, bc: str) -> np.ndarray:
    if a.shape[-2:] != (grid.nx, grid.ny):
        raise GridError(f"field shape {a.shape} does not match grid {(grid.nx, grid.ny)}")
    h2 = _step(grid, axis) ** 2
    ax = -2 + axis
    if bc == "periodic":
        return _periodic_stencil(a, ax, _second, h2)
    if bc not in _BOUNDED:
        raise GridError(f"unknown boundary mode {bc!r}")
    out = np.empty(a.shape)
    _second(out[_at(ax, slice(1, -1))], a[_at(ax, slice(2, None))],
            a[_at(ax, slice(1, -1))], a[_at(ax, slice(None, -2))])
    for o, nodes in ((0, (0, 1, 2, 3)), (-1, (-1, -2, -3, -4))):
        e0, e1, e2, e3 = (a[_at(ax, i)] for i in nodes)
        if bc == "neumann":
            out[_at(ax, o)] = 2.0 * (e1 - e0)
        else:
            out[_at(ax, o)] = 2.0 * e0 - 5.0 * e1 + 4.0 * e2 - e3
    out /= h2
    return out


def gradient(a: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """Gradient: (nx, ny) -> (2, nx, ny); (..., k, nx, ny) -> (..., k, 2, nx, ny)."""
    out = np.empty(a.shape[:-2] + (2,) + a.shape[-2:])
    for axis in (0, 1):
        deriv(a, grid, axis, bc, out=out[..., axis, :, :])
    return out


def divergence(v: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """Divergence of a 2-vector field (..., 2, nx, ny) -> (..., nx, ny)."""
    if v.ndim < 3 or v.shape[-3] != 2:
        raise GridError(f"divergence expects shape (..., 2, nx, ny), got {v.shape}")
    out = deriv(v[..., 0, :, :], grid, 0, bc)
    out += deriv(v[..., 1, :, :], grid, 1, bc)
    return out


def interior_divergence(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Central divergence of v (..., 2, nx, ny) at the interior nodes,
    (..., nx-2, ny-2): divergence(v, grid, "none")[..., 1:-1, 1:-1] bit
    for bit, without the wall rows."""
    v0, v1 = v[..., 0, :, :], v[..., 1, :, :]
    out = v0[..., 2:, 1:-1] - v0[..., :-2, 1:-1]
    out /= 2.0 * grid.hx
    dy = v1[..., 1:-1, 2:] - v1[..., 1:-1, :-2]
    dy /= 2.0 * grid.hy
    out += dy
    return out


def laplacian(a: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """Five-point Laplacian, component-wise on stacked arrays."""
    out = _second_diff(a, grid, 0, bc)
    out += _second_diff(a, grid, 1, bc)
    return out


def _weighted_sum(prod: np.ndarray, grid: Grid, axes: tuple) -> np.ndarray:
    """Quadrature of ``prod`` over ``axes``: the plain sum times hx*hy on
    periodic grids (a constant weight), the weighted sum otherwise."""
    if grid.periodic:
        return grid.hx * grid.hy * np.sum(prod, axis=axes)
    return np.sum(prod * grid.quad_weights(), axis=axes)


def _forward_links(a: np.ndarray, grid: Grid, axis: int, periodic: bool) -> np.ndarray:
    h = _step(grid, axis)
    ax = -2 + axis
    if periodic:
        return _periodic_stencil(a, ax, _forward, h)
    return (a[_at(ax, slice(1, None))] - a[_at(ax, slice(None, -1))]) / h


def _link_weights(grid: Grid, axis: int) -> np.ndarray:
    # bounded grids: transverse trapezoid weight x longitudinal h
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
    spatial leakage.  Periodic grids weigh every link by the constant
    rectangle-rule hx*hy, applied once to each lane's plain sum; the self
    form ``b is a`` builds its links once.
    """
    periodic = grid.periodic
    total = 0.0
    for axis in (0, 1):
        la = _forward_links(a, grid, axis, periodic)
        lb = la if b is a else _forward_links(b, grid, axis, periodic)
        la *= lb
        if not periodic:
            la *= _link_weights(grid, axis)
        total = total + np.sum(la, axis=(-3, -2, -1))
    return grid.hx * grid.hy * total if periodic else total


def pair_vec(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """L2 pairing of vector fields (..., k, nx, ny); leading axes survive.
    Periodic grids scale each lane's plain sum by the constant hx*hy."""
    return _weighted_sum(a * b, grid, (-3, -2, -1))


def pair_scalar(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """L2 pairing of scalar fields (..., nx, ny); leading axes survive."""
    return _weighted_sum(a * b, grid, (-2, -1))


def advect_skew(u: np.ndarray, f: np.ndarray, grid: Grid, bc_f: str) -> np.ndarray:
    """Skew-symmetric advection 0.5*[u . grad f + div(u f)] with central
    differences; ``f`` is (..., k, nx, ny) and ``u`` is (..., 2, nx, ny).

    With central differences and rectangle quadrature the associated
    trilinear form is exactly antisymmetric in periodic mode, so
    <advect_skew(u, f), f> vanishes to rounding regardless of div u.
    """
    u0 = u[..., 0:1, :, :]
    u1 = u[..., 1:2, :, :]
    conv = u0 * deriv(f, grid, 0, bc_f)
    conv += u1 * deriv(f, grid, 1, bc_f)
    dive = deriv(u0 * f, grid, 0, bc_f)
    dive += deriv(u1 * f, grid, 1, bc_f)
    conv += dive
    conv *= 0.5
    return conv


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise cross product of 3-vector fields (..., 3, nx, ny), each
    component written into its slot of one result."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    tmp = np.empty(out.shape[:-3] + out.shape[-2:])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        slot = out[..., i, :, :]
        np.multiply(a[..., j, :, :], b[..., k, :, :], out=slot)
        np.multiply(a[..., k, :, :], b[..., j, :, :], out=tmp)
        slot -= tmp
    return out


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise inner product over the component axis (axis -3)."""
    return np.sum(a * b, axis=-3)
