"""Discrete differential operators and quadrature on raw arrays.

Second-order central differences in the interior.  Boundary closure depends
on the field's boundary mode:

* ``periodic``  -- wrap-around stencils,
* ``neumann``   -- reflected ghost values (zero normal derivative),
* ``dirichlet`` / ``noslip`` -- one-sided second-order stencils.

All operators take the array, the grid and a bc string, and act on every
leading axis at once: arrays are (nx, ny) scalars or (..., k, nx, ny)
stacks, x is axis -2 and y is axis -1.  Periodic stencils do the
arithmetic of the ``np.roll`` formulas without the rolled copies, so they
are bit-identical to them.  The bounded first derivative does the
arithmetic of numpy's ``gradient(a, h, edge_order=2)`` without calling it:
the same central quotient inside and the same three-point sums
(-1.5/h) a0 + (2/h) a1 + (-0.5/h) a2 at the edges, bit for bit.
``interior_divergence`` is the bounded divergence at the interior nodes
alone, bit for bit the inner rows of ``divergence(v, grid, "noslip")``.  The
quadrature forms use the grid's rule, a constant hx*hy weight on periodic
grids.

Operators that return a field write it into ``out`` when it is given, and
take the temporaries they need from the flat scratch ``tmp`` when it is
given (:func:`carve`); a caller that passes the same buffers to every call
allocates no field-sized array per call.  Either way the arithmetic and its
order are the same, so the results are bit-identical.

Every in-place division by a scalar c, here and in the stepper, goes
through :func:`_divide`, which multiplies by 1/c when c is a power of two
whose reciprocal is finite.  That 1/c is exact, and IEEE rounds x * (1/c)
and x / c correctly from the same real number, so the bits are those of
the division; any other c is divided by.  On a grid whose spacings are
powers of two (lx / nx periodic, lx / (nx - 1) bounded, e.g. 1/64) the
stencils thus run without a division.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .grids import Grid, GridError

_BOUNDED = ("dirichlet", "noslip", "neumann")


def carve(buf: np.ndarray | None, *shapes: tuple, dtype=float) -> list:
    """C-contiguous arrays of ``shapes`` (of ``dtype``) laid end to end at
    the start of the flat float64 scratch ``buf``, then the rest of ``buf``
    for further scratch; new arrays and None when ``buf`` is None."""
    if buf is None:
        return [np.empty(shape, dtype) for shape in shapes] + [None]
    out, at = [], 0
    for shape in shapes:
        count = math.prod(shape)
        if dtype is float:
            out.append(buf[at:at + count].reshape(shape))
            at += count
        else:
            n = -(-count * np.dtype(dtype).itemsize // 8)
            out.append(buf[at:at + n].view(dtype)[:count].reshape(shape))
            at += n
    return out + [buf[at:]]


@functools.lru_cache(maxsize=64)
def _reciprocal(c: float) -> float | None:
    """1/c when it is exact (c a power of two whose reciprocal is finite),
    else None."""
    if abs(math.frexp(c)[0]) != 0.5:
        return None
    r = 1.0 / c
    return r if math.isfinite(r) else None


def _divide(x: np.ndarray, c: float) -> np.ndarray:
    """``x /= c`` in place, returned, with the division's bits for every x
    and c (see the module docstring)."""
    r = _reciprocal(c)
    if r is None:
        x /= c
    else:
        x *= r
    return x


def _step(grid: Grid, axis: int) -> float:
    return grid.hx if axis == 0 else grid.hy


def _at(ax: int, idx) -> tuple:
    """Index ``idx`` along axis ``ax`` (-2 or -1), everything else whole."""
    return (Ellipsis, idx) if ax == -1 else (Ellipsis, idx, slice(None))


def _periodic_stencil(a: np.ndarray, ax: int, combine, divisor: float | None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Array whose entries along ``ax`` are combine(out, a[i+1], a[i],
    a[i-1]) / divisor (undivided when ``divisor`` is None) with wrap-around
    neighbours, written into ``out`` (a new array when it is None);
    ``combine`` writes into its first argument.

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
    if divisor is not None:
        _divide(out, divisor)
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
    _divide(inner, 2.0 * h)
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


def central_difference(a: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Periodic a[i+1] - a[i-1] along ``axis`` (0 = x, 1 = y), written into
    ``out``: the numerator of ``deriv(a, grid, axis, "periodic")``, for
    callers that fold the 1/(2h) divisor into their factors."""
    return _periodic_stencil(a, -2 + axis, _central, None, out)


def _second_diff(a: np.ndarray, grid: Grid, axis: int, bc: str,
                 out: np.ndarray | None) -> np.ndarray:
    if a.shape[-2:] != (grid.nx, grid.ny):
        raise GridError(f"field shape {a.shape} does not match grid {(grid.nx, grid.ny)}")
    h2 = _step(grid, axis) ** 2
    ax = -2 + axis
    if bc == "periodic":
        return _periodic_stencil(a, ax, _second, h2, out)
    if bc not in _BOUNDED:
        raise GridError(f"unknown boundary mode {bc!r}")
    if out is None:
        out = np.empty(a.shape)
    _second(out[_at(ax, slice(1, -1))], a[_at(ax, slice(2, None))],
            a[_at(ax, slice(1, -1))], a[_at(ax, slice(None, -2))])
    for o, nodes in ((0, (0, 1, 2, 3)), (-1, (-1, -2, -3, -4))):
        e0, e1, e2, e3 = (a[_at(ax, i)] for i in nodes)
        if bc == "neumann":
            out[_at(ax, o)] = 2.0 * (e1 - e0)
        else:
            out[_at(ax, o)] = 2.0 * e0 - 5.0 * e1 + 4.0 * e2 - e3
    return _divide(out, h2)


def gradient(a: np.ndarray, grid: Grid, bc: str, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient: (nx, ny) -> (2, nx, ny); (..., k, nx, ny) -> (..., k, 2, nx, ny)."""
    if out is None:
        out = np.empty(a.shape[:-2] + (2,) + a.shape[-2:])
    for axis in (0, 1):
        deriv(a, grid, axis, bc, out=out[..., axis, :, :])
    return out


def divergence(v: np.ndarray, grid: Grid, bc: str, out: np.ndarray | None = None,
               tmp: np.ndarray | None = None) -> np.ndarray:
    """Divergence of a 2-vector field (..., 2, nx, ny) -> (..., nx, ny)."""
    if v.ndim < 3 or v.shape[-3] != 2:
        raise GridError(f"divergence expects shape (..., 2, nx, ny), got {v.shape}")
    out = deriv(v[..., 0, :, :], grid, 0, bc, out=out)
    dy, _ = carve(tmp, out.shape)
    out += deriv(v[..., 1, :, :], grid, 1, bc, out=dy)
    return out


def interior_divergence(v: np.ndarray, grid: Grid, out: np.ndarray | None = None,
                        tmp: np.ndarray | None = None) -> np.ndarray:
    """Central divergence of v (..., 2, nx, ny) at the interior nodes,
    (..., nx-2, ny-2): divergence(v, grid, "noslip")[..., 1:-1, 1:-1] bit
    for bit, without the wall rows."""
    v0, v1 = v[..., 0, :, :], v[..., 1, :, :]
    out = np.subtract(v0[..., 2:, 1:-1], v0[..., :-2, 1:-1], out=out)
    _divide(out, 2.0 * grid.hx)
    dy, _ = carve(tmp, out.shape)
    np.subtract(v1[..., 1:-1, 2:], v1[..., 1:-1, :-2], out=dy)
    out += _divide(dy, 2.0 * grid.hy)
    return out


def laplacian(a: np.ndarray, grid: Grid, bc: str, out: np.ndarray | None = None,
              tmp: np.ndarray | None = None) -> np.ndarray:
    """Five-point Laplacian, component-wise on stacked arrays."""
    out = _second_diff(a, grid, 0, bc, out)
    out += _second_diff(a, grid, 1, bc, carve(tmp, a.shape)[0])
    return out


def _weighted_sum(prod: np.ndarray, grid: Grid, axes: tuple) -> np.ndarray:
    """Quadrature of ``prod`` over ``axes``: the plain sum times hx*hy on
    periodic grids (a constant weight), the weighted sum otherwise (the
    weights are multiplied into ``prod``)."""
    if grid.periodic:
        return grid.hx * grid.hy * np.sum(prod, axis=axes)
    prod *= grid.quad_weights()
    return np.sum(prod, axis=axes)


def _forward_links(a: np.ndarray, grid: Grid, axis: int, periodic: bool,
                   tmp: np.ndarray | None = None) -> np.ndarray:
    h = _step(grid, axis)
    ax = -2 + axis
    if periodic:
        return _periodic_stencil(a, ax, _forward, h, carve(tmp, a.shape)[0])
    hi, lo = a[_at(ax, slice(1, None))], a[_at(ax, slice(None, -1))]
    links = np.subtract(hi, lo, out=carve(tmp, hi.shape)[0])
    return _divide(links, h)


def _link_weights(grid: Grid, axis: int) -> np.ndarray:
    # bounded grids: transverse trapezoid weight x longitudinal h, cached
    key = ("link_weights", axis)
    if key not in grid._cache:
        n_long = (grid.nx if axis == 0 else grid.ny) - 1
        n_tr = grid.ny if axis == 0 else grid.nx
        w_tr = np.full(n_tr, grid.hy if axis == 0 else grid.hx)
        w_tr[0] *= 0.5
        w_tr[-1] *= 0.5
        h = _step(grid, axis)
        grid._cache[key] = (np.outer(np.full(n_long, h), w_tr) if axis == 0
                            else np.outer(w_tr, np.full(n_long, h)))
    return grid._cache[key]


def dirichlet_form_vec(a: np.ndarray, b: np.ndarray, grid: Grid,
                       tmp: np.ndarray | None = None) -> np.ndarray:
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
        la = _forward_links(a, grid, axis, periodic, tmp)
        lb = la if b is a else _forward_links(b, grid, axis, periodic,
                                              None if tmp is None else tmp[la.size:])
        la *= lb
        if not periodic:
            la *= _link_weights(grid, axis)
        total = total + np.sum(la, axis=(-3, -2, -1))
    return grid.hx * grid.hy * total if periodic else total


def _product(a, b, tmp: np.ndarray | None) -> np.ndarray:
    # b broadcasts to a's shape where scratch is given; either may broadcast without it
    return np.multiply(a, b, out=None if tmp is None else carve(tmp, a.shape)[0])


def pair_vec(a: np.ndarray, b: np.ndarray, grid: Grid, tmp: np.ndarray | None = None) -> np.ndarray:
    """L2 pairing of vector fields (..., k, nx, ny); leading axes survive.
    Periodic grids scale each lane's plain sum by the constant hx*hy."""
    return _weighted_sum(_product(a, b, tmp), grid, (-3, -2, -1))


def pair_scalar(a: np.ndarray, b, grid: Grid, tmp: np.ndarray | None = None) -> np.ndarray:
    """L2 pairing of scalar fields (..., nx, ny); leading axes survive."""
    return _weighted_sum(_product(a, b, tmp), grid, (-2, -1))


def advect_skew(u: np.ndarray, f: np.ndarray, grid: Grid, bc_f: str,
                out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
    """Skew-symmetric advection 0.5*[u . grad f + div(u f)] with central
    differences; ``f`` is (..., k, nx, ny) and ``u`` is (..., 2, nx, ny) with
    the same leading axes.

    With central differences and rectangle quadrature the associated
    trilinear form is exactly antisymmetric in periodic mode, so
    <advect_skew(u, f), f> vanishes to rounding regardless of div u.  The
    divergence part is built first, in ``out``, and the sum is added as
    dive + conv, which rounds as conv + dive does.
    """
    u0 = u[..., 0:1, :, :]
    u1 = u[..., 1:2, :, :]
    a, b, _ = carve(tmp, f.shape, f.shape)
    out = deriv(np.multiply(u0, f, out=a), grid, 0, bc_f, out=out)
    out += deriv(np.multiply(u1, f, out=a), grid, 1, bc_f, out=b)
    conv = deriv(f, grid, 0, bc_f, out=a)
    conv *= u0
    dy = deriv(f, grid, 1, bc_f, out=b)
    dy *= u1
    conv += dy
    out += conv
    out *= 0.5
    return out


def cross(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
          tmp: np.ndarray | None = None) -> np.ndarray:
    """Pointwise cross product of 3-vector fields (..., 3, nx, ny), each
    component written into its slot of one result."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    if out is None:
        out = np.empty(shape)
    prod, _ = carve(tmp, shape[:-3] + shape[-2:])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        slot = out[..., i, :, :]
        np.multiply(a[..., j, :, :], b[..., k, :, :], out=slot)
        np.multiply(a[..., k, :, :], b[..., j, :, :], out=prod)
        slot -= prod
    return out


def dot3(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
         tmp: np.ndarray | None = None) -> np.ndarray:
    """Pointwise inner product over the component axis (axis -3)."""
    return np.sum(_product(a, b, tmp), axis=-3, out=out)
