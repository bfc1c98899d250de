"""Built-in invariant suite on small fixtures, runnable as `selflow selftest`.

Each check prints one PASS/FAIL line.  The suite mirrors the library's core
identities at toy sizes; the full acceptance battery lives in the test
suite.
"""

from __future__ import annotations

import numpy as np

from . import operators as ops
from .diagnostics import (
    default_defect_threshold,
    defect_detect,
    pohozaev_residual,
    sphere_generator_drift,
    triple_product_defects,
)
from .dynamics import gl_force, penalty_density
from .grids import Grid
from .initial import smooth_test_director, smooth_unit_director, vortex_director
from .noise import NoiseOperatorS, WienerDriver, k2_norm
from .projection import leray_project


def _check(name: str, ok: bool, detail: str, verbose: bool) -> bool:
    if verbose:
        print(f"selftest {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    return ok


def run_all(verbose: bool = True) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    rng = np.random.default_rng(1234)
    grid = Grid(32, 32)

    # operators: derivative exactness and integration by parts
    X, Y = grid.meshgrid()
    f = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    g = np.cos(4 * np.pi * X) * np.sin(2 * np.pi * Y)
    gf = ops.gradient(f, grid, "periodic")
    ibp = ops.pair_scalar(gf[0], g, grid) + ops.pair_scalar(
        f, ops.deriv(g, grid, 0, "periodic"), grid)
    failures += not _check("integration by parts (periodic)", abs(ibp) < 1e-12,
                           f"defect {ibp:.2e}", verbose)

    lap_sym = ops.pair_scalar(ops.laplacian(f, grid, "periodic"), g, grid) - ops.pair_scalar(
        f, ops.laplacian(g, grid, "periodic"), grid)
    failures += not _check("laplacian symmetry", abs(lap_sym) < 1e-10,
                           f"defect {lap_sym:.2e}", verbose)

    # projection annihilates gradients, idempotent
    q = np.sin(2 * np.pi * X + 1.0) * np.cos(2 * np.pi * Y)
    gq = ops.gradient(q, grid, "periodic")
    u = leray_project(gq, grid)
    sup = np.max(np.abs(u))
    failures += not _check("projector annihilates gradients", sup < 1e-12,
                           f"|u| {sup:.2e}", verbose)
    v = rng.standard_normal((2, 32, 32))
    u1 = leray_project(v, grid)
    u2 = leray_project(u1, grid)
    drift = np.max(np.abs(u2 - u1))
    failures += not _check("projector idempotence", drift < 2e-10,
                           f"drift {drift:.2e}", verbose)
    div = np.max(np.abs(ops.divergence(u1, grid, "periodic")))
    failures += not _check("projected divergence", div < 1e-10, f"|div| {div:.2e}", verbose)

    # skew advection does no work
    adv = ops.advect_skew(u1, u1, grid, "periodic")
    pairing = abs(ops.pair_vec(adv, u1, grid))
    bound = 1e-12 * (1.0 + np.sqrt(ops.pair_vec(u1, u1, grid)) ** 3)
    failures += not _check("skew advection pairing", pairing <= bound,
                           f"{pairing:.2e} <= {bound:.2e}", verbose)

    # pointwise algebra
    d = rng.uniform(-1, 1, (3, 8, 8))
    hv = rng.uniform(-1, 1, (3, 8, 8))
    t1, t2 = triple_product_defects(d, hv)
    worst = max(np.max(np.abs(t1)), np.max(np.abs(t2)))
    failures += not _check("triple products", worst < 1e-14, f"defect {worst:.2e}", verbose)
    gen = np.max(np.abs(sphere_generator_drift(d, hv)))
    failures += not _check("sphere generator drift", gen < 1e-13, f"{gen:.2e}", verbose)
    fd = gl_force(d, 0.7)
    para = np.max(np.abs(ops.dot3(fd, ops.cross(d, hv))))
    failures += not _check("penalty force parallel to d", para < 1e-13, f"{para:.2e}", verbose)

    # penalty density vs force consistency at a point
    pen0 = penalty_density(np.zeros((3, 4, 4)), 1.0)
    failures += not _check("penalty at origin", abs(pen0[0, 0] - 0.25) < 1e-15,
                           f"{pen0[0, 0]:.3f}", verbose)

    # noise operator: single-mode identity and hs bound
    S1 = NoiseOperatorS(grid, n_modes=1, sigma0=0.5, q=1.5,
                        shapes=np.ones((1, 32, 32)))
    w = rng.standard_normal((2, 32, 32))
    uw = leray_project(w, grid)
    out = leray_project(S1.mix_increments(uw, [1.0]), grid)
    rest = out - 0.5 * uw
    err = np.sqrt(ops.pair_vec(rest, rest, grid))
    failures += not _check("single-mode noise", err < 1e-10, f"err {err:.2e}", verbose)
    S = NoiseOperatorS(grid, n_modes=6, sigma0=0.7)
    C = S.linear_growth_constant()
    ok = all(
        S.hs_norm_sq(rng.standard_normal((2, 32, 32))) <= C * (1 + ops.pair_vec(w, w, grid))
        for w in [rng.standard_normal((2, 32, 32)) for _ in range(5)]
    )
    failures += not _check("hs linear growth", ok, f"C = {C:.3f}", verbose)

    # driver determinism
    za = WienerDriver(7, 4).normal_table(10)
    zb = WienerDriver(7, 4).normal_table(10)
    failures += not _check("driver determinism", np.array_equal(za, zb), "bit-equal", verbose)
    failures += not _check("k2 norm of e_3", abs(k2_norm([0, 0, 1]) - 1 / 3) < 1e-15,
                           "1/3", verbose)

    # multiplier identity on a smooth director
    gridb = Grid(48, 48, bc_velocity="noslip", bc_director="neumann")
    dsm = smooth_test_director(gridb)
    rep = pohozaev_residual(dsm, gridb, 0.5, (0.5, 0.5), 0.25, "radial", bc="neumann")
    scale = abs(rep.rhs) + abs(rep.bulk_div) + 1e-30
    failures += not _check("pohozaev residual small", abs(rep.residual) / scale < 0.2,
                           f"rel {abs(rep.residual) / scale:.2e}", verbose)

    # defect detection on the vortex fixture
    grid64 = Grid(64, 64, bc_velocity="noslip", bc_director="neumann")
    core = 2.0 * grid64.hx
    vor = vortex_director(grid64, 0.5, 0.5, core)
    thr = default_defect_threshold(grid64, 0.2)
    repd = defect_detect(vor, grid64, 0.2, 8 * grid64.hx, thr, bc="neumann")
    ok = repd.count == 1 and abs(repd.centers[0][0] - 0.5) <= 2 * grid64.hx
    failures += not _check("vortex defect detection", ok, f"count {repd.count}", verbose)
    uni = defect_detect(smooth_unit_director(grid64, 0.05), grid64, 0.2,
                        8 * grid64.hx, thr, bc="neumann")
    failures += not _check("uniform director no defects", uni.count == 0,
                           f"count {uni.count}", verbose)

    if verbose:
        print(f"selftest: {failures} failure(s)")
    return failures
