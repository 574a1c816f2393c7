"""The lib-numerics workload: library calls in one warm process.

The seed draws the random 100x100 pmf and the Sibuya evaluation points; it
changes no size. Each op is a zero-argument call plus a check of its result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as ck

PMF_N = 100
R = 0.6


@dataclass
class LibOp:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def curve_specs(ld) -> dict:
    """The four CLI curve specs, built from the public API with no Y-marginal,
    so mi_curve derives it by pushforward."""

    def branch(phi, dphi, domain):
        return ld.CurveBranch(phi=phi, dphi=dphi, domain=domain)

    def ident(x):
        return np.asarray(x, dtype=float)

    def ones(x):
        return np.ones_like(np.asarray(x, dtype=float))

    normal, unif = ld.standard_normal_pdf, ld.uniform_pdf(0.0, 1.0)
    wide, unit = (-8.0, 8.0), (0.0, 1.0)
    return {
        "curve-normal-identity": ld.CurveSingularJoint(normal, wide, (branch(ident, ones, wide),)),
        "curve-uniform-identity": ld.CurveSingularJoint(unif, unit, (branch(ident, ones, unit),)),
        "curve-normal-double": ld.CurveSingularJoint(normal, wide, (branch(
            lambda x: 2.0 * np.asarray(x, dtype=float),
            lambda x: np.full_like(np.asarray(x, dtype=float), 2.0), wide),)),
        "curve-uniform-square": ld.CurveSingularJoint(unif, unit, (branch(
            lambda x: np.asarray(x, dtype=float) ** 2,
            lambda x: 2.0 * np.asarray(x, dtype=float), unit),)),
    }


def random_pmf(seed: int):
    """Increasing random labels and a pmf with about a tenth of its cells zero."""
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.5, 1.5, PMF_N))
    ys = np.cumsum(rng.uniform(0.5, 1.5, PMF_N))
    pmf = rng.random((PMF_N, PMF_N))
    pmf[rng.random((PMF_N, PMF_N)) < 0.1] = 0.0
    return xs, ys, pmf / pmf.sum()


def loop_lift(pmf: np.ndarray) -> np.ndarray:
    """Cell-by-cell p / (p_X p_Y) with exactly summed marginals; NaN where
    the product marginal vanishes."""
    rows, cols = pmf.shape
    px = [math.fsum(pmf[i, :]) for i in range(rows)]
    py = [math.fsum(pmf[:, j]) for j in range(cols)]
    out = np.empty((rows, cols))
    for i in range(rows):
        for j in range(cols):
            den = px[i] * py[j]
            out[i, j] = pmf[i, j] / den if den > 0 else math.nan
    return out


def _check_field(field, gx, gy, want: np.ndarray, rtol: float) -> str | None:
    if not (np.array_equal(field.grid_x, gx) and np.array_equal(field.grid_y, gy)):
        return "field grid differs from the requested grid"
    got = np.asarray(field.values, dtype=float)
    same = (got == want) | (np.abs(got - want) <= rtol * np.abs(want)) | (
        np.isnan(got) & np.isnan(want))
    if not np.all(same):
        i, j = np.argwhere(~same)[0]
        return f"L[{i},{j}] = {float(got[i, j])!r}, reference {float(want[i, j])!r}"
    labels = np.array([lab.value for lab in field.labels.ravel()], dtype=object)
    return ck.check_labels(got.ravel(), labels, field.tol)


def workload(ld, seed: int) -> list[LibOp]:
    rng = np.random.default_rng(seed + 1)
    (bx, by), (cx, cy) = rng.uniform(-3.0, 3.0, (2, 2))
    bvn = {r: ld.BivariateNormal(r) for r in (0.6, 0.9, 0.99)}
    cauchy = ld.CircularCauchy()
    curves = curve_specs(ld)
    xs, ys, pmf = random_pmf(seed)
    discrete = ld.DiscreteJoint(xs, ys, pmf)
    g = np.linspace(-4.0, 4.0, 201)
    x_grid = np.linspace(-3.0, 3.0, 201)

    def mi_check(want, atol):
        return lambda rep: ck.close("mi", rep.value, want, atol=atol)

    @functools.cache
    def curve_grid_ref():
        want = np.zeros((g.size, g.size))
        # on the diagonal the lift is 2 / (pi rho_Y(x) sqrt(2)) with rho_Y = phi
        np.fill_diagonal(want, 2.0 / (math.pi * math.sqrt(2.0) * ck.normal_pdf(g)))
        return want

    discrete_ref = functools.cache(lambda: loop_lift(pmf))
    sibuya_bvn_ref = functools.cache(lambda: ck.sibuya_bvn(R, bx, by))
    sibuya_cauchy_ref = functools.cache(lambda: ck.sibuya_cauchy(cx, cy))

    ops = [LibOp("mi-cauchy", lambda: ld.mi_continuous(cauchy),
                 mi_check(ck.C03_VALUE, ck.C03_TOL))]
    for r, dist in bvn.items():
        ops.append(LibOp(f"mi-bvn-{r}", lambda d=dist: ld.mi_continuous(d),
                         mi_check(ck.mi_bvn(r), ck.C02_TOL)))
    for name, curve in curves.items():
        ops.append(LibOp(f"mi-{name}", lambda c=curve: ld.mi_curve(c),
                         mi_check(ck.CURVE_MI[name], ck.C04_TOL)))
    ops += [
        LibOp("sibuya-bvn", lambda: ld.sibuya_omega_at(bvn[R], (bx, by)),
              lambda v: ck.close("omega", v, sibuya_bvn_ref(), rtol=ck.SIBUYA_RTOL)),
        LibOp("sibuya-cauchy", lambda: ld.sibuya_omega_at(cauchy, (cx, cy)),
              lambda v: ck.close("omega", v, sibuya_cauchy_ref(), rtol=ck.SIBUYA_RTOL)),
        LibOp("target-bvn", lambda: ld.target_profile(bvn[R], (1.0, 2.0), x_grid),
              lambda res: ck.check_bvn_target(res.to_dict(), R, x_grid)),
        LibOp("lift-grid-discrete", lambda: ld.lift_grid(discrete, xs, ys),
              lambda f: _check_field(f, xs, ys, discrete_ref(), 1e-12)),
        LibOp("lift-grid-curve", lambda: ld.lift_grid(curves["curve-normal-identity"], g, g),
              lambda f: _check_field(f, g, g, curve_grid_ref(), 1e-8)),
    ]
    return ops
