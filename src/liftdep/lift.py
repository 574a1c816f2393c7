"""Pointwise and grid evaluation of the lift function, and region summaries.

The lift at a point compares the joint law with the product of the marginals:
values above one mean the coordinates mutually lift each other there, values
below one mean they inhibit, one means local independence. Each joint class
owns its rule as an elementwise ``lift(x, y)`` (:mod:`liftdep.distributions`):

* discrete: a lookup in the pmf-ratio table ``p / (p_X p_Y)``, NaN off the
  support;
* absolutely continuous: the density ratio, or the family's closed form
  where it has one (bivariate normal);
* curve-singular: zero off the branches and
  ``2 a_n / (pi rho_Y(phi_n(x)) sqrt(1 + phi_n'(x)^2))`` on branch n.

:func:`lift_grid` is the one evaluation path, one ``dist.lift`` call with the
x grid as a column and the y grid as a row (the rules broadcast, so no dense
mesh is built): :func:`discrete_lift` is the grid of the support, and the
pointwise lift a one-point grid that raises UndefinedAtPoint where its cell is
undefined.

Grid cells where the value is undefined (a vanishing marginal, an off-support
discrete label) carry the ``Undefined`` label rather than a sentinel value so
downstream consumers can skip them without NaN contagion.

Sibuya's dependence ratio ``F(x, y) / (G(x) H(y))`` is also provided for all
classes as a CDF-level contrast to the pointwise lift.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import distributions as dm
from .distributions import DENSITY_FLOOR, ON_CURVE_TOL
from .errors import UndefinedAtPoint
from .quadrature import adaptive_quad_1d, adaptive_quad_2d

__all__ = [
    "RegionLabel",
    "LiftField",
    "RegionSummary",
    "ANALYTIC_TOL",
    "ESTIMATED_TOL",
    "ON_CURVE_TOL",
    "classify_values",
    "discrete_lift",
    "continuous_lift_at",
    "curve_lift_at",
    "lift_at",
    "sibuya_omega_at",
    "lift_grid",
    "region_summary",
]

ANALYTIC_TOL = 1e-9
ESTIMATED_TOL = 0.05


class RegionLabel(enum.StrEnum):
    LIFT = "Lift"
    INHIBIT = "Inhibit"
    NEUTRAL = "Neutral"
    ZERO = "Zero"
    UNDEFINED = "Undefined"


@dataclass(frozen=True, eq=False)
class LiftField:
    """Lift values and region labels on a rectangular grid.

    ``values[i, j]`` is the lift at ``(grid_x[i], grid_y[j])``; undefined
    cells hold NaN and the label matrix is authoritative for them.
    """

    grid_x: np.ndarray
    grid_y: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    tol: float

    def to_csv(self, f: io.TextIOBase) -> None:
        """Row-major ``x,y,L,label`` rows with 17-significant-digit floats; each
        grid coordinate is formatted once, not once per row or column."""
        gx, gy = dm.csv_floats(self.grid_x), dm.csv_floats(self.grid_y)
        x, y = np.repeat(gx, gy.size), np.tile(gy, gx.size)
        dm.write_csv(f, ("x", "y", "L", "label"), x, y, self.values.ravel(), self.labels.ravel())


@dataclass(frozen=True)
class RegionSummary:
    """Product-measure masses of the lift, inhibition, and neutral regions."""

    mass_lift: float
    mass_inhibit: float
    mass_neutral: float

    def to_dict(self) -> dict:
        return asdict(self)


def classify_values(values: np.ndarray, tol: float) -> np.ndarray:
    """Label an array of lift values; NaN entries become Undefined."""
    values = np.asarray(values, dtype=float)
    labels = np.empty(values.shape, dtype=object)
    labels.fill(RegionLabel.NEUTRAL)
    labels[values > 1.0 + tol] = RegionLabel.LIFT
    labels[(values > 0.0) & (values < 1.0 - tol)] = RegionLabel.INHIBIT
    labels[values == 0.0] = RegionLabel.ZERO
    labels[np.isnan(values)] = RegionLabel.UNDEFINED
    return labels


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------


def discrete_lift(dist: dm.DiscreteJoint, tol: float = ANALYTIC_TOL) -> LiftField:
    """Lift table ``p / (p_X p_Y)`` over the full discrete support.

    Cells whose product marginal vanishes (necessarily zero-probability
    cells) are labeled Undefined.
    """
    return lift_grid(dist, dist.x_support.copy(), dist.y_support.copy(), tol)


def lift_at(dist, point) -> float:
    """Pointwise lift: a one-point :func:`lift_grid`.

    Raises OutOfSupport for a label outside a discrete support, and
    UndefinedAtPoint where the lift is undefined (a vanishing marginal).
    """
    x, y = float(point[0]), float(point[1])
    if isinstance(dist, dm.DiscreteJoint):
        dm.density_at(dist, (x, y))  # raises OutOfSupport off the support
    value = float(lift_grid(dist, [x], [y]).values[0, 0])
    if math.isnan(value):
        raise UndefinedAtPoint(f"lift undefined at ({x:.6g}, {y:.6g})")
    return value


# The per-class pointwise names share the one path.
continuous_lift_at = curve_lift_at = lift_at


# ---------------------------------------------------------------------------
# Sibuya's dependence ratio F / (G * H)
# ---------------------------------------------------------------------------


def _interval_mass(pdf, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    return adaptive_quad_1d(pdf, lo, hi, tol=1e-10).value


def _sublevel_intervals(branch: dm.CurveBranch, y: float) -> list[tuple[float, float]]:
    """Sub-intervals of the branch domain where phi <= y, piece by piece."""
    out = []
    for a, b, sign in dm.monotone_pieces(branch):
        va, vb = float(branch.phi(a)), float(branch.phi(b))
        lo_val, hi_val = (va, vb) if va <= vb else (vb, va)
        if y < lo_val:
            continue
        if y >= hi_val:
            out.append((a, b))
            continue
        cut = float(dm.bisect_roots(branch.phi, y, a, b))
        out.append((a, cut) if sign >= 0 else (cut, b))
    return out


def sibuya_omega_at(dist, point) -> float:
    """Sibuya's dependence ratio ``F(x, y) / (G(x) H(y))``.

    Joint and marginal CDFs are computed by partial sums (discrete), adaptive
    quadrature over the integration box (continuous; infinite ends through
    the sinh map of ``quadrature``), or the X-marginal mass of
    ``{x' <= x : phi(x') <= y}`` (curve-singular).

    A continuous family's CDFs are those of its law truncated to the box, so
    near the lower edge of a finite box omega carries the truncation bias:
    for ``BivariateNormal(0.6)`` (box edge -8) it is 4.6e-5 low at (-6, -6),
    0.97% low at (-7, -7) and 10.9% low at (-7.5, -7.5). The quadrature itself
    matches the exact truncated-box ratio there to about 4e-12, so its
    absolute 1e-8 tolerance on ``F`` is not the cause.

    Raises ValueError for a NaN coordinate; ``±inf`` is a valid coordinate.
    """
    x, y = float(point[0]), float(point[1])
    if math.isnan(x) or math.isnan(y):
        raise ValueError(f"Sibuya ratio needs a point without NaN, got ({x}, {y})")
    if isinstance(dist, dm.DiscreteJoint):
        mx = dist.x_support <= x
        my = dist.y_support <= y
        g = float(dist.p_x[mx].sum())
        h = float(dist.p_y[my].sum())
        if g == 0.0 or h == 0.0:
            raise UndefinedAtPoint(f"a marginal CDF is zero at ({x}, {y})")
        f_joint = float(dist.pmf[np.ix_(mx, my)].sum())
        return f_joint / (g * h)
    if isinstance(dist, dm.CurveSingularJoint):
        lo, hi = dist.support_x
        g = _interval_mass(dist.marginal_x, lo, min(x, hi))
        h = 0.0
        f_joint = 0.0
        for branch in dist.branches:
            for a, b in _sublevel_intervals(branch, y):
                a = max(a, lo)
                b = min(b, hi)
                h += branch.weight * _interval_mass(dist.marginal_x, a, b)
                f_joint += branch.weight * _interval_mass(dist.marginal_x, a, min(b, x))
        if g == 0.0 or h == 0.0:
            raise UndefinedAtPoint(f"a marginal CDF is zero at ({x}, {y})")
        return f_joint / (g * h)
    x_lo, x_hi, y_lo, y_hi = dist.integration_box
    g = _interval_mass(dist.marginal_x, x_lo, min(x, x_hi))
    h = _interval_mass(dist.marginal_y, y_lo, min(y, y_hi))
    if g < DENSITY_FLOOR or h < DENSITY_FLOOR:
        raise UndefinedAtPoint(f"a marginal CDF is zero at ({x:.6g}, {y:.6g})")
    quadrant = (x_lo, min(x, x_hi), y_lo, min(y, y_hi))
    f_joint = adaptive_quad_2d(dist.joint_density, quadrant, tol=1e-8).value
    return f_joint / (g * h)


# ---------------------------------------------------------------------------
# Grids and region masses
# ---------------------------------------------------------------------------


def lift_grid(dist, grid_x, grid_y, tol: float = ANALYTIC_TOL) -> LiftField:
    """Evaluate the lift on a rectangular grid with region labels.

    Pointwise failures (off-support labels, vanishing marginals, folds of a
    curve branch) become Undefined cells instead of raising. Grids must be
    strictly increasing and free of NaN, or ValueError is raised.
    """
    grid_x = np.asarray(grid_x, dtype=float)
    grid_y = np.asarray(grid_y, dtype=float)
    if grid_x.size < 1 or grid_y.size < 1:
        raise ValueError("grids must be nonempty")
    if np.isnan(grid_x).any() or np.isnan(grid_y).any():
        raise ValueError("grids must not contain NaN")
    if any(np.any(g[1:] <= g[:-1]) for g in (grid_x, grid_y)):
        raise ValueError("grids must be strictly increasing")

    values = np.asarray(dist.lift(grid_x[:, None], grid_y), dtype=float)
    return LiftField(grid_x, grid_y, values, classify_values(values, tol), tol)


def region_summary(dist, tol: float = ANALYTIC_TOL) -> RegionSummary:
    """Masses of ``{L > 1 + tol}``, ``{L < 1 - tol}``, and the remainder
    under the product of the marginals.

    The cells and masses are the class's ``lift_cells``. Discrete joints are
    summed exactly. Continuous joints are evaluated on a quantile-spaced grid
    so every cell carries identical product mass; the only error is
    boundary-cell misclassification. Curve-singular joints raise
    CurveSingularHasNoDensity.
    """
    values, weights = dist.lift_cells()
    weights = np.broadcast_to(weights, values.shape)
    lift_mass = float(weights[values > 1.0 + tol].sum())
    inhibit_mass = float(weights[values < 1.0 - tol].sum())
    return RegionSummary(lift_mass, inhibit_mass, 1.0 - lift_mass - inhibit_mass)
