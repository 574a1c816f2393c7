"""Pointwise and grid evaluation of the lift function, and region summaries.

The lift at a point compares the joint law with the product of the marginals:
values above one mean the coordinates mutually lift each other there, values
below one mean they inhibit, one means local independence. Each joint class
gets its own evaluation rule:

* discrete: pmf ratio ``p / (p_X p_Y)``, read from the :func:`discrete_lift`
  table;
* absolutely continuous: the family's elementwise ``lift`` -- the density
  ratio, or the family's closed form where it has one (bivariate normal);
* curve-singular: zero off the branches and
  ``2 a_n / (pi rho_Y(phi_n(x)) sqrt(1 + phi_n'(x)^2))`` on branch n.

:func:`lift_grid` is the one evaluation path: the pointwise lift is a
one-point grid that raises UndefinedAtPoint where its cell is undefined.

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
from dataclasses import dataclass

import numpy as np

from . import distributions as dm
from .distributions import DENSITY_FLOOR
from .errors import DerivativeVanishes, UndefinedAtPoint
from .quadrature import adaptive_quad_1d, adaptive_quad_2d, core_tail_cells

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
ON_CURVE_TOL = 1e-9

REGION_GRID_N = 1024


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
        """Row-major ``x,y,L,label`` rows with 17-significant-digit floats."""
        x, y = np.repeat(self.grid_x, self.grid_y.size), np.tile(self.grid_y, self.grid_x.size)
        dm.write_csv(f, ("x", "y", "L", "label"), x, y, self.values.ravel(), self.labels.ravel())


@dataclass(frozen=True)
class RegionSummary:
    """Product-measure masses of the lift, inhibition, and neutral regions."""

    mass_lift: float
    mass_inhibit: float
    mass_neutral: float

    def to_dict(self) -> dict:
        return {
            "mass_lift": self.mass_lift,
            "mass_inhibit": self.mass_inhibit,
            "mass_neutral": self.mass_neutral,
        }


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
    denom = np.outer(dist.p_x, dist.p_y)
    values = np.full(dist.pmf.shape, np.nan)
    defined = denom > 0
    values[defined] = dist.pmf[defined] / denom[defined]
    return LiftField(
        grid_x=dist.x_support.copy(),
        grid_y=dist.y_support.copy(),
        values=values,
        labels=classify_values(values, tol),
        tol=tol,
    )


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
    quadrature over the integration box (continuous), or the X-marginal mass
    of ``{x' <= x : phi(x') <= y}`` (curve-singular).
    """
    x, y = float(point[0]), float(point[1])
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
    if x <= x_lo or y <= y_lo:
        return 0.0
    quadrant = (x_lo, min(x, x_hi), y_lo, min(y, y_hi))
    f_joint = adaptive_quad_2d(dist.joint_density, core_tail_cells(quadrant), tol=1e-8).value
    return f_joint / (g * h)


# ---------------------------------------------------------------------------
# Grids and region masses
# ---------------------------------------------------------------------------


def lift_grid(dist, grid_x, grid_y, tol: float = ANALYTIC_TOL) -> LiftField:
    """Evaluate the lift on a rectangular grid with region labels.

    Pointwise failures (off-support labels, vanishing marginals, folds of a
    curve branch) become Undefined cells instead of raising.
    """
    grid_x = np.asarray(grid_x, dtype=float)
    grid_y = np.asarray(grid_y, dtype=float)
    if grid_x.size < 1 or grid_y.size < 1:
        raise ValueError("grids must be nonempty")
    if any(np.any(g[1:] <= g[:-1]) for g in (grid_x, grid_y)):
        raise ValueError("grids must be strictly increasing")

    if isinstance(dist, dm.DiscreteJoint):
        table = discrete_lift(dist, tol).values
        ix = np.minimum(np.searchsorted(dist.x_support, grid_x), dist.x_support.size - 1)
        iy = np.minimum(np.searchsorted(dist.y_support, grid_y), dist.y_support.size - 1)
        on = np.outer(dist.x_support[ix] == grid_x, dist.y_support[iy] == grid_y)
        values = np.where(on, table[np.ix_(ix, iy)], np.nan)
    elif isinstance(dist, dm.CurveSingularJoint):
        values = _curve_grid(dist, grid_x, grid_y)
    else:
        xx, yy = np.meshgrid(grid_x, grid_y, indexing="ij")
        values = np.asarray(dist.lift(xx, yy), dtype=float)
    return LiftField(grid_x, grid_y, values, classify_values(values, tol), tol)


def _curve_grid(dist: dm.CurveSingularJoint, grid_x, grid_y) -> np.ndarray:
    """Curve-singular lift on a grid; the smallest branch index wins a cell.

    A cell is on branch n when ``|y - phi_n(x)| <= ON_CURVE_TOL``. The
    Y-marginal is evaluated once per branch, on every on-curve ``phi_n(x)``,
    or point by point if a fold (a preimage with a flat slope) makes the batch
    raise DerivativeVanishes; cells at a fold become Undefined.
    """
    values = np.zeros((grid_x.size, grid_y.size))
    rho_y = dist.marginal_y_fn()
    for branch in dist.branches:
        lo, hi = branch.domain
        rows = np.flatnonzero((grid_x >= lo) & (grid_x <= hi))
        phi_x = np.asarray(branch.phi(grid_x[rows]), dtype=float)
        on = np.abs(grid_y - phi_x[:, None]) <= ON_CURVE_TOL
        hit = on.any(axis=1)
        rows, phi_x, on = rows[hit], phi_x[hit], on[hit]
        try:
            dens = np.asarray(rho_y(phi_x), dtype=float)
        except DerivativeVanishes:
            dens = np.array([_density_or_nan(rho_y, y) for y in phi_x])
        slope = np.asarray(branch.dphi(grid_x[rows]), dtype=float)
        with np.errstate(divide="ignore"):
            val = 2.0 * branch.weight / (math.pi * dens * np.hypot(1.0, slope))
        val[dens < DENSITY_FLOOR] = np.nan
        block = values[rows]
        values[rows] = np.where(on & (block == 0.0), val[:, None], block)
    return values


def _density_or_nan(rho_y, y: float) -> float:
    try:
        return float(rho_y(y))
    except DerivativeVanishes:
        return math.nan


def region_summary(dist, tol: float = ANALYTIC_TOL) -> RegionSummary:
    """Masses of ``{L > 1 + tol}``, ``{L < 1 - tol}``, and the remainder
    under the product of the marginals.

    Discrete joints are summed exactly. Continuous joints are evaluated on a
    quantile-spaced grid so every cell carries identical product mass; the
    only error is boundary-cell misclassification.
    """
    if isinstance(dist, dm.DiscreteJoint):
        weights = np.outer(dist.p_x, dist.p_y)
        field = discrete_lift(dist, tol)
        defined = ~np.isnan(field.values)
        lift_mass = float(weights[defined & (field.values > 1.0 + tol)].sum())
        inhibit_mass = float(weights[defined & (field.values < 1.0 - tol)].sum())
        return RegionSummary(lift_mass, inhibit_mass, 1.0 - lift_mass - inhibit_mass)
    if isinstance(dist, dm.CurveSingularJoint):
        raise TypeError("region_summary is not defined for curve-singular joints")

    u = (np.arange(REGION_GRID_N) + 0.5) / REGION_GRID_N
    gx = np.asarray(dist.quantile_x(u), dtype=float)
    gy = np.asarray(dist.quantile_y(u), dtype=float)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    values = np.asarray(dist.lift(xx, yy), dtype=float)
    cell = 1.0 / (REGION_GRID_N * REGION_GRID_N)
    lift_mass = float(np.count_nonzero(values > 1.0 + tol)) * cell
    inhibit_mass = float(np.count_nonzero(values < 1.0 - tol)) * cell
    return RegionSummary(lift_mass, inhibit_mass, 1.0 - lift_mass - inhibit_mass)
