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
mesh is built): a discrete lift table is the grid of the support, and the
pointwise lift a one-point grid that raises UndefinedAtPoint where its cell is
undefined. A field holds copies of its grids, never a caller's arrays.

Grid cells where the value is undefined (a vanishing marginal, an off-support
discrete label) carry the ``Undefined`` label rather than a sentinel value so
downstream consumers can skip them without NaN contagion.

Sibuya's dependence ratio ``F(x, y) / (G(x) H(y))`` is also provided for all
classes as a CDF-level contrast to the pointwise lift; the three CDFs are the
class's ``sibuya_parts(x, y)``.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import codec
from . import distributions as dm
from .errors import UndefinedAtPoint

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
        grid coordinate is formatted once and its text repeated."""
        gx, gy = codec._float_cells(self.grid_x), codec._float_cells(self.grid_y)
        x, y = np.repeat(gx, gy.size), np.tile(gy, gx.size)
        codec.write_csv(f, ("x", "y", "L", "label"), x, y, self.values.ravel(), self.labels.ravel())


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


def lift_at(dist, point) -> float:
    """Pointwise lift: a one-point :func:`lift_grid`.

    Raises ValueError unless ``point`` is a pair of numbers without NaN,
    OutOfSupport for a label outside a discrete support (``±inf`` included),
    and UndefinedAtPoint where the lift is undefined (a vanishing marginal).
    """
    x, y = codec._pair(point, "point")
    value = float(lift_grid(dist, [x], [y]).values[0, 0])
    if math.isnan(value):
        if isinstance(dist, dm.DiscreteJoint):
            dist.joint_density(x, y)  # raises OutOfSupport off the support
        raise UndefinedAtPoint(f"lift undefined at ({x:.6g}, {y:.6g})")
    return value


# ---------------------------------------------------------------------------
# Sibuya's dependence ratio F / (G * H)
# ---------------------------------------------------------------------------


def sibuya_omega_at(dist, point) -> float:
    """Sibuya's dependence ratio ``F(x, y) / (G(x) H(y))``.

    The joint and marginal CDFs are the class's ``sibuya_parts``: partial
    sums (discrete); for a continuous family that declares
    ``conditional_cdf_y`` (bivariate normal, circular Cauchy) the closed-form
    marginal CDFs and the conditional CDF integrated over a half line,
    relative-accurate and untruncated, else adaptive quadrature over the box;
    or X-marginal masses of sublevel sets of the branches (curve-singular).

    Raises ValueError unless ``point`` is a pair of numbers without NaN
    (``±inf`` is valid). Raises UndefinedAtPoint where ``G`` or ``H`` is
    below DENSITY_FLOOR or their product is below ``sys.float_info.min``,
    where it has lost digits; on the conditional route also where ``F``
    cannot be found to its tolerance (see ``ContinuousFamily.sibuya_parts``).
    """
    x, y = codec._pair(point, "point")
    if math.isnan(x) or math.isnan(y):
        raise ValueError(f"Sibuya ratio needs a point without NaN, got ({x}, {y})")
    f_joint, g, h = dist.sibuya_parts(x, y)
    if dm._sibuya_vanishes(g, h):
        raise UndefinedAtPoint(f"G(x) H(y) vanishes at ({x:.6g}, {y:.6g})")
    return f_joint / (g * h)


# ---------------------------------------------------------------------------
# Grids and region masses
# ---------------------------------------------------------------------------


def check_grids(grid_x, grid_y) -> tuple[np.ndarray, np.ndarray]:
    """The two axes of a lift grid as new float arrays, so a field owns its
    grids. Raises ValueError unless each is 1D, nonempty, free of NaN and
    strictly increasing."""
    grid_x = np.array(grid_x, dtype=float)
    grid_y = np.array(grid_y, dtype=float)
    if grid_x.ndim != 1 or grid_y.ndim != 1:
        raise ValueError(f"grids must be 1D, got grid_x {grid_x.shape} and grid_y {grid_y.shape}")
    if grid_x.size < 1 or grid_y.size < 1:
        raise ValueError("grids must be nonempty")
    if np.isnan(grid_x).any() or np.isnan(grid_y).any():
        raise ValueError("grids must not contain NaN")
    if any(np.any(g[1:] <= g[:-1]) for g in (grid_x, grid_y)):
        raise ValueError("grids must be strictly increasing")
    return grid_x, grid_y


def lift_grid(dist, grid_x, grid_y, tol: float = ANALYTIC_TOL) -> LiftField:
    """Evaluate the lift on a rectangular grid with region labels.

    Pointwise failures (off-support labels, vanishing marginals, folds of a
    curve branch) become Undefined cells instead of raising. Grids must pass
    :func:`check_grids`, and ``tol`` must be positive and finite (a NaN or
    infinite one labels every cell Neutral), or ValueError is raised.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    grid_x, grid_y = check_grids(grid_x, grid_y)
    values = np.asarray(dist.lift(grid_x[:, None], grid_y), dtype=float)
    return LiftField(grid_x, grid_y, values, classify_values(values, tol), tol)


def region_summary(dist, tol: float = ANALYTIC_TOL) -> RegionSummary:
    """Masses of ``{L > 1 + tol}``, ``{L < 1 - tol}``, and the remainder
    under the product of the marginals.

    The cells and masses are the class's ``lift_cells``. Discrete joints are
    summed exactly. Continuous joints are evaluated on a quantile-spaced grid
    so every cell carries identical product mass; the only error is
    boundary-cell misclassification. Curve-singular joints raise
    CurveSingularHasNoDensity; ``tol`` must be positive and finite.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    values, weights = dist.lift_cells()
    weights = np.broadcast_to(weights, values.shape)
    lift_mass = float(weights[values > 1.0 + tol].sum())
    inhibit_mass = float(weights[values < 1.0 - tol].sum())
    return RegionSummary(lift_mass, inhibit_mass, 1.0 - lift_mass - inhibit_mass)
