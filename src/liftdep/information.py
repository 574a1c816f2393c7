"""Mutual information for all supported joint classes.

Mutual information is the expectation of ``log L`` under the joint law, in
nats throughout. Four evaluation routes exist:

* ``ExactSum`` -- finite sums for discrete joints;
* ``ClosedForm`` -- ``-0.5 * log(1 - r^2)`` for the bivariate normal;
* ``Quadrature`` -- adaptive 2D quadrature of ``rho * log L`` over the
  integration box, infinite ends through the sinh map of ``quadrature``; a
  family that declares ``conditional_map_y`` (the bivariate normal) is
  integrated in conditional coordinates ``(x, w)`` instead, as
  ``rho_X(x) phi(w) log L(x, conditional_map_y(x, w))``, which has no ridge.
  Only the part of the box left after folding on the family's declared
  ``reflections`` is integrated: a quadrant for the circular Cauchy, a half
  for the bivariate normal;
* ``CurveQuadrature`` -- a 1D integral of
  ``rho_X(x) * sum_n a_n log L(x, phi_n(x))`` for curve-singular joints.

A quadrature whose budget runs out with its error estimate above
``CONVERGENCE_FAILURE_TOL`` raises QuadratureNotConverged; there is no
sampling route.

Everywhere ``0 * log 0`` is taken as zero. Curve-singular mutual information
can legitimately be negative; nonnegativity is only an invariant of the
absolutely continuous and discrete routes.
"""

from __future__ import annotations

import enum
import functools
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import codec
from . import distributions as dm
from .errors import (
    DegenerateCorrelation, DerivativeVanishes, QuadratureNotConverged, UndefinedAtPoint
)
from .quadrature import (
    DEFAULT_BUDGET_2D, RULE_1D, _eval_cells, adaptive_quad_1d, adaptive_quad_2d, check_quad_args
)

CONVERGENCE_FAILURE_TOL = 1e-3

# Equal seed cells of each fold-free monotone piece in mi_curve. A heap step
# costs ~60-90 us of numpy overhead whatever its node count, and a 1D cell
# ~1-2 us, so a partition handed to the first integrand call beats one the
# heap reaches by bisection. On the normal curve specs (X ~ N(0, 1) on
# [-8, 8], Y = X or 2X) one cell per piece takes 4 steps and 242 evaluations
# at tol = 1e-8; 4 cells take 2 steps, 8 cells 1 step (176 evaluations) and
# 16 cells 1 step at twice the evaluations.
CURVE_SEED_CELLS = 8


class MiMethod(str, enum.Enum):
    EXACT_SUM = "ExactSum"
    QUADRATURE = "Quadrature"
    CLOSED_FORM = "ClosedForm"
    CURVE_QUADRATURE = "CurveQuadrature"


@dataclass(frozen=True)
class MiReport:
    """A mutual-information value with its provenance and error estimate.

    ``converged`` (the quadrature's error estimate met its tolerance),
    ``n_cells`` (cells in its final partition), ``budget_exhausted`` (the
    evaluation budget stopped it) and ``n_steps`` (heap steps, one integrand
    call each) describe the quadrature routes, and the exact routes keep the
    defaults. They are not part of the JSON output.
    """

    value: float
    method: MiMethod
    abs_error_estimate: float
    n_evals: int
    converged: bool = True
    n_cells: int = 0
    budget_exhausted: bool = False
    n_steps: int = 0

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be nonnegative")
        if self.method in (MiMethod.EXACT_SUM, MiMethod.CLOSED_FORM) and self.value < -1e-9:
            raise ValueError("exact mutual information cannot be negative")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method.value,
            "abs_error_estimate": self.abs_error_estimate,
            "n_evals": self.n_evals,
        }


def _quad_report(result, method: MiMethod) -> MiReport:
    """The report of a quadrature route: value, error and counts of its QuadResult."""
    return MiReport(
        value=result.value,
        method=method,
        abs_error_estimate=result.error,
        n_evals=result.n_evals,
        converged=result.converged,
        n_cells=result.n_cells,
        budget_exhausted=result.budget_exhausted,
        n_steps=result.n_steps,
    )


def mi_discrete(dist: dm.DiscreteJoint) -> MiReport:
    """Exact sum of ``p * log(p / (p_X p_Y))`` over positive-probability cells."""
    mask = dist.pmf > 0
    value = float(np.sum(dist.pmf[mask] * np.log(dist.lift_table[mask])))
    return MiReport(
        value=max(value, 0.0),
        method=MiMethod.EXACT_SUM,
        abs_error_estimate=0.0,
        n_evals=int(mask.sum()),
    )


def mi_bvn_closed_form(r: float) -> MiReport:
    """``-0.5 * log(1 - r^2)`` for the standard bivariate normal."""
    if not abs(r) < 1:
        raise DegenerateCorrelation(f"|r| must be < 1, got r={r}")
    return MiReport(
        value=-0.5 * math.log1p(-r * r),
        method=MiMethod.CLOSED_FORM,
        abs_error_estimate=0.0,
        n_evals=1,
    )


def _mi_integrand(dist: dm.ContinuousFamily):
    """``rho log L`` over ``(x, y)``, with ``log L = log rho - log rho_X -
    log rho_Y``; 0 where any of the three vanishes."""

    def integrand(x, y):
        rho = np.asarray(dist.joint_density(x, y), dtype=float)
        mx = np.asarray(dist.marginal_x(x), dtype=float)
        my = np.asarray(dist.marginal_y(y), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_l = np.log(rho) - np.log(mx) - np.log(my)
            return np.where((rho > 0) & (mx > 0) & (my > 0), rho * log_l, 0.0)

    return integrand


def _conditional_mi_integrand(dist: dm.ContinuousFamily):
    """``rho_X(x) phi(w) log L(x, conditional_map_y(x, w))`` over ``(x, w)``: the
    Jacobian of the map cancels against the conditional density of Y."""

    def integrand(x, w):
        weight = dist.marginal_x(x) * dm.standard_normal_pdf(w)
        lift = np.asarray(dist.lift(x, dist.conditional_map_y(x, w)), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((weight > 0) & (lift > 0), weight * np.log(lift), 0.0)

    return integrand


def _own_mi_integrand(dist: dm.ContinuousFamily):
    """The MI integrand in the family's own coordinates: ``(x, w)`` where it
    declares ``conditional_map_y``, ``(x, y)`` otherwise."""
    if dist.conditional_map_y is None:
        return _mi_integrand(dist)
    return _conditional_mi_integrand(dist)


# the axes (0 is x, 1 is y) each reflection negates, and the reflections that
# fold each axis onto its nonnegative half
_NEGATED_AXES = {"x": (0,), "y": (1,), "xy": (0, 1)}
_FOLDS = ((0, {"x", "xy"}), (1, {"y"}))


def _folded_box(dist: dm.ContinuousFamily) -> tuple[tuple[float, ...], int]:
    """``(box, k)``: the integration box cut to ``x >= 0`` where ``dist``
    declares ``"x"`` or ``"xy"`` and to ``y >= 0`` where it declares ``"y"``,
    and the number ``k`` of axes cut, so the MI over the box is ``2^k`` times
    the MI over the cut box.

    Raises ValueError for an unknown reflection, for one other than ``"xy"``
    on a family integrated over ``(x, w)``, and for a box that is not
    symmetric about 0 on an axis a declared reflection negates.
    """
    box = list(dist.integration_box)
    declared = set(dist.reflections)
    if not declared <= _NEGATED_AXES.keys():
        raise ValueError(f"unknown reflections {sorted(declared - _NEGATED_AXES.keys())}")
    if dist.conditional_map_y is not None and declared - {"xy"}:
        raise ValueError("a family with conditional_map_y may declare only the reflection 'xy'")
    for axis in {a for name in declared for a in _NEGATED_AXES[name]}:
        lo, hi = box[2 * axis : 2 * axis + 2]
        if lo != -hi:
            raise ValueError(
                f"the integration box ({lo}, {hi}) of axis {'xy'[axis]} is not symmetric "
                "about 0, so it cannot be folded"
            )
    cut = [axis for axis, names in _FOLDS if declared & names]
    for axis in cut:
        box[2 * axis] = 0.0
    return tuple(box), len(cut)


def mi_continuous(dist, tol: float = 1e-6, budget: int = DEFAULT_BUDGET_2D) -> MiReport:
    """Adaptive 2D quadrature of ``rho * log L`` over the integration box.

    A family that declares ``conditional_map_y`` is integrated over ``(x, w)``
    (see :func:`_conditional_mi_integrand`): the bivariate normal's ridge
    ``y ~ x`` at ``|r|`` near 1 becomes a product of two standard normals
    times a smooth ``log L``, so r = 0.999 is exact instead of 0.030 nats low.
    The circular Cauchy stays on ``(x, y)``: over ``(x, w)`` it took three to
    seven times the evaluations and was 4e-8 off instead of 3e-11.

    The box is first folded on the family's ``reflections`` (see
    :func:`_folded_box`): ``k`` halved axes leave ``2^-k`` of it, the heap
    runs there with ``tol / 2^k``, and the value and error estimate are
    multiplied by ``2^k``, so the error bound is still ``tol``; ``n_evals``,
    ``n_cells`` and ``budget`` count the folded work. The circular Cauchy
    folds onto its first quadrant (21,576 evaluations instead of 86,072,
    3.3e-11 from ``log(8 pi) - 3`` either way), the bivariate normal onto
    ``x >= 0`` of its ``(x, w)`` box (about half the evaluations); a family
    that declares no reflection is integrated over its whole box.
    A finite box is seeded as a core square plus tail bands; a box with an
    infinite end (a heavy-tailed family) is integrated through
    ``x = c + sinh t`` (see :func:`adaptive_quad_2d`). ValueError is raised
    for a tolerance or budget :func:`~liftdep.quadrature.check_quad_args`
    refuses and for a box the reflections cannot fold. If the budget runs
    out with the nested-rule error estimate still above 1e-3,
    QuadratureNotConverged is raised.
    """
    check_quad_args(tol, budget)  # before the fold divides tol
    box, k = _folded_box(dist)
    folded = adaptive_quad_2d(_own_mi_integrand(dist), box, tol=tol / 2**k, budget=budget)
    result = replace(folded, value=folded.value * 2**k, error=folded.error * 2**k)
    if result.budget_exhausted and result.error > CONVERGENCE_FAILURE_TOL:
        raise QuadratureNotConverged(
            f"error estimate {result.error:.3g} > {CONVERGENCE_FAILURE_TOL:g} "
            f"after {result.n_evals} evaluations"
        )
    return _quad_report(result, MiMethod.QUADRATURE)


@functools.cache
def _log_end_error() -> float:
    """The 1D rule pair's error estimate ``|fine - coarse|`` for the integral
    of ``log t`` over (0, 1). A cell of width ``h`` that ends at a singularity
    ``k log|x - c|`` (plus a smooth part) gets an error estimate of about
    ``|k| h`` times it."""
    return _eval_cells(np.log, [(0.0, 1.0)])[1][0]


def _seed_breaks(dist: dm.CurveSingularJoint, tol: float) -> tuple[list[float], list[float]]:
    """``(graded, equal)``: the breaks :func:`mi_curve` adds to the piece
    bounds of its seeds, from one evaluation of each branch's ``dphi`` at its
    piece ends. A piece end ``c`` with ``|phi_n'(c)| < DERIVATIVE_FLOOR`` is a
    fold.

    ``graded`` grades the seeds toward every fold. At a fold ``c``,
    ``rho_Y(phi_n(x))`` grows like ``1 / |x - c|``, so the integrand has a
    ``rho_X(c) a_n log|x - c|`` singularity, and a cell of width ``|w|`` at
    ``c`` has an error estimate of about ``rho_X(c) a_n E |w|`` with
    ``E = _log_end_error()``: the heap bisects that cell until this is at
    most ``tol``, one bisection per step.

    ``equal`` cuts each piece with no fold at either end, as far as it lies
    inside ``support_x``, into ``CURVE_SEED_CELLS`` equal cells.
    """
    lo, hi = dist.support_x
    graded, equal = [], []
    for branch, pieces in zip(dist.branches, dist.pieces):
        bounds = np.array([piece[:2] for piece in pieces], dtype=float)
        ends, widths = bounds.ravel(), (bounds[:, ::-1] - bounds).ravel()
        fold = np.abs(np.asarray(branch.dphi(ends), dtype=float)) < dm.DERIVATIVE_FLOOR
        for (a, b), at_a, at_b in zip(bounds.tolist(), fold[0::2].tolist(), fold[1::2].tolist()):
            a, b = max(a, lo), min(b, hi)
            if a < b and not (at_a or at_b):
                equal += [a + (b - a) * k / CURVE_SEED_CELLS for k in range(1, CURVE_SEED_CELLS)]
        if not fold.any():
            continue
        rho = np.asarray(dist.marginal_x(ends[fold]), dtype=float)
        for c, w, r in zip(ends[fold].tolist(), widths[fold].tolist(), rho.tolist()):
            scale = r * branch.weight * _log_end_error()
            while scale * abs(w) > tol and c + w / 2 != c:
                w /= 2
                graded.append(c + w)
    return graded, equal


def mi_curve(
    dist: dm.CurveSingularJoint,
    tol: float = 1e-8,
    budget: int = 2**18,
) -> MiReport:
    """1D quadrature of ``rho_X(x) * sum_n a_n log L(x, phi_n(x))``.

    The heap is seeded with one cell between each pair of consecutive
    monotone-piece bounds of the branches (domain ends included) inside
    ``support_x``, so no node falls on a fold, where ``phi_n'`` vanishes.
    The pieces are found once per law (``dist.pieces``) and also serve the
    on-curve Y-marginal (:meth:`CurveSingularJoint.on_curve_marginal_y`).

    A piece end ``c`` with ``|phi_n'(c)| < DERIVATIVE_FLOOR`` is a fold, where
    the integrand has a log singularity, and the seeds are graded toward it
    (:func:`_seed_breaks`): breaks at ``c + w/2, c + w/4, ...`` for the signed
    width ``w`` of the piece, halving while ``rho_X(c) a_n E |w| > tol`` and
    ``c + w/2 != c``, where ``E = |fine - coarse|`` of the 1D rule pair on
    ``log t`` over (0, 1) (8.63e-3 for the (7, 15) pair). That is the
    partition the heap would reach by one bisection per step, handed to it in
    its first integrand call (``curve-uniform-square`` converges in one
    step).

    A piece with no fold at either end is cut instead into
    ``CURVE_SEED_CELLS`` equal cells over its part inside ``support_x``, so
    the normal curve specs converge in one step instead of four. These equal
    breaks are all left out when the seed cells they make would take the
    first integrand call past ``budget`` evaluations.

    Raises ValueError on a ``tol`` or ``budget`` that
    :func:`~liftdep.quadrature.check_quad_args` refuses. Where ``rho_X > 0``
    at a node, raises DerivativeVanishes if the derived Y-marginal is NaN
    there (a preimage of ``phi_n(x)`` lies at a fold), and else
    UndefinedAtPoint if the Y-marginal is 0, negative or NaN there.
    """
    check_quad_args(tol, budget)  # before tol sets the grading depth
    lo, hi = dist.support_x
    breaks = {end for pieces in dist.pieces for piece in pieces for end in piece[:2]}
    graded, equal = _seed_breaks(dist, tol)
    breaks.update(graded)
    seeded = breaks.union(equal)
    if (sum(lo < p < hi for p in seeded) + 1) * sum(RULE_1D) <= budget:
        breaks = seeded

    def integrand(x):
        x = np.asarray(x, dtype=float)
        rho = np.asarray(dist.marginal_x(x), dtype=float)
        total = np.zeros_like(x)
        for n, branch in enumerate(dist.branches):
            if branch.weight == 0.0:
                continue
            a, b = branch.domain
            inside = (x >= a) & (x <= b)
            if not np.any(inside):
                continue
            x_in = x[inside]
            slope = np.asarray(branch.dphi(x_in), dtype=float)
            dens_y = dist.on_curve_marginal_y(n, x_in)
            positive = rho[inside] > 0
            if dist.marginal_y is None and np.any(np.isnan(dens_y) & positive):
                raise DerivativeVanishes("Y-marginal is NaN on the curve where rho_X > 0: a fold")
            if np.any(~(dens_y > 0) & positive):
                raise UndefinedAtPoint("Y-marginal is 0 or NaN on the curve where rho_X > 0")
            # dens_y > 0 wherever rho_X > 0, and rho_X = 0 drops the rest
            log_l = (
                math.log(2.0 * branch.weight / math.pi)
                - np.log(np.where(dens_y > 0, dens_y, 1.0))
                - 0.5 * np.log1p(slope * slope)
            )
            total[inside] += branch.weight * log_l
        return np.where(rho > 0, rho * total, 0.0)

    result = adaptive_quad_1d(integrand, lo, hi, tol=tol, budget=budget, breaks=breaks)
    return _quad_report(result, MiMethod.CURVE_QUADRATURE)


# ---------------------------------------------------------------------------
# Convergence-in-law counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Closed-form MI along a correlation schedule vs the singular limit.

    ``rows`` holds ``(r, mi, exceeds)`` where ``exceeds`` flags schedule
    entries whose MI is already above the mutual information of the
    limiting on-the-diagonal law.
    """

    rows: tuple[tuple[float, float, bool], ...]
    limit_mi: float

    def to_csv(self, f: io.TextIOBase) -> None:
        r, mi, exceeds = zip(*self.rows) if self.rows else ((), (), ())
        limit, flags = np.full(len(r), self.limit_mi), [str(e).lower() for e in exceeds]
        codec.write_csv(f, ("r", "mi", "limit_mi", "exceeds"), r, mi, limit, flags)


def convergence_counterexample(r_schedule) -> ConvergenceReport:
    """MI along increasing correlations against the singular-limit MI.

    The bivariate-normal MI grows without bound as r -> 1 while the law
    converges to the identity-curve joint, whose MI is finite -- so the MI
    of the limit is not the limit of the MI.
    """
    schedule = [float(r) for r in r_schedule]
    if any(not abs(r) < 1 for r in schedule):
        raise DegenerateCorrelation("every scheduled correlation needs |r| < 1")
    if any(b <= a for a, b in zip(schedule[:-1], schedule[1:])):
        raise ValueError("r_schedule must be strictly increasing")
    limit = mi_curve(dm.named_curve("curve-normal-identity")).value
    rows = []
    for r in schedule:
        mi = mi_bvn_closed_form(r).value
        rows.append((r, mi, mi > limit))
    return ConvergenceReport(rows=tuple(rows), limit_mi=limit)
