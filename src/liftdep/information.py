"""Mutual information for all supported joint classes.

Mutual information is the expectation of ``log L`` under the joint law, in
nats throughout. Four evaluation routes exist:

* ``ExactSum`` -- finite sums for discrete joints;
* ``ClosedForm`` -- ``-0.5 * log(1 - r^2)`` for the bivariate normal;
* ``Quadrature`` -- adaptive 2D quadrature of ``rho * log L`` over the
  integration box with core/tail splitting for heavy tails;
* ``CurveQuadrature`` -- a 1D integral of
  ``rho_X(x) * sum_n a_n log L(x, phi_n(x))`` for curve-singular joints.

A ``MonteCarlo`` fallback (sample mean of ``log L`` with a CLT error bar) can
be requested for integrands whose quadrature budget runs out.

Everywhere ``0 * log 0`` is taken as zero. Curve-singular mutual information
can legitimately be negative; nonnegativity is only an invariant of the
absolutely continuous and discrete routes.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dm
from .errors import DegenerateCorrelation, QuadratureNotConverged, UndefinedAtPoint
from .quadrature import DEFAULT_BUDGET_2D, adaptive_quad_1d, adaptive_quad_2d, core_tail_cells

__all__ = [
    "MiMethod",
    "MiReport",
    "ConvergenceReport",
    "mi_discrete",
    "mi_bvn_closed_form",
    "mi_continuous",
    "mi_curve",
    "convergence_counterexample",
    "CONVERGENCE_FAILURE_TOL",
]

CONVERGENCE_FAILURE_TOL = 1e-3


class MiMethod(str, enum.Enum):
    EXACT_SUM = "ExactSum"
    QUADRATURE = "Quadrature"
    CLOSED_FORM = "ClosedForm"
    CURVE_QUADRATURE = "CurveQuadrature"
    MONTE_CARLO = "MonteCarlo"


@dataclass(frozen=True)
class MiReport:
    """A mutual-information value with its provenance and error estimate."""

    value: float
    method: MiMethod
    abs_error_estimate: float
    n_evals: int

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

    def to_json(self, f: io.TextIOBase) -> None:
        dm.write_json(f, self.to_dict())


def mi_discrete(dist: dm.DiscreteJoint) -> MiReport:
    """Exact sum of ``p * log(p / (p_X p_Y))`` over positive-probability cells."""
    denom = np.outer(dist.p_x, dist.p_y)
    mask = dist.pmf > 0
    value = float(np.sum(dist.pmf[mask] * np.log(dist.pmf[mask] / denom[mask])))
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
    def integrand(x, y):
        rho = np.asarray(dist.joint_density(x, y), dtype=float)
        mx = np.asarray(dist.marginal_x(x), dtype=float)
        my = np.asarray(dist.marginal_y(y), dtype=float)
        out = np.zeros_like(rho)
        ok = (rho > 0) & (mx > 0) & (my > 0)
        out[ok] = rho[ok] * (np.log(rho[ok]) - np.log(mx[ok]) - np.log(my[ok]))
        return out

    return integrand


def mi_continuous(
    dist,
    tol: float = 1e-6,
    budget: int = DEFAULT_BUDGET_2D,
    monte_carlo_fallback: bool = False,
    mc_samples: int = 2**20,
    seed: int = 42,
) -> MiReport:
    """Adaptive 2D quadrature of ``rho * log L`` over the integration box.

    The box is seeded as a core square plus tail bands with doubled node
    density, so heavy-tailed families converge too. If the nested-rule error
    estimate is still above 1e-3 when the budget runs out, either the Monte
    Carlo fallback kicks in (when requested and the family is sampleable) or
    QuadratureNotConverged is raised.
    """
    result = adaptive_quad_2d(
        _mi_integrand(dist), core_tail_cells(dist.integration_box), tol=tol, budget=budget
    )
    if result.error > CONVERGENCE_FAILURE_TOL:
        if monte_carlo_fallback:
            return _mi_monte_carlo(dist, mc_samples, seed)
        raise QuadratureNotConverged(
            f"error estimate {result.error:.3g} > {CONVERGENCE_FAILURE_TOL:g} "
            f"after {result.n_evals} evaluations"
        )
    return MiReport(
        value=result.value,
        method=MiMethod.QUADRATURE,
        abs_error_estimate=result.error,
        n_evals=result.n_evals,
    )


def _mi_monte_carlo(dist: dm.ContinuousFamily, n: int, seed: int) -> MiReport:
    pts = dm.sample(dist, n, seed)
    rho = np.asarray(dist.joint_density(pts[:, 0], pts[:, 1]), dtype=float)
    mx = np.asarray(dist.marginal_x(pts[:, 0]), dtype=float)
    my = np.asarray(dist.marginal_y(pts[:, 1]), dtype=float)
    ok = (rho > 0) & (mx > 0) & (my > 0)
    log_l = np.log(rho[ok]) - np.log(mx[ok]) - np.log(my[ok])
    stderr = float(np.std(log_l, ddof=1) / math.sqrt(log_l.size))
    return MiReport(
        value=float(np.mean(log_l)),
        method=MiMethod.MONTE_CARLO,
        abs_error_estimate=stderr,
        n_evals=n,
    )


def mi_curve(
    dist: dm.CurveSingularJoint,
    tol: float = 1e-8,
    budget: int = 2**18,
) -> MiReport:
    """1D quadrature of ``rho_X(x) * sum_n a_n log L(x, phi_n(x))``.

    Raises UndefinedAtPoint if ``log L`` is evaluated where the Y-marginal
    vanishes on a positive-density part of the X support.
    """
    rho_y = dist.marginal_y_fn()
    lo, hi = dist.support_x

    def integrand(x):
        x = np.asarray(x, dtype=float)
        rho = np.asarray(dist.marginal_x(x), dtype=float)
        total = np.zeros_like(x)
        for branch in dist.branches:
            if branch.weight == 0.0:
                continue
            a, b = branch.domain
            inside = (x >= a) & (x <= b)
            if not np.any(inside):
                continue
            phi_x = np.asarray(branch.phi(x[inside]), dtype=float)
            slope = np.asarray(branch.dphi(x[inside]), dtype=float)
            dens_y = np.asarray(rho_y(phi_x), dtype=float)
            if np.any((dens_y <= 0) & (rho[inside] > 0)):
                raise UndefinedAtPoint(
                    "Y-marginal vanishes on the curve over a positive-density x set"
                )
            log_l = np.where(
                dens_y > 0,
                math.log(2.0 * branch.weight / math.pi)
                - np.log(np.where(dens_y > 0, dens_y, 1.0))
                - 0.5 * np.log1p(slope * slope),
                0.0,
            )
            contrib = np.zeros_like(x)
            contrib[inside] = branch.weight * log_l
            total += contrib
        return np.where(rho > 0, rho * total, 0.0)

    result = adaptive_quad_1d(integrand, lo, hi, tol=tol, budget=budget)
    return MiReport(
        value=result.value,
        method=MiMethod.CURVE_QUADRATURE,
        abs_error_estimate=result.error,
        n_evals=result.n_evals,
    )


# ---------------------------------------------------------------------------
# Convergence-in-law counterexample
# ---------------------------------------------------------------------------


def _identity_curve() -> dm.CurveSingularJoint:
    """X standard normal, Y = X with probability one."""
    branch = dm.CurveBranch(
        phi=lambda x: np.asarray(x, dtype=float),
        dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        domain=(-8.0, 8.0),
        weight=1.0,
    )
    return dm.CurveSingularJoint(
        marginal_x=dm.standard_normal_pdf,
        support_x=(-8.0, 8.0),
        branches=(branch,),
        marginal_y=dm.standard_normal_pdf,
    )


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
        dm.write_csv(f, ("r", "mi", "limit_mi", "exceeds"), r, mi, limit, flags)


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
    limit = mi_curve(_identity_curve()).value
    rows = []
    for r in schedule:
        mi = mi_bvn_closed_form(r).value
        rows.append((r, mi, mi > limit))
    return ConvergenceReport(rows=tuple(rows), limit_mi=limit)
