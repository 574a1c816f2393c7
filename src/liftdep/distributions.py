"""Joint-distribution classes and their densities, marginals, and samplers.

Three joint classes are supported. Each owns one rule per derived quantity,
so callers make one member call instead of branching on the class: its lift,
an elementwise ``lift(x, y)`` that is NaN where the lift is undefined; its
region cells, ``lift_cells()``; the CDFs of Sibuya's ratio,
``sibuya_parts(x, y) -> (F, G, H)``; and its targeting rates,
``target_rates(target, x_grid) -> (profiles, rates, baseline)``:

* :class:`DiscreteJoint` -- a finite pmf table over labeled supports; ``lift``
  and ``joint_density`` look up its cached ``lift_table`` and its pmf, the
  CDFs are partial sums and the rates the label ratios ``p(x, t) / p_X(x)``.
* Absolutely continuous joints -- :class:`ContinuousJoint` (density
  evaluators with an explicit integration box) and the named families
  :class:`BivariateNormal`, :class:`CircularCauchy` and
  :class:`IndependentProduct`. All four share one interface:
  ``joint_density(x, y)``, ``marginal_x``, ``marginal_y``,
  ``integration_box``, the members above, ``quantile_x``/``quantile_y`` and
  ``sample(n, rng)``. The defaults sit on :class:`ContinuousFamily`
  (density-ratio lift, CDFs and rates by quadrature over the box, quantiles
  tabulated over it, no sampler); each family overrides what it has in closed
  form, so its formulas live in one place. The bivariate normal and the
  Circular Cauchy also declare the conditional law of Y given X
  (``conditional_cdf_y`` with the marginal CDFs ``cdf_x``/``cdf_y``; the
  normal also ``conditional_map_y``), and then the Sibuya CDFs, the rates and
  the MI are integrals of it instead of the joint density: untruncated, one
  dimension fewer or free of the ridge ``y ~ x``.
* :class:`CurveSingularJoint` -- mass concentrated on the graphs of smooth
  branches ``y = phi_n(x)`` with absolutely continuous marginals. Its CDFs
  are X-marginal masses of sublevel sets of the branches. It has no density
  w.r.t. area measure (``joint_density``, ``integration_box``, ``lift_cells``
  and ``target_rates`` raise CurveSingularHasNoDensity). Its Y-marginal can be
  derived by the pushforward formula (sum of ``a_n * rho_X / |phi_n'|`` over
  preimages), whose preimages are found for many y at once by an elementwise
  bisection on the monotone pieces of each branch, found once per law
  (``pieces``). At an on-curve point ``y = phi_n(x)`` the point's own ``x``
  is the preimage on its piece, and only the other pieces are bisected
  (``on_curve_marginal_y``). A y with a preimage at a fold is a NaN element.

Density and marginal evaluators must be pure, vectorized functions: they take
scalars or ndarrays and return values of the same shape. All distribution
objects are immutable after construction and safe to share across threads.

Integration boxes are explicit, not inferred, and may have infinite ends.
A heavy-tailed family declares its unbounded support: the Circular Cauchy box
is ``(-inf, inf, -inf, inf)``, and the quadrature integrates an infinite end
through the map ``x = c + sinh t``, which drops ~1e-13 of the Cauchy mass
instead of the ~1e-5 mass and ~1e-4 nats a ``[-1e5, 1e5]^2`` truncation lost.
Readers of the box that need a finite range (the tabulated default quantiles,
a default targeting grid) raise ValueError on an unbounded axis.
"""

from __future__ import annotations

import io
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .codec import (
    _count, _csv_float, _pair, _read_csv, _two_product, read_samples_csv, write_csv,
    write_samples_csv,
)
from .errors import (
    CurveSingularHasNoDensity,
    DegenerateCorrelation,
    DerivativeVanishes,
    NonMonotonePiece,
    NotSampleable,
    OutOfSupport,
    TargetHasZeroMass,
    UndefinedAtPoint,
)
from .quadrature import adaptive_quad_1d, adaptive_quad_2d

Interval = tuple[float, float]
Box = tuple[float, float, float, float]
Evaluator = Callable[[np.ndarray], np.ndarray]

PMF_SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
DERIVATIVE_FLOOR = 1e-12
DENSITY_FLOOR = 1e-300
ON_CURVE_TOL = 1e-9
INVERSE_CDF_RESOLUTION = 4096
PROBE_GRID_SIZE = 1024
REGION_GRID_N = 1024
# Relative tolerance and evaluation budget of the conditional Sibuya integral,
# and the largest gap from 1 of its two sides' sum when both are integrated.
SIBUYA_RTOL = 1e-11
SIBUYA_BUDGET = 2**14
SIBUYA_MASS_TOL = 1e-9
# The largest finite Sibuya coordinate: beyond it the sinh map's reach, ~5e12
# times the coordinate, squares past the double range, and the Cauchy density
# underflows there while still carrying mass.
SIBUYA_MAX_COORD = 1e100


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def standard_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def standard_normal_cdf(x):
    """``Phi(x) = erfc(-x / sqrt 2) / 2``, elementwise, from the C library's
    ``erfc``: relative accuracy in the lower tail down to the underflow near
    ``x = -38`` (within about ``x^2`` ulps, from the rounding of ``x / sqrt 2``),
    and exactly 0 and 1 at ``-inf`` and ``inf``."""
    x = np.asarray(x, dtype=float)
    return 0.5 * np.asarray(_erfc(x * -math.sqrt(0.5)), dtype=float)


# Numerator and denominator coefficients, constant term first, of the three
# rational approximations of Wichura's AS 241 PPND16 (Appl. Statist. 37 (1988)
# 477-484): the centre |u - 1/2| <= 0.425, the tail r = sqrt(-log min(u, 1-u))
# <= 5, and the far tail beyond it.
_PPND16_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_PPND16_TAIL = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_PPND16_FAR_TAIL = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


def _rational(coeffs, t):
    """``P(t) / Q(t)`` by Horner's rule, coefficients constant term first."""
    num, den = (np.polyval(c[::-1], t) for c in coeffs)
    return num / den


def _compensated_rational(coeffs, t):
    """``P(t) / Q(t)`` as :func:`_rational` computes it, but with the rounding
    error of every Horner step kept by TwoProduct and TwoSum and summed by a
    second Horner pass (Graillat, Langlois & Louvet, 2005), and the quotient
    corrected by its exact residual: as accurate as the plain evaluation in
    twice the working precision, then rounded once."""
    parts = []
    for c in coeffs:
        s, err = np.full(t.shape, c[-1], dtype=t.dtype), np.zeros_like(t)
        for a in c[-2::-1]:
            p, p_err = _two_product(s, t)
            s = p + a
            z = s - p
            err = err * t + (p_err + ((p - (s - z)) + (a - z)))
        parts.append((s, err))
    (num, num_err), (den, den_err) = parts
    q = num / den
    p, p_err = _two_product(q, den)
    return q + (((num - p) - p_err) + num_err - q * den_err) / den


def standard_normal_quantile(u):
    """Inverse standard normal CDF, elementwise: Wichura's AS 241 (PPND16),
    about 1e-16 relative.

    ``u = 0`` gives ``-inf``, ``u = 1`` gives ``+inf``, and NaN or ``u``
    outside [0, 1] gives NaN. The rational functions are evaluated in
    ``np.longdouble`` and rounded once to double. In double, their rounding
    errors put the quantiles of neighbouring inputs out of order by an ulp.
    In the far tail (``u < exp(-25)``) one input ulp moves ``r`` by only a few
    long-double ulps, so there the rational is evaluated by compensated
    Horner; with the 64-bit mantissa of x86-64, a scan of neighbouring inputs
    found no reversed pair down to the smallest subnormal.
    """
    u = np.asarray(u, dtype=np.longdouble)
    x = np.full(u.shape, np.nan, dtype=np.longdouble)
    q = u - 0.5
    central = np.abs(q) <= 0.425
    qc = q[central]
    x[central] = qc * _rational(_PPND16_CENTRAL, 0.180625 - qc * qc)
    # Tested on u itself: for a tiny u, u - 0.5 rounds to -0.5.
    tail = (u > 0.0) & (u < 1.0) & ~central
    ut = u[tail]
    r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
    z = _rational(_PPND16_TAIL, r - 1.6)
    far = r > 5.0
    z[far] = _compensated_rational(_PPND16_FAR_TAIL, r[far] - 5.0)
    x[tail] = np.where(ut < 0.5, -z, z)
    x[u == 0.0] = -np.inf
    x[u == 1.0] = np.inf
    return x.astype(float)[()]


def uniform_pdf(lo: float = 0.0, hi: float = 1.0) -> Evaluator:
    """Density of the uniform law on [lo, hi] as a vectorized evaluator.
    Raises ValueError unless both ends are finite and ``lo < hi``."""
    _check_interval("uniform [lo, hi]", (lo, hi))
    height = 1.0 / (hi - lo)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), height, 0.0)

    return pdf


def _cauchy_pdf(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / (math.pi * (1.0 + x * x))


def _cauchy_cdf(x):
    """``1/2 + atan(x) / pi``, taken as ``atan(-1 / x) / pi`` below 0, where the
    sum would cancel."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):  # -1 / x at x >= 0 is discarded
        return np.where(x < 0.0, np.arctan(-1.0 / x) / math.pi, 0.5 + np.arctan(x) / math.pi)


# ---------------------------------------------------------------------------
# Distribution classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Finite joint pmf over sorted real labels.

    ``pmf[i, j]`` is P(X = x_support[i], Y = y_support[j]). Entries must be
    finite, nonnegative and sum to one within 1e-12; labels must be finite.
    """

    x_support: np.ndarray
    y_support: np.ndarray
    pmf: np.ndarray

    def __post_init__(self):
        for name in ("x_support", "y_support", "pmf"):  # read-only copies the law owns
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.pmf.shape != (self.x_support.size, self.y_support.size):
            raise ValueError("pmf shape must be (len(x_support), len(y_support))")
        if not all(np.all(np.isfinite(a)) for a in (self.x_support, self.y_support, self.pmf)):
            raise ValueError("pmf entries and support labels must be finite")
        if any(np.any(s[1:] <= s[:-1]) for s in (self.x_support, self.y_support)):
            raise ValueError("supports must be strictly increasing")
        if np.any(self.pmf < 0):
            raise ValueError("pmf entries must be nonnegative")
        if abs(float(self.pmf.sum()) - 1.0) > PMF_SUM_TOL:
            raise ValueError("pmf entries must sum to 1 within 1e-12")

    @property
    def p_x(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    @property
    def p_y(self) -> np.ndarray:
        return self.pmf.sum(axis=0)

    @cached_property
    def lift_table(self) -> np.ndarray:
        """Read-only ``p / (p_X p_Y)`` over the support; NaN where ``p_X p_Y`` is 0."""
        denom = np.outer(self.p_x, self.p_y)
        with np.errstate(divide="ignore", invalid="ignore"):
            table = np.where(denom > 0, self.pmf / denom, np.nan)
        table.flags.writeable = False
        return table

    def _cells(self, x, y):
        """Support indices of the points, and where both coordinates are labels."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        ix = np.minimum(np.searchsorted(self.x_support, x), self.x_support.size - 1)
        iy = np.minimum(np.searchsorted(self.y_support, y), self.y_support.size - 1)
        return ix, iy, (self.x_support[ix] == x) & (self.y_support[iy] == y)

    def lift(self, x, y):
        """Elementwise :attr:`lift_table` lookup; NaN off the support."""
        ix, iy, on = self._cells(x, y)
        return np.where(on, self.lift_table[ix, iy], np.nan)

    def joint_density(self, x, y):
        """Elementwise pmf lookup; raises OutOfSupport off the support."""
        ix, iy, on = self._cells(x, y)
        if not on.all():
            raise OutOfSupport(f"label ({x}, {y}) not in the discrete support")
        return self.pmf[ix, iy]

    def lift_cells(self):
        """The lift table and the product mass ``p_X p_Y`` of each cell."""
        return self.lift_table, np.outer(self.p_x, self.p_y)

    def sibuya_parts(self, x: float, y: float) -> tuple[float, float, float]:
        """The CDFs ``(F(x, y), G(x), H(y))`` as partial sums of the pmf."""
        mx, my = self.x_support <= x, self.y_support <= y
        f_joint = float(self.pmf[np.ix_(mx, my)].sum())
        return f_joint, float(self.p_x[mx].sum()), float(self.p_y[my].sum())

    def target_rates(self, target, x_grid):
        """``(x_support, P(Y = target | X), P(Y = target))``, rate ``-inf`` where
        ``p_X`` is 0; ``x_grid`` is unused. ValueError unless ``target`` is one
        real number, TargetHasZeroMass for a null label."""
        if not isinstance(target, numbers.Real):
            raise ValueError(f"target label must be one number, got {target!r}")
        iy = np.nonzero(self.y_support == float(target))[0]
        if iy.size == 0:
            raise TargetHasZeroMass(f"target label {target} not in the Y support")
        j = int(iy[0])
        baseline = float(self.p_y[j])
        if baseline == 0.0:
            raise TargetHasZeroMass(f"target label {target} has zero probability")
        p_x = self.p_x
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(p_x > 0, self.pmf[:, j] / p_x, -np.inf)
        return self.x_support, rates, baseline

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse CDF on the flattened pmf."""
        ix, iy = np.unravel_index(_draw_indices(self.pmf.ravel(), n, rng), self.pmf.shape)
        return np.column_stack([self.x_support[ix], self.y_support[iy]])


class ContinuousFamily:
    """Defaults shared by the absolutely continuous joints.

    A family provides ``joint_density(x, y)``, the evaluators ``marginal_x``
    and ``marginal_y``, and ``integration_box = (x_lo, x_hi, y_lo, y_hi)``,
    which must capture essentially all of the mass and may have infinite
    ends; every quadrature in the package integrates over it. It overrides
    ``lift``, the quantiles or ``sample`` where it has them in closed form.

    A family may also declare the conditional law of Y given X (the
    Rosenblatt transform), each member elementwise:

    * ``conditional_cdf_y(x, y) = P(Y <= y | X = x)``, exactly 0 and 1 at
      ``y = -inf`` and ``inf``, together with the closed-form marginal CDFs
      ``cdf_x`` and ``cdf_y``. The Sibuya CDFs and the targeting rates then
      come from it. The law must be centrally symmetric, ``(X, Y) ~ (-X, -Y)``,
      so an upper tail ``1 - C(y | x)`` is ``C(-y | -x)`` without cancellation,
      and ``rho_X(s) C(y | s)`` unimodal in ``s`` (see :meth:`sibuya_parts`).
    * ``conditional_map_y(x, w)``, which carries a standard normal ``w`` to
      ``Y | X = x``. :func:`~liftdep.information.mi_continuous` then
      integrates over ``(x, w)``, the integration box read as an
      ``(x, w)`` box.

    Either member is None where a family does not declare it, and the
    defaults below integrate the joint density instead.

    ``reflections`` lists the coordinate reflections that leave the law
    invariant (the joint density and both marginals): ``"x"`` is
    ``(x, y) -> (-x, y)``, ``"y"`` is ``(x, y) -> (x, -y)`` and ``"xy"`` is
    ``(x, y) -> (-x, -y)``. It is a mathematical fact about the family, and
    :func:`~liftdep.information.mi_continuous` integrates only the part of
    the box they fold onto. A family with ``conditional_map_y`` may declare
    only ``"xy"``, and its map must then be odd, ``m(-x, -w) = -m(x, w)``.
    """

    conditional_cdf_y = None
    conditional_map_y = None
    reflections: tuple[str, ...] = ()

    def lift(self, x, y):
        """Elementwise density ratio ``rho / (rho_X rho_Y)``, the marginals taken
        before broadcasting; NaN where their product is below DENSITY_FLOOR."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        joint = np.asarray(self.joint_density(*np.broadcast_arrays(x, y)), dtype=float)
        denom = np.asarray(self.marginal_x(x), dtype=float) * np.asarray(
            self.marginal_y(y), dtype=float
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom >= DENSITY_FLOOR, joint / denom, np.nan)

    def lift_cells(self):
        """The lift at the midpoint quantiles of a ``REGION_GRID_N``-square
        grid, and the product mass ``REGION_GRID_N**-2`` of every cell."""
        u = (np.arange(REGION_GRID_N) + 0.5) / REGION_GRID_N
        gx, gy = np.asarray(self.quantile_x(u)), np.asarray(self.quantile_y(u))
        return np.asarray(self.lift(gx[:, None], gy), dtype=float), REGION_GRID_N**-2.0

    def sibuya_parts(self, x: float, y: float) -> tuple[float, float, float]:
        """The CDFs ``(F(x, y), G(x), H(y))``.

        With ``conditional_cdf_y``, ``G`` and ``H`` are the closed-form
        marginal CDFs and ``F = int_{-inf}^x rho_X(s) C(y | s) ds`` is an
        adaptive 1D integral, divided by ``H`` and held to ``SIBUYA_RTOL``
        relative, so ``F / (G H)`` is relative-accurate however large or small
        it is. The integral is taken on the side of ``x`` that does not hold
        the mode of the unimodal ``rho_X(s) C(y | s)``: over ``(-inf, x]``
        where the integrand rises through ``x``, as ``H - int_x^inf`` where it
        falls. Either way it is monotone with its mass at the end ``x``, so a
        narrow peak away from ``x`` (X given ``Y <= y`` at ``r = 0.99``) cannot
        fall between the nodes; the heap is seeded at distances
        ``1e-3, 1e-2, ..., 10 max(1, |x|, |y|)`` from ``x``, so a mass within
        any of them of ``x`` meets nodes too. Each half line is integrated in
        units of ``max(1, |x|, |y|)``, the scale of the Cauchy's conditional
        law, so the sinh map does not cut its tail short. Where the
        integrand is flat at ``x``, has underflowed there or peaks there, both
        half lines are integrated and their sum must be 1 within
        ``SIBUYA_MASS_TOL``. Raises UndefinedAtPoint when that fails, when an
        integral does not converge within ``SIBUYA_BUDGET`` evaluations, when
        ``F`` is below DENSITY_FLOOR, or at a finite coordinate beyond
        ``SIBUYA_MAX_COORD``.

        Otherwise it integrates the joint density by adaptive quadrature over
        the box below and left of the point (infinite ends through the sinh
        map); these are the CDFs of the law truncated to the box. ``F`` is 0,
        not integrated, where ``G`` or ``H`` is below DENSITY_FLOOR or ``G H``
        below ``sys.float_info.min``, as on the route above: the quadrant may
        then have zero width.
        """
        if self.conditional_cdf_y is None:
            x_lo, x_hi, y_lo, y_hi = self.integration_box
            g = _interval_mass(self.marginal_x, x_lo, min(x, x_hi))
            h = _interval_mass(self.marginal_y, y_lo, min(y, y_hi))
            if _sibuya_vanishes(g, h):
                return 0.0, g, h
            quadrant = (x_lo, min(x, x_hi), y_lo, min(y, y_hi))
            return adaptive_quad_2d(self.joint_density, quadrant, tol=1e-8).value, g, h
        g, h = float(self.cdf_x(x)), float(self.cdf_y(y))
        if _sibuya_vanishes(g, h):
            return 0.0, g, h
        if x == math.inf or y == math.inf:
            return min(g, h), g, h
        if max(abs(x), abs(y)) > SIBUYA_MAX_COORD:
            raise UndefinedAtPoint(
                f"({x:.6g}, {y:.6g}) lies beyond {SIBUYA_MAX_COORD:g}, where the integrand "
                "of F leaves the range of doubles"
            )

        def scaled(s):  # rho_X(s) C(y | s) / H, whose integral over the line is 1
            cond = np.asarray(self.conditional_cdf_y(s, y), dtype=float)
            return np.asarray(self.marginal_x(s), dtype=float) * (cond / h)

        # s = x + scale v: the sinh map of v reaches 5e12 scale beyond x. Y given
        # X = s spreads over ~|s| for the Cauchy, so the mass of its conditional
        # CDF past |s| = S is about |y| / S of H, below 2e-13 at this scale.
        scale = max(1.0, abs(x), abs(y))
        ladder = [10.0**k / scale for k in range(-3, int(math.log10(scale)) + 2)]

        def half_line(sign):
            return adaptive_quad_1d(
                lambda v: scale * scaled(x + scale * v), *sorted((0.0, sign * math.inf)),
                tol=0.0, budget=SIBUYA_BUDGET, breaks=[sign * b for b in ladder], rtol=SIBUYA_RTOL,
            )

        # beyond |s| ~ 1e154 the densities square s to inf, and give 0 as they should
        with np.errstate(over="ignore"):
            step = 1e-6 * max(1.0, abs(x))
            before, at, after = scaled(np.array([x - step, x, x + step]))
            rising, falling = before < at < after, before > at > after
            if rising or falling:
                part = half_line(-1.0 if rising else 1.0)
                parts, f_over_h = [part], part.value if rising else 1.0 - part.value
            else:  # at a mode, flat or underflowed: take both sides, check their sum
                left, right = parts = [half_line(-1.0), half_line(1.0)]
                f_over_h = left.value if left.value <= 0.5 else 1.0 - right.value
                if abs(left.value + right.value - 1.0) > SIBUYA_MASS_TOL:
                    f_over_h = math.nan
        f_joint = f_over_h * h
        if not (all(p.converged for p in parts) and f_joint >= DENSITY_FLOOR):
            raise UndefinedAtPoint(
                f"F({x:.6g}, {y:.6g}) did not converge, underflows or misses mass "
                f"after {sum(p.n_evals for p in parts)} evaluations"
            )
        return f_joint, g, h

    def target_rates(self, target, x_grid):
        """``(x_grid, P(Y in target | X = x), P(Y in target))`` for an interval
        ``(lo, hi)`` of two numbers, ``lo < hi``, rate ``-inf`` where ``rho_X``
        is 0; the default grid is 201 points over the X range of the box.

        With ``conditional_cdf_y`` the rates are one vectorized
        ``C(hi | x) - C(lo | x)`` and the baseline a difference of ``cdf_y``,
        each taken on the side of the median where it does not cancel (see
        :func:`_cdf_gap`). Otherwise the target is clipped to the box, each
        rate is a strip integral of the joint density over ``(lo, hi)``
        divided by ``rho_X``, and the baseline the integral of ``marginal_y``.
        The strips of all grid points where ``rho_X > 0`` are the components
        of one vector-valued heap: they share its cells, each strip is within
        the heap's tolerance, and a strip that converges in the seed cell
        gets the bits of a heap of its own.
        """
        lo, hi = _pair(target, "target interval")
        if not lo < hi:
            raise ValueError("target interval must satisfy lo < hi")
        if x_grid is None:
            x_grid = np.linspace(*self.bounded_axis("x"), 201)
        x_grid = np.asarray(x_grid, dtype=float)
        if self.conditional_cdf_y is not None:
            baseline = float(_cdf_gap(lambda _, y: self.cdf_y(y), 0.0, lo, hi))
            if baseline <= 0.0:
                raise TargetHasZeroMass(f"target interval [{lo}, {hi}] carries no mass")
            rates = _cdf_gap(self.conditional_cdf_y, x_grid, lo, hi)
            return x_grid, np.where(self.marginal_x(x_grid) > 0.0, rates, -np.inf), baseline
        _, _, y_lo, y_hi = self.integration_box
        lo_c, hi_c = max(lo, y_lo), min(hi, y_hi)
        baseline = _interval_mass(self.marginal_y, lo_c, hi_c)
        if baseline <= 0.0:
            raise TargetHasZeroMass(f"target interval [{lo}, {hi}] carries no mass")
        rho = self.marginal_x(x_grid)
        live = rho > 0.0
        rates = np.full(x_grid.shape, -np.inf)
        if live.any():
            x_live = x_grid[live, None]
            strips = _interval_mass(
                lambda y: self.joint_density(*np.broadcast_arrays(x_live, y)), lo_c, hi_c
            )
            rates[live] = strips / rho[live]
        return x_grid, rates, baseline

    def bounded_axis(self, axis: str) -> Interval:
        """The ``(lo, hi)`` of axis ``"x"`` or ``"y"`` of the box; ValueError
        when an end is infinite."""
        box = self.integration_box
        lo, hi = box[:2] if axis == "x" else box[2:]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(
                f"the {axis} axis of the integration box ({lo}, {hi}) is unbounded"
            )
        return lo, hi

    def quantile_x(self, u):
        """X quantiles from the marginal CDF tabulated over the box."""
        return tabulated_inverse_cdf(self.marginal_x, self.bounded_axis("x"))(u)

    def quantile_y(self, u):
        """Y quantiles from the marginal CDF tabulated over the box."""
        return tabulated_inverse_cdf(self.marginal_y, self.bounded_axis("y"))(u)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotSampleable(
            f"{type(self).__name__} has no sampler; use a named family or "
            "provide samples directly"
        )


@dataclass(frozen=True, eq=False)
class ContinuousJoint(ContinuousFamily):
    """Absolutely continuous joint law given by density evaluators.

    ``integration_box = (x_lo, x_hi, y_lo, y_hi)`` must capture essentially
    all of the mass. It has no sampler.
    """

    joint_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    marginal_x: Evaluator
    marginal_y: Evaluator
    integration_box: Box


@dataclass(frozen=True)
class BivariateNormal(ContinuousFamily):
    """Standard bivariate normal with unit variances and correlation r."""

    r: float

    integration_box = (-8.0, 8.0, -8.0, 8.0)
    reflections = ("xy",)
    marginal_x = marginal_y = staticmethod(standard_normal_pdf)
    cdf_x = cdf_y = staticmethod(standard_normal_cdf)

    def __post_init__(self):
        if not abs(self.r) < 1:
            raise DegenerateCorrelation(f"|r| must be < 1, got r={self.r}")

    def joint_density(self, x, y):
        """Elementwise density; a float for scalar coordinates."""
        r = self.r
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        one_minus = 1.0 - r * r
        q = (x * x + y * y - 2.0 * r * x * y) / (2.0 * one_minus)
        out = np.exp(-q) / (2.0 * math.pi * math.sqrt(one_minus))
        return float(out) if out.ndim == 0 else out

    def conditional_cdf_y(self, x, y):
        """``Phi((y - r x) / sqrt(1 - r^2))``: ``Y | X = x`` is ``N(r x, 1 - r^2)``."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return standard_normal_cdf((y - self.r * x) / math.sqrt(1.0 - self.r * self.r))

    def conditional_map_y(self, x, w):
        """``r x + sqrt(1 - r^2) w``."""
        x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
        return self.r * x + math.sqrt(1.0 - self.r * self.r) * w

    def lift(self, x, y):
        """Closed form
        ``(1 - r^2)^(-1/2) exp(-(x^2 + y^2 - 2 r x y)/(2 (1 - r^2)) + (x^2 + y^2)/2)``.

        A lift beyond the largest double is ``inf``, without a warning: it is
        the correctly rounded value, and its label (Lift) is right."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = self.r
        expo = -(x * x + y * y - 2.0 * r * x * y) / (2.0 * (1.0 - r * r)) + (x * x + y * y) / 2.0
        with np.errstate(over="ignore"):
            return np.exp(expo) / math.sqrt(1.0 - r * r)

    quantile_x = quantile_y = staticmethod(standard_normal_quantile)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The two-independent-normals transform."""
        z = rng.standard_normal((n, 2))
        return np.column_stack([z[:, 0], self.conditional_map_y(z[:, 0], z[:, 1])])


@dataclass(frozen=True)
class CircularCauchy(ContinuousFamily):
    """Rotation-invariant bivariate Cauchy, density 1/(2*pi*(1+x^2+y^2)^(3/2)).

    Both marginals are standard Cauchy.
    """

    integration_box = (-math.inf, math.inf, -math.inf, math.inf)
    reflections = ("x", "y")
    marginal_x = marginal_y = staticmethod(_cauchy_pdf)
    cdf_x = cdf_y = staticmethod(_cauchy_cdf)

    def joint_density(self, x, y):
        """Elementwise density; a float for scalar coordinates."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = 1.0 / (2.0 * math.pi * (1.0 + x * x + y * y) ** 1.5)
        return float(out) if out.ndim == 0 else out

    def conditional_cdf_y(self, x, y):
        """``(1 + y / h) / 2`` with ``a = sqrt(1 + x^2)`` and ``h = sqrt(a^2 + y^2)``,
        taken below 0 as ``a^2 / (2 h (h - y))``, where the sum would cancel."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        a = np.hypot(1.0, x)
        h = np.hypot(a, y)
        with np.errstate(divide="ignore", invalid="ignore"):  # inf / inf at y = inf
            upper = np.where(y == math.inf, 1.0, 0.5 + 0.5 * (y / h))
            return np.where(y < 0.0, 0.5 * (a / h) * (a / (h - y)), upper)

    def quantile_x(self, u):
        return np.tan(math.pi * (np.asarray(u) - 0.5))

    quantile_y = quantile_x

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Exact marginal-then-conditional inversion."""
        u1 = rng.random(n)
        u2 = np.maximum(rng.random(n), 2.0**-53)  # u2 = 0 would map w to -1 exactly
        x = self.quantile_x(u1)
        a = np.sqrt(1.0 + x * x)
        w = 2.0 * u2 - 1.0
        y = a * w / np.sqrt(1.0 - w * w)
        return np.column_stack([x, y])


@dataclass(frozen=True, eq=False)
class IndependentProduct(ContinuousFamily):
    """Product law of two independent absolutely continuous marginals."""

    marginal_x: Evaluator
    marginal_y: Evaluator
    support_x: Interval = (-8.0, 8.0)
    support_y: Interval = (-8.0, 8.0)

    @property
    def integration_box(self) -> Box:
        return (*self.support_x, *self.support_y)

    def joint_density(self, x, y):
        mx, my = self.marginal_x(x), self.marginal_y(y)
        return np.asarray(mx, dtype=float) * np.asarray(my, dtype=float)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Independent draws from the tabulated marginal quantiles."""
        x = self.quantile_x(rng.random(n))
        y = self.quantile_y(rng.random(n))
        return np.column_stack([x, y])


def _check_interval(name: str, interval: Interval) -> None:
    """Raise ValueError naming the first end of ``interval`` that is not finite
    (the monotone pieces, the preimage bisection and the tabulated X quantiles
    of a curve law all need finite ends), and unless ``lo < hi``."""
    for side, end in zip(("lower", "upper"), interval):
        if not math.isfinite(end):
            raise ValueError(f"the {side} end of {name} must be finite, got {end}")
    if not interval[0] < interval[1]:
        raise ValueError(f"{name} must be a nonempty interval, got {tuple(interval)}")


@dataclass(frozen=True, eq=False)
class CurveBranch:
    """One smooth branch ``y = phi(x)`` on a domain interval.

    ``dphi`` must be the derivative of ``phi``. ``breakpoints``, when given,
    declare the bounds of the strictly monotone pieces of ``phi`` inside the
    domain; otherwise :func:`monotone_pieces` cuts where ``dphi`` changes sign.
    """

    phi: Evaluator
    dphi: Evaluator
    domain: Interval
    weight: float = 1.0
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        _check_interval("branch domain", self.domain)
        lo, hi = self.domain
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("branch weight must lie in [0, 1]")
        if any(not lo <= b <= hi for b in self.breakpoints):
            raise ValueError("breakpoints must lie inside the branch domain")


@dataclass(frozen=True, eq=False)
class CurveSingularJoint:
    """Joint law with P(Y = phi_N(X)) = a_N over smooth branches.

    ``marginal_x`` is the density of X on ``support_x``; branch weights must
    sum to one. ``marginal_y`` may be supplied, otherwise it is derived on
    demand via the pushforward formula.
    """

    marginal_x: Evaluator
    support_x: Interval
    branches: tuple[CurveBranch, ...]
    marginal_y: Evaluator | None = None

    def __post_init__(self):
        _check_interval("support_x", self.support_x)
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValueError("at least one branch is required")
        total = sum(b.weight for b in self.branches)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("branch weights must sum to 1 within 1e-12")

    @cached_property
    def pieces(self) -> tuple[tuple[tuple[float, float, int], ...], ...]:
        """The :func:`monotone_pieces` of every branch, in branch order. A
        NonMonotonePiece is raised on every read: nothing is cached then."""
        return tuple(tuple(monotone_pieces(branch)) for branch in self.branches)

    def on_curve_marginal_y(self, n: int, x) -> np.ndarray:
        """``rho_Y(phi_n(x))`` for ``x`` in the domain of branch n.

        It uses the supplied Y-marginal when there is one. Otherwise it sums
        the pushforward over the preimages of ``phi_n(x)``: ``x`` itself is
        the one on its own piece of branch n, and only the other pieces and
        branches are solved by bisection. The sum is NaN, not raised, at an
        element with a preimage at a fold (``|phi'| < DERIVATIVE_FLOOR``)
        where ``rho_X > 0``, so the other elements keep their values.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(self.branches[n].phi(x), dtype=float)
        if self.marginal_y is not None:
            return np.asarray(self.marginal_y(y), dtype=float)
        return _preimage_sum(self, y.ravel(), own=(n, x.ravel())).reshape(x.shape)

    def lift(self, x, y):
        """Elementwise lift: ``2 a_n / (pi rho_Y(phi_n(x)) sqrt(1 + phi_n'(x)^2))``
        where ``|y - phi_n(x)| <= ON_CURVE_TOL`` (the smallest such n wins),
        zero off the branches. Each branch evaluates ``rho_Y`` once, on all
        its on-curve points (see :meth:`on_curve_marginal_y`). NaN at a fold
        (a preimage with a flat slope) or where ``rho_Y`` is below
        DENSITY_FLOOR."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        values = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for n, branch in enumerate(self.branches):
            lo, hi = branch.domain
            inside = (x >= lo) & (x <= hi)
            phi_x = np.full(x.shape, np.nan)  # phi is evaluated on its domain only
            phi_x[inside] = branch.phi(x[inside])
            at = (np.abs(y - phi_x) <= ON_CURVE_TOL) & (values == 0.0)
            x_at = np.broadcast_to(x, values.shape)[at]
            dens = self.on_curve_marginal_y(n, x_at)
            dens = np.where(dens < DENSITY_FLOOR, np.nan, dens)  # undefined there, as at a fold
            slope = np.asarray(branch.dphi(x_at), dtype=float)
            values[at] = 2.0 * branch.weight / (math.pi * dens * np.hypot(1.0, slope))
        return values

    def sibuya_parts(self, x: float, y: float) -> tuple[float, float, float]:
        """The CDFs ``(F(x, y), G(x), H(y))``: ``H`` sums ``a_n`` times the X mass
        of ``{phi_n <= y}``, one interval per monotone piece (its end found by
        bisection), and ``F`` the part of it left of ``x``."""
        lo, hi = self.support_x
        g = _interval_mass(self.marginal_x, lo, min(x, hi))
        f_joint = h = 0.0
        for branch, pieces in zip(self.branches, self.pieces):
            for a, b, sign in pieces:
                va, vb = float(branch.phi(a)), float(branch.phi(b))
                if y < min(va, vb):
                    continue
                if y < max(va, vb):
                    cut = float(bisect_roots(branch.phi, y, a, b))
                    a, b = (a, cut) if sign >= 0 else (cut, b)
                a, b = max(a, lo), min(b, hi)
                mass = _interval_mass(self.marginal_x, a, b)
                h += branch.weight * mass
                if x < b:  # the piece reaches past x
                    mass = _interval_mass(self.marginal_x, a, x)
                f_joint += branch.weight * mass
        return f_joint, g, h

    def _no_density(self, *_):
        raise CurveSingularHasNoDensity("curve-singular joints have no density w.r.t. area measure")

    # The other classes build these on an area density.
    joint_density = lift_cells = target_rates = _no_density
    integration_box = property(_no_density)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """X from a tabulated inverse CDF, a branch by weight, the on-curve y."""
        inv_x = tabulated_inverse_cdf(self.marginal_x, self.support_x)
        x = inv_x(rng.random(n))
        branch_idx = _draw_indices([b.weight for b in self.branches], n, rng)
        y = np.empty(n)
        for k, branch in enumerate(self.branches):
            mask = branch_idx == k
            if np.any(mask):
                y[mask] = np.asarray(branch.phi(x[mask]), dtype=float)
        return np.column_stack([x, y])


def _draw_indices(weights, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` indices into ``weights``, each drawn with probability proportional
    to its weight, by inverse CDF on their cumulative sum."""
    cum = np.cumsum(weights)
    cum /= cum[-1]
    return np.minimum(np.searchsorted(cum, rng.random(n), side="right"), cum.size - 1)


def _sibuya_vanishes(g: float, h: float) -> bool:
    """``G`` or ``H`` below DENSITY_FLOOR, or ``G H`` below ``sys.float_info.min``."""
    return g < DENSITY_FLOOR or h < DENSITY_FLOOR or g * h < sys.float_info.min


def _interval_mass(pdf: Evaluator, lo: float, hi: float):
    """The integral of ``pdf`` over ``[lo, hi]``, 0 when the interval is empty.

    A ``pdf`` that maps n points to an ``(m, n)`` array gives the ``(m,)``
    integrals of its rows, from one heap (see ``quadrature._eval_cells``)."""
    if hi <= lo:
        return 0.0
    return adaptive_quad_1d(pdf, lo, hi, tol=1e-10).value


def _cdf_gap(cdf, x, lo: float, hi: float):
    """``cdf(x, hi) - cdf(x, lo)``, elementwise in ``x``. Where ``lo`` lies above
    the median (``cdf(x, lo) > 1/2``) it is the difference of the upper tails,
    ``cdf(-x, -lo) - cdf(-x, -hi)`` by central symmetry, so that a far upper
    target such as ``(10, 11)`` does not cancel to 0."""
    x = np.asarray(x, dtype=float)
    at_lo = np.asarray(cdf(x, lo), dtype=float)
    return np.where(at_lo > 0.5, cdf(-x, -lo) - cdf(-x, -hi), cdf(x, hi) - at_lo)


JointDistribution = Union[DiscreteJoint, ContinuousFamily, CurveSingularJoint]


def as_continuous(dist: ContinuousFamily) -> ContinuousJoint:
    """View an absolutely continuous family as plain evaluators, without its
    closed-form lift, quantiles or sampler."""
    return ContinuousJoint(
        dist.joint_density, dist.marginal_x, dist.marginal_y, dist.integration_box
    )


def sample(dist: JointDistribution, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` pairs from ``dist``, deterministic given ``seed``.

    Each class samples in its ``sample(n, rng)`` method: inverse CDF on the
    flattened pmf (discrete), the two-independent-normals transform
    (bivariate normal), marginal-then-conditional inversion (Circular
    Cauchy), tabulated marginal quantiles (independent product), and
    on-curve points over a tabulated X (curve-singular). A generic
    ContinuousJoint raises NotSampleable. Returns an array of shape (n, 2);
    ValueError unless ``n`` is an integer >= 1.
    """
    return dist.sample(_count(n, "n", 1), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Curve-singular machinery: monotone pieces and the pushforward marginal
# ---------------------------------------------------------------------------


def bisect_roots(g: Evaluator, y, lo, hi) -> np.ndarray:
    """Elementwise ``x`` in ``[lo, hi]`` with ``g(x) = y``, over the broadcast
    of the three arguments.

    ``g - y`` may change sign at most once on each bracket. An end where it
    is exactly zero is the root, and a bracket with one strict sign at both
    ends gives NaN. Otherwise the bracket is halved until ``g - y`` is
    exactly zero at the midpoint, which is then the root, or until its ends
    are adjacent doubles. Raises ValueError on a bracket end that is not
    finite, whose midpoints would never close on a root.
    """
    y, lo, hi = np.broadcast_arrays(y, lo, hi)
    shape = y.shape
    y, lo, hi = (np.array(v, dtype=float).ravel() for v in (y, lo, hi))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("bisect_roots needs finite bracket ends")
    f_lo = np.asarray(g(lo), dtype=float) - y
    f_hi = np.asarray(g(hi), dtype=float) - y
    root = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    sign_lo = np.sign(f_lo)
    active = np.flatnonzero(sign_lo * np.sign(f_hi) < 0)
    while active.size:
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        f_mid = np.asarray(g(mid), dtype=float) - y[active]
        done = (f_mid == 0.0) | (mid <= a) | (mid >= b)
        root[active[done]] = mid[done]
        right = np.sign(f_mid) == sign_lo[active]
        lo[active[right]] = mid[right]
        hi[active[~right]] = mid[~right]
        active = active[~done]
    return root.reshape(shape)


def monotone_pieces(branch: CurveBranch) -> list[tuple[float, float, int]]:
    """Strictly monotone pieces ``(lo, hi, sign)`` of a branch, from one scan.

    Each piece between consecutive ``sorted({lo, hi, *breakpoints})`` is
    probed at ``PROBE_GRID_SIZE`` points, its ends included. A probe with
    ``|dphi| < DERIVATIVE_FLOOR`` reads as 0 and takes the sign before it, at
    the start of a piece the first nonzero one (+1 if none). A sign change
    raises NonMonotonePiece inside a declared piece (so ``dphi`` must read 0
    at a declared kink) and is cut by bisection on ``dphi`` inside an
    undeclared domain (at the probe before it if bisection finds no root).
    Two turning points within one probe step, (hi - lo) / (PROBE_GRID_SIZE -
    1), can both go unseen; declare breakpoints for such branches.
    """
    lo, hi = branch.domain
    bounds = sorted({lo, hi, *branch.breakpoints})
    pieces = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        grid = np.linspace(a, b, PROBE_GRID_SIZE)
        slope = np.asarray(branch.dphi(grid), dtype=float)
        signs = np.where(np.abs(slope) < DERIVATIVE_FLOOR, 0.0, np.sign(slope))
        nonzero = signs != 0
        last = np.maximum.accumulate(np.where(nonzero, np.arange(signs.size), np.argmax(nonzero)))
        carried = np.where(signs[last] != 0, signs[last], 1.0)
        turns = np.flatnonzero(carried[1:] != carried[:-1])
        if turns.size and branch.breakpoints:
            raise NonMonotonePiece(f"dphi changes sign inside declared piece [{a}, {b}]")
        cuts = bisect_roots(branch.dphi, 0.0, grid[turns], grid[turns + 1])
        ends = [a, *map(float, np.where(np.isnan(cuts), grid[turns], cuts)), b]
        piece_signs = carried[np.concatenate([[0], turns + 1])]
        pieces += [(p, q, int(s)) for p, q, s in zip(ends[:-1], ends[1:], piece_signs)]
    return pieces


def _preimage_sum(dist: CurveSingularJoint, y: np.ndarray, own=None) -> np.ndarray:
    """``sum a_n rho_X(x*) / |phi_n'(x*)|`` over the preimages ``x*`` of each
    element of the flat array ``y``, on the monotone pieces ``dist.pieces``.

    Each piece is solved with one elementwise bisection, and a preimage shared
    by two adjacent pieces counts once. With ``own = (n, x)``, ``y`` is
    ``phi_n(x)``: on the first piece of branch n that holds ``x``, ``x`` is
    the preimage and only the other elements are bisected. An element with a
    preimage at a fold (``|phi_n'| < DERIVATIVE_FLOOR``) where ``rho_X > 0``
    is NaN.
    """
    total = np.zeros(y.shape)
    for n, (branch, pieces) in enumerate(zip(dist.branches, dist.pieces)):
        # on any other branch no element has its own preimage
        x_own = own[1] if own is not None and own[0] == n else np.full(y.shape, np.nan)
        unclaimed = np.ones(y.shape, dtype=bool)
        roots = []
        for a, b, _sign in pieces:
            mine = unclaimed & (x_own >= a) & (x_own <= b)
            unclaimed &= ~mine
            root = np.array(x_own)
            if not mine.all():  # bisecting an empty remainder costs a call per piece
                rest = ~mine
                root[rest] = bisect_roots(branch.phi, y[rest], a, b)
            for earlier in roots:
                root[np.abs(root - earlier) <= 1e-9] = np.nan
            roots.append(root)
            idx = np.flatnonzero(~np.isnan(root))
            rho = np.asarray(dist.marginal_x(root[idx]), dtype=float)
            idx, rho = idx[rho != 0.0], rho[rho != 0.0]
            slope = np.abs(np.asarray(branch.dphi(root[idx]), dtype=float))
            total[idx] += branch.weight * rho / np.where(slope < DERIVATIVE_FLOOR, np.nan, slope)
    return total


def pushforward_density_fn(dist: CurveSingularJoint) -> Evaluator:
    """Vectorized Y-marginal of a curve-singular joint.

    Sums ``a_n * rho_X(x*) / |phi_n'(x*)|`` over all preimages x* of y on
    every branch. The monotone pieces of each branch are found once per law
    (``dist.pieces``); each evaluation then solves for all its ys on a piece
    with one elementwise bisection. A preimage shared by two adjacent pieces
    counts once. An evaluation raises DerivativeVanishes if any of its ys
    has a preimage at a fold (``|phi_n'| < DERIVATIVE_FLOOR``) where
    ``rho_X > 0``.
    """

    def rho_y(y):
        y = np.asarray(y, dtype=float)
        total = _preimage_sum(dist, y.ravel())
        if np.isnan(total).any():
            bad = y.ravel()[np.isnan(total)][0]
            raise DerivativeVanishes(f"|phi'| < {DERIVATIVE_FLOOR:g} at a preimage of y={bad:.6g}")
        return float(total[0]) if y.ndim == 0 else total.reshape(y.shape)

    return rho_y


def named_curve(spec: str) -> CurveSingularJoint:
    """The named curve law ``spec`` (the CLI's ``--dist curve-*`` names): one
    branch ``y = phi(x)`` over the whole X support, with the Y-marginal
    derived. KeyError for any other name."""
    normal = (standard_normal_pdf, (-8.0, 8.0))
    uniform = (uniform_pdf(0.0, 1.0), (0.0, 1.0))
    marginal_x, support, phi, dphi = {
        "curve-normal-identity": (*normal, lambda x: x, np.ones_like),
        "curve-uniform-identity": (*uniform, lambda x: x, np.ones_like),
        "curve-normal-double": (*normal, lambda x: 2.0 * x, lambda x: np.full_like(x, 2.0)),
        "curve-uniform-square": (*uniform, lambda x: x**2, lambda x: 2.0 * x),
    }[spec]
    branch = CurveBranch(
        phi=lambda x: phi(np.asarray(x, dtype=float)),
        dphi=lambda x: dphi(np.asarray(x, dtype=float)),
        domain=support,
    )
    return CurveSingularJoint(marginal_x=marginal_x, support_x=support, branches=(branch,))


# ---------------------------------------------------------------------------
# Tabulated inverse CDFs
# ---------------------------------------------------------------------------


def tabulated_inverse_cdf(pdf: Evaluator, support: Interval) -> Evaluator:
    """Tabulate the CDF of ``pdf`` on ``support`` at INVERSE_CDF_RESOLUTION
    points and return its inverse, linear interpolation in the table."""
    lo, hi = support
    grid = np.linspace(lo, hi, INVERSE_CDF_RESOLUTION)
    dens = np.asarray(pdf(grid), dtype=float)
    if np.any(dens < 0):
        raise ValueError("pdf evaluator returned negative values")
    step = (hi - lo) / (INVERSE_CDF_RESOLUTION - 1)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * step)])
    if cdf[-1] <= 0:
        raise ValueError("pdf has zero mass on the support")
    cdf /= cdf[-1]
    return lambda u: np.interp(u, cdf, grid)


# ---------------------------------------------------------------------------
# File formats: the pmf table here, since it builds a DiscreteJoint; the
# sample files and the CSV and JSON writers are in liftdep.codec, and the
# sample reader and writer are re-exported from here.
# ---------------------------------------------------------------------------


def write_pmf_csv(f: io.TextIOBase, dist: DiscreteJoint) -> None:
    """Write a pmf table: header ``x,y:<label>...``, one row per x label."""
    write_csv(f, ["x"] + ["y:%.17g" % y for y in dist.y_support], dist.x_support, *dist.pmf.T)


def read_pmf_csv(f: io.TextIOBase) -> DiscreteJoint:
    """Parse a pmf table written by :func:`write_pmf_csv`.

    Every label and value maps to the double nearest its written literal, so
    a file value like ``0.1`` reads as the double nearest 0.1.
    """
    header, body = _read_csv(f, "pmf")
    if len(header) < 2 or not all(c.startswith("y:") for c in header[1:]):
        raise ValueError("pmf csv needs a header 'x,y:<label>,...' with at least one y label")
    y = [_csv_float(cell[2:], "pmf csv line 1") for cell in header[1:]]
    return DiscreteJoint(body[:, 0], np.array(y), body[:, 1:])
