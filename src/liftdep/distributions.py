"""Joint-distribution classes and their densities, marginals, and samplers.

Three joint classes are supported:

* :class:`DiscreteJoint` -- a finite pmf table over labeled supports.
* Absolutely continuous joints -- :class:`ContinuousJoint` (density
  evaluators with an explicit integration box) and the named families
  :class:`BivariateNormal`, :class:`CircularCauchy` and
  :class:`IndependentProduct`. All four share one interface:
  ``joint_density(x, y)``, ``marginal_x``, ``marginal_y``,
  ``integration_box``, an elementwise ``lift(x, y)``,
  ``quantile_x``/``quantile_y`` and ``sample(n, rng)``. The defaults sit on
  :class:`ContinuousFamily` (density-ratio lift, quantiles tabulated over the
  box, no sampler); each family overrides what it has in closed form, so its
  formulas live in one place.
* :class:`CurveSingularJoint` -- mass concentrated on the graphs of smooth
  branches ``y = phi_n(x)`` with absolutely continuous marginals. It has no
  density w.r.t. area measure; its Y-marginal can be derived by the
  pushforward formula (sum of ``a_n * rho_X / |phi_n'|`` over preimages),
  whose preimages are found for many y at once by an elementwise bisection
  on the monotone pieces of each branch.

Density and marginal evaluators must be pure, vectorized functions: they take
scalars or ndarrays and return values of the same shape. All distribution
objects are immutable after construction and safe to share across threads.

Integration boxes are explicit, not inferred. Heavy-tailed families need a
deliberately wide truncation: the Circular Cauchy default box is
``[-1e5, 1e5]^2``, which keeps both the missing probability mass (~1e-5) and
the missing mutual-information contribution (~1e-4 nats) below the tolerances
used elsewhere in the package; a 50-wide box would silently drop ~2% of the
mass and ~0.05 nats.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Union

import numpy as np

from .errors import (
    CurveSingularHasNoDensity,
    DegenerateCorrelation,
    DerivativeVanishes,
    NonMonotonePiece,
    NotSampleable,
    OutOfSupport,
)

__all__ = [
    "DiscreteJoint",
    "ContinuousFamily",
    "ContinuousJoint",
    "BivariateNormal",
    "CircularCauchy",
    "IndependentProduct",
    "CurveBranch",
    "CurveSingularJoint",
    "JointDistribution",
    "NamedFamily",
    "DENSITY_FLOOR",
    "bvn_density",
    "circular_cauchy_density",
    "density_at",
    "as_continuous",
    "bisect_roots",
    "derive_pushforward_density",
    "pushforward_density_fn",
    "monotone_pieces",
    "sample",
    "TabulatedInverseCdf",
    "tabulated_inverse_cdf",
    "standard_normal_pdf",
    "uniform_pdf",
    "read_pmf_csv",
    "write_pmf_csv",
    "read_samples_csv",
    "write_samples_csv",
    "write_csv",
    "write_json",
]

Interval = tuple[float, float]
Box = tuple[float, float, float, float]
Evaluator = Callable[[np.ndarray], np.ndarray]

PMF_SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
DERIVATIVE_FLOOR = 1e-12
DENSITY_FLOOR = 1e-300
INVERSE_CDF_RESOLUTION = 4096
PROBE_GRID_SIZE = 1024
CSV_BLOCK_ROWS = 65536

CAUCHY_BOX_HALF_WIDTH = 1e5


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def standard_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def uniform_pdf(lo: float = 0.0, hi: float = 1.0) -> Evaluator:
    """Density of the uniform law on [lo, hi] as a vectorized evaluator."""
    height = 1.0 / (hi - lo)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), height, 0.0)

    return pdf


def bvn_density(r: float, point) -> float | np.ndarray:
    """Standard bivariate normal density with correlation r at a point.

    Accepts scalar or ndarray coordinates; raises DegenerateCorrelation for
    |r| >= 1.
    """
    if not abs(r) < 1:
        raise DegenerateCorrelation(f"|r| must be < 1, got r={r}")
    x, y = point
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    one_minus = 1.0 - r * r
    q = (x * x + y * y - 2.0 * r * x * y) / (2.0 * one_minus)
    out = np.exp(-q) / (2.0 * math.pi * math.sqrt(one_minus))
    return float(out) if out.ndim == 0 else out


def circular_cauchy_density(point) -> float | np.ndarray:
    x, y = point
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = 1.0 / (2.0 * math.pi * (1.0 + x * x + y * y) ** 1.5)
    return float(out) if out.ndim == 0 else out


def _cauchy_pdf(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / (math.pi * (1.0 + x * x))


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
        object.__setattr__(self, "x_support", np.asarray(self.x_support, dtype=float))
        object.__setattr__(self, "y_support", np.asarray(self.y_support, dtype=float))
        object.__setattr__(self, "pmf", np.asarray(self.pmf, dtype=float))
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

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse CDF on the flattened pmf."""
        cum = np.cumsum(self.pmf.ravel())
        cum /= cum[-1]
        idx = np.searchsorted(cum, rng.random(n), side="right")
        idx = np.minimum(idx, cum.size - 1)
        ix, iy = np.unravel_index(idx, self.pmf.shape)
        return np.column_stack([self.x_support[ix], self.y_support[iy]])


class ContinuousFamily:
    """Defaults shared by the absolutely continuous joints.

    A family provides ``joint_density(x, y)``, the evaluators ``marginal_x``
    and ``marginal_y``, and ``integration_box = (x_lo, x_hi, y_lo, y_hi)``,
    which must capture essentially all of the mass; every quadrature in the
    package integrates over it. It overrides ``lift``, the quantiles or
    ``sample`` where it has them in closed form.
    """

    def lift(self, x, y):
        """Elementwise density ratio ``rho / (rho_X rho_Y)``; NaN where the
        product of the marginals is below DENSITY_FLOOR."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        joint = np.asarray(self.joint_density(x, y), dtype=float)
        denom = np.asarray(self.marginal_x(x), dtype=float) * np.asarray(
            self.marginal_y(y), dtype=float
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom >= DENSITY_FLOOR, joint / denom, np.nan)

    def quantile_x(self, u):
        """X quantiles from the marginal CDF tabulated over the box."""
        x_lo, x_hi, _, _ = self.integration_box
        return tabulated_inverse_cdf(self.marginal_x, (x_lo, x_hi))(u)

    def quantile_y(self, u):
        """Y quantiles from the marginal CDF tabulated over the box."""
        _, _, y_lo, y_hi = self.integration_box
        return tabulated_inverse_cdf(self.marginal_y, (y_lo, y_hi))(u)

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
    marginal_x = marginal_y = staticmethod(standard_normal_pdf)

    def __post_init__(self):
        if not abs(self.r) < 1:
            raise DegenerateCorrelation(f"|r| must be < 1, got r={self.r}")

    def joint_density(self, x, y):
        return bvn_density(self.r, (x, y))

    def lift(self, x, y):
        """Closed form
        ``(1 - r^2)^(-1/2) exp(-(x^2 + y^2 - 2 r x y)/(2 (1 - r^2)) + (x^2 + y^2)/2)``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = self.r
        expo = -(x * x + y * y - 2.0 * r * x * y) / (2.0 * (1.0 - r * r)) + (x * x + y * y) / 2.0
        return np.exp(expo) / math.sqrt(1.0 - r * r)

    def quantile_x(self, u):
        from scipy.special import ndtri  # deferred: importing scipy slows every command

        return ndtri(u)

    quantile_y = quantile_x

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The two-independent-normals transform."""
        z = rng.standard_normal((n, 2))
        x = z[:, 0]
        y = self.r * z[:, 0] + math.sqrt(1.0 - self.r * self.r) * z[:, 1]
        return np.column_stack([x, y])


@dataclass(frozen=True)
class CircularCauchy(ContinuousFamily):
    """Rotation-invariant bivariate Cauchy, density 1/(2*pi*(1+x^2+y^2)^(3/2)).

    Both marginals are standard Cauchy.
    """

    integration_box = (-CAUCHY_BOX_HALF_WIDTH, CAUCHY_BOX_HALF_WIDTH) * 2
    marginal_x = marginal_y = staticmethod(_cauchy_pdf)

    def joint_density(self, x, y):
        return circular_cauchy_density((x, y))

    def quantile_x(self, u):
        return np.tan(math.pi * (np.asarray(u) - 0.5))

    quantile_y = quantile_x

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Exact marginal-then-conditional inversion."""
        u1 = rng.random(n)
        u2 = np.maximum(rng.random(n), 2.0**-53)  # u2 = 0 would map w to -1 exactly
        x = np.tan(math.pi * (u1 - 0.5))
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


@dataclass(frozen=True, eq=False)
class CurveBranch:
    """One smooth branch ``y = phi(x)`` on a domain interval.

    ``dphi`` must be the derivative of ``phi``. ``breakpoints``, when given,
    declare the boundaries of strictly monotone pieces of ``phi`` inside the
    domain; otherwise pieces are detected from sign changes of ``dphi`` on a
    1024-point probe grid.
    """

    phi: Evaluator
    dphi: Evaluator
    domain: Interval
    weight: float = 1.0
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError("branch domain must be a nonempty interval")
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
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise ValueError("at least one branch is required")
        total = sum(b.weight for b in self.branches)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("branch weights must sum to 1 within 1e-12")

    def marginal_y_fn(self) -> Evaluator:
        """The supplied Y-marginal, or the derived pushforward density."""
        if self.marginal_y is not None:
            return self.marginal_y
        return pushforward_density_fn(self)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """X from a tabulated inverse CDF, a branch by weight, the on-curve y."""
        inv_x = tabulated_inverse_cdf(self.marginal_x, self.support_x)
        x = inv_x(rng.random(n))
        weights = np.array([b.weight for b in self.branches])
        cum = np.cumsum(weights)
        cum /= cum[-1]
        branch_idx = np.searchsorted(cum, rng.random(n), side="right")
        branch_idx = np.minimum(branch_idx, len(self.branches) - 1)
        y = np.empty(n)
        for k, branch in enumerate(self.branches):
            mask = branch_idx == k
            if np.any(mask):
                y[mask] = np.asarray(branch.phi(x[mask]), dtype=float)
        return np.column_stack([x, y])


NamedFamily = Union[BivariateNormal, CircularCauchy, IndependentProduct]
JointDistribution = Union[DiscreteJoint, ContinuousJoint, NamedFamily, CurveSingularJoint]


def density_at(dist: JointDistribution, point: tuple[float, float]) -> float:
    """Joint density (or pmf entry) of ``dist`` at ``point``.

    Discrete lookups require exact support matches. Curve-singular joints
    have no joint density w.r.t. area measure and raise
    CurveSingularHasNoDensity.
    """
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("point coordinates must be finite")
    if isinstance(dist, DiscreteJoint):
        ix = np.nonzero(dist.x_support == x)[0]
        iy = np.nonzero(dist.y_support == y)[0]
        if ix.size == 0 or iy.size == 0:
            raise OutOfSupport(f"label ({x}, {y}) not in the discrete support")
        return float(dist.pmf[ix[0], iy[0]])
    if isinstance(dist, CurveSingularJoint):
        raise CurveSingularHasNoDensity(
            "curve-singular joints have no density w.r.t. area measure"
        )
    return float(dist.joint_density(x, y))


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
    ContinuousJoint raises NotSampleable. Returns an array of shape (n, 2).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return dist.sample(n, np.random.default_rng(seed))


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
    are adjacent doubles.
    """
    y, lo, hi = np.broadcast_arrays(y, lo, hi)
    shape = y.shape
    y, lo, hi = (np.array(v, dtype=float).ravel() for v in (y, lo, hi))
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
    """Strictly monotone pieces ``(lo, hi, sign)`` of a branch.

    Uses declared breakpoints when present (validating that ``dphi`` keeps
    its sign inside every declared piece), otherwise detects sign changes
    of ``dphi`` on a probe grid and refines each boundary by bisection on
    ``dphi``.
    """
    lo, hi = branch.domain
    if branch.breakpoints:
        bounds = sorted({lo, hi, *branch.breakpoints})
        pieces = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            probes = np.linspace(a, b, 257)[1:-1]
            signs = np.sign(branch.dphi(probes))
            nonzero = signs[signs != 0]
            if nonzero.size and np.any(nonzero != nonzero[0]):
                raise NonMonotonePiece(
                    f"dphi changes sign inside declared piece [{a}, {b}]"
                )
            pieces.append((a, b, int(nonzero[0]) if nonzero.size else 1))
        return pieces

    grid = np.linspace(lo, hi, PROBE_GRID_SIZE)
    signs = np.sign(branch.dphi(grid))
    # Carry the last nonzero sign across zeros of dphi; leading zeros count
    # as increasing.
    last = np.maximum.accumulate(np.where(signs != 0, np.arange(signs.size), 0))
    carried = np.where(signs[last] != 0, signs[last], 1.0)
    turns = np.flatnonzero(carried[1:] != carried[:-1])
    cuts = bisect_roots(branch.dphi, 0.0, grid[turns], grid[turns + 1])
    bounds = [lo, *map(float, cuts), hi]
    piece_signs = carried[np.concatenate([[0], turns + 1])]
    return [(a, b, int(s)) for a, b, s in zip(bounds[:-1], bounds[1:], piece_signs)]


def pushforward_density_fn(dist: CurveSingularJoint) -> Evaluator:
    """Vectorized Y-marginal of a curve-singular joint.

    Sums ``a_n * rho_X(x*) / |phi_n'(x*)|`` over all preimages x* of y on
    every branch. The monotone pieces of each branch are found once, here;
    each evaluation then solves for all its ys on a piece with one
    elementwise bisection. A preimage shared by two adjacent pieces counts
    once.
    """
    branches = [(branch, monotone_pieces(branch)) for branch in dist.branches]

    def rho_y(y):
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        total = np.zeros(flat.shape)
        for branch, pieces in branches:
            roots = []
            for a, b, _sign in pieces:
                root = bisect_roots(branch.phi, flat, a, b)
                for earlier in roots:
                    root[np.abs(root - earlier) <= 1e-9] = np.nan
                roots.append(root)
                idx = np.flatnonzero(~np.isnan(root))
                rho = np.asarray(dist.marginal_x(root[idx]), dtype=float)
                idx, rho = idx[rho != 0.0], rho[rho != 0.0]
                x = root[idx]
                slope = np.abs(np.asarray(branch.dphi(x), dtype=float))
                flat_slope = slope < DERIVATIVE_FLOOR
                if np.any(flat_slope):
                    k = int(np.argmax(flat_slope))
                    raise DerivativeVanishes(
                        f"|phi'({x[k]:.6g})| < {DERIVATIVE_FLOOR:g} at a preimage of "
                        f"y={flat[idx[k]]:.6g}"
                    )
                total[idx] += branch.weight * rho / slope
        return float(total[0]) if y.ndim == 0 else total.reshape(y.shape)

    return rho_y


def derive_pushforward_density(dist: CurveSingularJoint, y: float) -> float:
    """Density of Y at one point ``y``; see :func:`pushforward_density_fn`."""
    return pushforward_density_fn(dist)(float(y))


# ---------------------------------------------------------------------------
# Tabulated inverse CDFs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TabulatedInverseCdf:
    """Linear-interpolation quantile function built from a tabulated CDF."""

    grid: np.ndarray
    cdf: np.ndarray

    def __call__(self, u):
        return np.interp(u, self.cdf, self.grid)


def tabulated_inverse_cdf(
    pdf: Evaluator, support: Interval, n: int = INVERSE_CDF_RESOLUTION
) -> TabulatedInverseCdf:
    """Tabulate the CDF of ``pdf`` on ``support`` and return its inverse."""
    lo, hi = support
    grid = np.linspace(lo, hi, n)
    dens = np.asarray(pdf(grid), dtype=float)
    if np.any(dens < 0):
        raise ValueError("pdf evaluator returned negative values")
    step = (hi - lo) / (n - 1)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * step)])
    if cdf[-1] <= 0:
        raise ValueError("pdf has zero mass on the support")
    cdf /= cdf[-1]
    return TabulatedInverseCdf(grid=grid, cdf=cdf)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_csv(f: io.TextIOBase, header, *columns) -> None:
    """Write a header line, then one row per index of the equal-length columns.

    Float columns are written ``%.17g``, which reads back to the same double;
    any other column is written with ``str`` (a StrEnum as its value). Rows
    are formatted CSV_BLOCK_ROWS at a time, one ``%`` per block, so memory
    stays bounded however long the columns are.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    f.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = [c[start : start + CSV_BLOCK_ROWS].tolist() for c in columns]
        f.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def write_json(f: io.TextIOBase, obj) -> None:
    """Write ``obj`` as JSON indented by two spaces, ending with a newline."""
    json.dump(obj, f, indent=2)
    f.write("\n")


def _csv_float(cell: str, where: str) -> float:
    """``float(cell)`` under the rules of numpy's parser: ASCII, no underscores."""
    if cell.isascii() and "_" not in cell:
        with contextlib.suppress(ValueError):
            return float(cell)
    raise ValueError(f"{where}: not a number: {cell.strip()!r}")


def _read_csv(f: io.TextIOBase, what: str) -> tuple[list[str], np.ndarray]:
    """The header cells and the body of a CSV of floats as wide as its header.

    ``np.loadtxt`` (numpy's C parser, correctly rounded like ``float``) reads
    the body; blank lines are skipped. Only if it fails, or the body has the
    wrong width or a non-finite value, does a line scan run to raise
    ValueError naming the first bad line.
    """
    if not f.seekable():  # a pipe: the scan needs to read the body again
        f = io.StringIO(f.read())
    header = [c.strip() for c in f.readline().rstrip("\r\n").split(",")]
    width, start = len(header), f.tell()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        if body.size == 0 or (body.shape[1] == width and np.isfinite(body).all()):
            return header, body.reshape(-1, width)
    except ValueError:
        pass
    f.seek(start)
    for line_no, line in enumerate(f, start=2):
        cells = line.rstrip("\r\n").split(",")
        where = f"{what} csv line {line_no}"
        if cells == [""]:
            continue
        if len(cells) != width:
            raise ValueError(f"{where}: expected {width} cells, got {len(cells)}")
        if not all(math.isfinite(_csv_float(c, where)) for c in cells):
            raise ValueError(f"{where}: non-finite value")
    raise ValueError(f"{what} csv: unreadable body")


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


def write_samples_csv(f: io.TextIOBase, samples: np.ndarray) -> None:
    samples = np.asarray(samples, dtype=float)
    write_csv(f, ("x", "y"), samples[:, 0], samples[:, 1])


def read_samples_csv(f: io.TextIOBase) -> np.ndarray:
    """Parse ``x,y`` sample rows into an (n, 2) array; blank lines are skipped.

    A row without exactly two cells, a cell that is not a number, or a
    non-finite value raises ValueError naming its line.
    """
    header, body = _read_csv(f, "sample")
    if header != ["x", "y"]:
        raise ValueError("sample csv must start with header 'x,y'")
    return body
