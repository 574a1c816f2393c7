"""Plug-in estimation of lift fields and mutual information, and targeting.

Discrete data goes through :class:`ContingencyTable`; optional additive
smoothing (default 0.5 per cell for lift tables) keeps 0/0 cells out of the
ratio. Continuous samples are handled with product-Gaussian kernel density
estimates, where the marginals are estimated separately in one dimension
rather than by integrating the 2D estimate -- that keeps the bias of the
ratio's denominator down.

Targeting picks the profile value maximizing the lift toward a target
response: applying a treatment to profile-``x_opt`` units multiplies the
target rate by ``lift_at_opt``, and the result reports both the multiplier
and the absolute per-unit rate gain so no dimensional convention is imposed
on the caller.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dm
from .errors import DegenerateSample, MinSampleSize, TargetHasZeroMass
from .information import MiReport, mi_discrete
from .lift import ESTIMATED_TOL, LiftField, classify_values, discrete_lift
from .quadrature import adaptive_quad_1d

__all__ = [
    "ContingencyTable",
    "KernelLiftEstimate",
    "TargetingResult",
    "empirical_discrete_lift",
    "empirical_pmf",
    "kernel_lift",
    "empirical_mi",
    "target_profile",
    "silverman_bandwidth",
]

MIN_KERNEL_SAMPLE = 20
KDE_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Cross-tabulated counts of observed (x, y) pairs."""

    x_labels: np.ndarray
    y_labels: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_labels", np.asarray(self.x_labels, dtype=float))
        object.__setattr__(self, "y_labels", np.asarray(self.y_labels, dtype=float))
        object.__setattr__(self, "counts", np.asarray(self.counts))
        if self.counts.shape != (self.x_labels.size, self.y_labels.size):
            raise ValueError("counts shape must match the label vectors")
        if np.any(self.counts < 0) or not np.issubdtype(self.counts.dtype, np.integer):
            raise ValueError("counts must be nonnegative integers")
        if self.n < 1:
            raise ValueError("the table must contain at least one observation")

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_samples(cls, samples) -> "ContingencyTable":
        pts = np.asarray(samples, dtype=float).reshape(-1, 2)
        x_labels, ix = np.unique(pts[:, 0], return_inverse=True)
        y_labels, iy = np.unique(pts[:, 1], return_inverse=True)
        counts = np.zeros((x_labels.size, y_labels.size), dtype=np.int64)
        np.add.at(counts, (ix, iy), 1)
        return cls(x_labels, y_labels, counts)


def empirical_pmf(table: ContingencyTable, smoothing: float = 0.0) -> dm.DiscreteJoint:
    """Relative frequencies of the table, optionally additively smoothed."""
    if smoothing < 0:
        raise ValueError("smoothing must be nonnegative")
    smoothed = table.counts.astype(float) + smoothing
    return dm.DiscreteJoint(table.x_labels, table.y_labels, smoothed / smoothed.sum())


def empirical_discrete_lift(table: ContingencyTable, smoothing: float = 0.5) -> LiftField:
    """Plug-in lift table on (smoothed) relative frequencies."""
    return discrete_lift(empirical_pmf(table, smoothing), tol=ESTIMATED_TOL)


def empirical_mi(table: ContingencyTable, smoothing: float = 0.0) -> MiReport:
    """Plug-in mutual information of the empirical pmf."""
    return mi_discrete(empirical_pmf(table, smoothing))


# ---------------------------------------------------------------------------
# Kernel lift
# ---------------------------------------------------------------------------


def silverman_bandwidth(data: np.ndarray) -> float:
    """Rule-of-thumb bandwidth ``1.06 * sigma * n^(-1/5)``."""
    data = np.asarray(data, dtype=float)
    sigma = float(np.std(data, ddof=1))
    if sigma == 0.0:
        raise DegenerateSample("sample axis has zero variance")
    return 1.06 * sigma * data.size ** (-0.2)


@dataclass(frozen=True, eq=False)
class KernelLiftEstimate:
    """Kernel-estimated lift field with the bandwidths that produced it."""

    bandwidth_x: float
    bandwidth_y: float
    field: LiftField
    n: int


def _gaussian_profile(u: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def kernel_lift(
    samples,
    grid_x,
    grid_y,
    bandwidth_rule="silverman",
) -> KernelLiftEstimate:
    """Product-Gaussian-kernel lift estimate on a grid.

    Joint density and the two marginals are estimated separately (marginals
    in 1D) and their ratio forms the lift. ``bandwidth_rule`` is either the
    string ``"silverman"`` or a fixed ``(h_x, h_y)`` pair.
    """
    pts = np.asarray(samples, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    if n < MIN_KERNEL_SAMPLE:
        raise MinSampleSize(f"kernel_lift needs at least {MIN_KERNEL_SAMPLE} samples, got {n}")
    xs, ys = pts[:, 0], pts[:, 1]
    if isinstance(bandwidth_rule, str):
        if bandwidth_rule.lower() != "silverman":
            raise ValueError(f"unknown bandwidth rule {bandwidth_rule!r}")
        hx, hy = silverman_bandwidth(xs), silverman_bandwidth(ys)
    else:
        hx, hy = float(bandwidth_rule[0]), float(bandwidth_rule[1])
        if hx <= 0 or hy <= 0:
            raise ValueError("fixed bandwidths must be positive")

    grid_x = np.asarray(grid_x, dtype=float)
    grid_y = np.asarray(grid_y, dtype=float)
    joint = np.zeros((grid_x.size, grid_y.size))
    marg_x = np.zeros(grid_x.size)
    marg_y = np.zeros(grid_y.size)
    for start in range(0, n, KDE_CHUNK):
        chunk = slice(start, min(start + KDE_CHUNK, n))
        kx = _gaussian_profile((grid_x[:, None] - xs[chunk]) / hx) / hx
        ky = _gaussian_profile((grid_y[:, None] - ys[chunk]) / hy) / hy
        joint += kx @ ky.T
        marg_x += kx.sum(axis=1)
        marg_y += ky.sum(axis=1)
    joint /= n
    marg_x /= n
    marg_y /= n
    denom = np.outer(marg_x, marg_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(denom > 0, joint / denom, np.nan)
    field = LiftField(grid_x, grid_y, values, classify_values(values, ESTIMATED_TOL), ESTIMATED_TOL)
    return KernelLiftEstimate(bandwidth_x=hx, bandwidth_y=hy, field=field, n=n)


# ---------------------------------------------------------------------------
# Targeting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetingResult:
    """Best profile for boosting a target response and its expected effect.

    ``boosted_rate = baseline_rate * lift_at_opt`` holds exactly for
    analytic discrete inputs; ``expected_extra_per_n`` is the absolute rate
    gain ``boosted_rate - baseline_rate`` per treated unit.
    """

    target_y: float | tuple[float, float]
    x_opt: float
    lift_at_opt: float
    baseline_rate: float
    boosted_rate: float
    expected_extra_per_n: float

    def to_dict(self) -> dict:
        target = self.target_y
        return {
            "target_y": list(target) if isinstance(target, tuple) else target,
            "x_opt": self.x_opt,
            "lift_at_opt": self.lift_at_opt,
            "baseline_rate": self.baseline_rate,
            "boosted_rate": self.boosted_rate,
            "expected_extra_per_n": self.expected_extra_per_n,
        }

    def to_json(self, f: io.TextIOBase) -> None:
        dm.write_json(f, self.to_dict())


def _discrete_target(dist: dm.DiscreteJoint, target_y: float) -> TargetingResult:
    iy = np.nonzero(dist.y_support == float(target_y))[0]
    if iy.size == 0:
        raise TargetHasZeroMass(f"target label {target_y} not in the Y support")
    j = int(iy[0])
    baseline = float(dist.p_y[j])
    if baseline == 0.0:
        raise TargetHasZeroMass(f"target label {target_y} has zero probability")
    p_x = dist.p_x
    with np.errstate(divide="ignore", invalid="ignore"):
        boosted = np.where(p_x > 0, dist.pmf[:, j] / p_x, -np.inf)
    i = int(np.argmax(boosted))  # argmax takes the first maximizer: smallest x
    boosted_rate = float(boosted[i])
    return TargetingResult(
        target_y=float(target_y),
        x_opt=float(dist.x_support[i]),
        lift_at_opt=boosted_rate / baseline,
        baseline_rate=baseline,
        boosted_rate=boosted_rate,
        expected_extra_per_n=boosted_rate - baseline,
    )


def _continuous_target(dist, target: tuple[float, float], x_grid) -> TargetingResult:
    lo, hi = float(target[0]), float(target[1])
    if not lo < hi:
        raise ValueError("target interval must satisfy lo < hi")
    _, _, y_lo, y_hi = dist.integration_box
    if x_grid is None:
        x_grid = np.linspace(*dist.bounded_axis("x"), 201)
    x_grid = np.asarray(x_grid, dtype=float)
    lo_c, hi_c = max(lo, y_lo), min(hi, y_hi)
    baseline = (
        adaptive_quad_1d(dist.marginal_y, lo_c, hi_c, tol=1e-10).value if lo_c < hi_c else 0.0
    )
    if baseline <= 0.0:
        raise TargetHasZeroMass(f"target interval [{lo}, {hi}] carries no mass")
    best_x, best_rate = None, -np.inf
    for x in x_grid:
        rho_x = float(dist.marginal_x(x))
        if rho_x <= 0.0:
            continue
        strip = adaptive_quad_1d(lambda y: dist.joint_density(np.full_like(y, x), y), lo_c, hi_c, tol=1e-10)
        rate = strip.value / rho_x
        if rate > best_rate:
            best_x, best_rate = float(x), float(rate)
    if best_x is None:
        raise TargetHasZeroMass("no grid profile has positive marginal density")
    return TargetingResult(
        target_y=(lo, hi),
        x_opt=best_x,
        lift_at_opt=best_rate / baseline,
        baseline_rate=baseline,
        boosted_rate=best_rate,
        expected_extra_per_n=best_rate - baseline,
    )


def target_profile(dist_or_table, target_y, x_grid=None) -> TargetingResult:
    """Profile maximizing the lift toward the target response.

    Accepts a DiscreteJoint, a ContingencyTable (used at raw frequencies),
    or an absolutely continuous joint together with a target interval
    ``(lo, hi)`` and an optional 1D profile grid (by default 201 points over
    the X range of the integration box; ValueError when that range is
    unbounded). Ties break toward the smallest profile value.
    """
    if isinstance(dist_or_table, ContingencyTable):
        return _discrete_target(empirical_pmf(dist_or_table), target_y)
    if isinstance(dist_or_table, dm.DiscreteJoint):
        return _discrete_target(dist_or_table, target_y)
    if isinstance(target_y, (tuple, list)) and len(target_y) == 2:
        return _continuous_target(dist_or_table, (target_y[0], target_y[1]), x_grid)
    raise TypeError("continuous targeting requires a (lo, hi) target interval")
