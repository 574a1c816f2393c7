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

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import codec
from . import distributions as dm
from .errors import DegenerateSample, MinSampleSize, TargetHasZeroMass
from .information import MiReport, mi_discrete
from .lift import ESTIMATED_TOL, LiftField, check_grids, classify_values, lift_grid

MIN_KERNEL_SAMPLE = 20
KDE_CHUNK = 4096
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TINY = float(np.finfo(float).tiny)  # 2^-1022, the smallest normal double


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Cross-tabulated counts of observed (x, y) pairs."""

    x_labels: np.ndarray
    y_labels: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for name, dtype in (("x_labels", float), ("y_labels", float), ("counts", None)):
            array = np.array(getattr(self, name), dtype=dtype)  # a read-only copy
            array.flags.writeable = False
            object.__setattr__(self, name, array)
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
        """Count the pairs of an (n, 2) array of finite values; ValueError otherwise."""
        pts = codec._sample_pairs(samples, "samples")
        x_labels, ix = np.unique(pts[:, 0], return_inverse=True)
        y_labels, iy = np.unique(pts[:, 1], return_inverse=True)
        counts = np.zeros((x_labels.size, y_labels.size), dtype=np.int64)
        np.add.at(counts, (ix, iy), 1)
        return cls(x_labels, y_labels, counts)


def empirical_pmf(table: ContingencyTable, smoothing: float = 0.0) -> dm.DiscreteJoint:
    """Relative frequencies of the table, optionally additively smoothed.

    ValueError unless ``smoothing`` is nonnegative and finite and the
    smoothed counts have a finite total.
    """
    with np.errstate(over="ignore"):  # an overflowed total is refused below
        smoothed = table.counts.astype(float) + smoothing
        total = smoothed.sum()
    if not (0 <= smoothing < math.inf and math.isfinite(total)):
        raise ValueError(f"smoothing must be nonnegative and finite, got {smoothing!r}")
    return dm.DiscreteJoint(table.x_labels, table.y_labels, smoothed / total)


def empirical_discrete_lift(table: ContingencyTable, smoothing: float = 0.5) -> LiftField:
    """Plug-in lift table on (smoothed) relative frequencies."""
    pmf = empirical_pmf(table, smoothing)
    return lift_grid(pmf, pmf.x_support, pmf.y_support, ESTIMATED_TOL)


def empirical_mi(table: ContingencyTable, smoothing: float = 0.0) -> MiReport:
    """Plug-in mutual information of the empirical pmf."""
    return mi_discrete(empirical_pmf(table, smoothing))


# ---------------------------------------------------------------------------
# Kernel lift
# ---------------------------------------------------------------------------


def silverman_bandwidth(data: np.ndarray) -> float:
    """Rule-of-thumb bandwidth ``1.06 * sigma * n^(-1/5)``.

    Raises ValueError for fewer than two values or a value that is not
    finite, and DegenerateSample for zero variance.
    """
    data = np.asarray(data, dtype=float)
    if data.size < 2 or not np.isfinite(data).all():
        raise ValueError("silverman_bandwidth needs at least two values, all finite")
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


def _kernel_rows(grid: np.ndarray, data: np.ndarray, h: float) -> np.ndarray:
    """Kernel rows ``standard_normal_pdf((grid[:, None] - data) / h) / h``,
    bit for bit, wherever that value is at least 2^-1022 (the smallest normal
    double), and +0.0 wherever it is smaller.

    Subnormal doubles are slow: ``exp`` takes 20 to over 100 times longer
    when its result underflows, and the product of rows that hold subnormals
    takes microcode assists. So an exponent ``-z^2 / 2`` below
    ``log(2^-1022 * sqrt(2 pi) * h) - 2`` is set to 0 before ``exp`` runs,
    and its value to 0 after. That cut is safe: ``exp``'s error of one unit
    of 2^-1074 cannot lift a value e^2 below the threshold to it, and where
    ``h`` is so small that it could, the cut lies below log(2^-1075), where
    ``exp`` is exactly 0. A value still below 2^-1022 is set to 0 last.
    """
    z = grid[:, None] - data
    with np.errstate(over="ignore"):  # the overflows that the masks below handle
        z /= h
        e = -0.5 * z
        e *= z  # standard_normal_pdf's -0.5 * z * z, in its order
        keep = e >= math.log(_TINY) + math.log(_SQRT_2PI) + math.log(h) - 2.0
        # Masks zero the bits: an integer product by 0 or 1 gives +0.0 from any
        # double, where a float product gives NaN from an overflowed z's -inf
        # exponent, or from the inf that exp(0) / h is for a subnormal h.
        bits = e.view(np.int64)
        bits *= keep
        k = np.exp(e, out=e)
        k /= _SQRT_2PI
        k /= h
    keep &= k >= _TINY
    bits *= keep
    return k


def kernel_lift(
    samples,
    grid_x,
    grid_y,
    bandwidth_rule="silverman",
) -> KernelLiftEstimate:
    """Product-Gaussian-kernel lift estimate on a grid.

    Joint density and the two marginals are estimated separately (marginals
    in 1D) and their ratio forms the lift. ``bandwidth_rule`` is either the
    string ``"silverman"`` or a fixed ``(h_x, h_y)`` pair. The grids must pass
    :func:`~liftdep.lift.check_grids`, and the samples must be an (n, 2)
    array of finite values, or ValueError is raised.

    The sums run over KDE_CHUNK samples at a time; each chunk's kernel rows,
    their product and their row sums are computed on up to ``codec._WORKERS``
    threads, and the chunks are added in sample order, so the result is the
    same bit for bit on any number of threads (for a given BLAS thread count,
    which may change the product's last bits).

    A kernel value below 2^-1022, the smallest normal double, counts as 0:
    for ``h = 1`` that is from about 37.6 bandwidths out. A cell whose
    marginal estimate has no kernel value in normal range is Undefined; one
    whose two positive marginal estimates have a product below 2^-1022 is
    divided by one at a time, so it is not.
    """
    pts = codec._sample_pairs(samples, "samples")
    n = pts.shape[0]
    if n < MIN_KERNEL_SAMPLE:
        raise MinSampleSize(f"kernel_lift needs at least {MIN_KERNEL_SAMPLE} samples, got {n}")
    xs, ys = pts[:, 0], pts[:, 1]
    if isinstance(bandwidth_rule, str):
        if bandwidth_rule.lower() != "silverman":
            raise ValueError(f"unknown bandwidth rule {bandwidth_rule!r}")
        hx, hy = silverman_bandwidth(xs), silverman_bandwidth(ys)
    else:
        hx, hy = codec._pair(bandwidth_rule, "fixed bandwidths")
        if not (0 < hx < math.inf and 0 < hy < math.inf):
            raise ValueError("fixed bandwidths must be positive and finite")

    grid_x, grid_y = check_grids(grid_x, grid_y)
    joint = np.zeros((grid_x.size, grid_y.size))
    marg_x = np.zeros(grid_x.size)
    marg_y = np.zeros(grid_y.size)

    def sums(start):
        kx = _kernel_rows(grid_x, xs[start : start + KDE_CHUNK], hx)
        ky = _kernel_rows(grid_y, ys[start : start + KDE_CHUNK], hy)
        return kx @ ky.T, kx.sum(axis=1), ky.sum(axis=1)

    for chunk_joint, chunk_x, chunk_y in codec._in_order(sums, range(0, n, KDE_CHUNK)):
        joint += chunk_joint
        marg_x += chunk_x
        marg_y += chunk_y
    joint /= n
    marg_x /= n
    marg_y /= n
    denom = np.outer(marg_x, marg_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(denom > 0, joint / denom, np.nan)
    # two positive marginals whose product is subnormal or 0: one at a time
    i, j = np.nonzero((denom < _TINY) & (marg_x[:, None] > 0) & (marg_y > 0))
    values[i, j] = joint[i, j] / marg_x[i] / marg_y[j]
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
        return asdict(self)


def target_profile(dist_or_table, target_y, x_grid=None) -> TargetingResult:
    """Profile maximizing the lift toward the target response.

    Accepts a DiscreteJoint, a ContingencyTable (used at raw frequencies),
    or an absolutely continuous joint together with a target interval
    ``(lo, hi)`` and an optional 1D profile grid (by default 201 points over
    the X range of the integration box; ValueError when that range is
    unbounded, or when a given grid is not 1D, is empty or holds NaN). The
    rates are the class's ``target_rates``; a tie goes to the first profile
    in grid order, the smallest on an increasing grid.
    """
    if isinstance(dist_or_table, ContingencyTable):
        dist_or_table = empirical_pmf(dist_or_table)
    if x_grid is not None:
        x_grid = np.asarray(x_grid, dtype=float)
        if x_grid.ndim != 1 or x_grid.size < 1 or np.isnan(x_grid).any():
            raise ValueError("the profile grid must be 1D, nonempty and free of NaN")
    profiles, rates, baseline = dist_or_table.target_rates(target_y, x_grid)
    i = int(np.argmax(rates))  # argmax takes the first maximizer in grid order
    boosted_rate = float(rates[i])
    if boosted_rate == -np.inf:
        raise TargetHasZeroMass("no grid profile has positive marginal density")
    target = tuple(map(float, target_y)) if np.ndim(target_y) else float(target_y)
    return TargetingResult(
        target_y=target,
        x_opt=float(profiles[i]),
        lift_at_opt=boosted_rate / baseline,
        baseline_rate=baseline,
        boosted_rate=boosted_rate,
        expected_extra_per_n=boosted_rate - baseline,
    )
