"""Empirical ball-mass densities and local scaling exponents.

For a sample of the joint law, the mass of a ball of radius eps around a
point, divided by the ball area, estimates a density where one exists and
diverges like ``eps^(s-2)`` on lower-dimensional supports. The exponent s of
the ball-mass power law ``mass ~ eps^s`` is the local scaling exponent: 2 on
absolutely continuous parts, 1 on smooth curves, fractional on fractal
supports. We estimate it as the least-squares slope of ``log mass`` against
``log eps`` over a geometric radius schedule; this mass-scaling slope is an
estimator that coincides with the exponent wherever the ball-mass limit
``mass / eps^s`` exists positive and finite.

The module also ships the truncated Weierstrass series
``w_N(x) = sum_{n=1}^{N} cos(2 pi 3^n x) / 2^n`` whose graph is the standard
fractal-support test case (reference Hausdorff dimension
``2 - log 2 / log 3``).
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import codec
from .errors import InsufficientRadii

MIN_COUNT_PER_RADIUS = 10
MIN_FIT_RADII = 4

WEIERSTRASS_DIMENSION = 2.0 - math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# Ball counting
# ---------------------------------------------------------------------------


def ball_mass_counts(points, center, radii) -> np.ndarray:
    """Exact in-ball counts for many radii via one sorted-distance pass over
    an (n, 2) array; ValueError unless ``center`` is a pair of finite numbers."""
    cx, cy = codec._pair(center, "center")
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError(f"center coordinates must be finite, got {(cx, cy)}")
    pts = np.asarray(points, dtype=float)
    dist = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    dist.sort()
    return np.searchsorted(dist, np.asarray(radii, dtype=float), side="right")


# ---------------------------------------------------------------------------
# Profiles and exponent fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BallDensityProfile:
    """Ball-mass densities of one center across a decreasing radius ladder."""

    center: tuple[float, float]
    radii: np.ndarray
    counts: np.ndarray
    n: int

    @property
    def densities(self) -> np.ndarray:
        return (self.counts / self.n) / (math.pi * self.radii**2)

    def to_csv(self, f: io.TextIOBase) -> None:
        codec.write_csv(f, ("eps", "count", "rho_eps"), self.radii, self.counts, self.densities)


@dataclass(frozen=True)
class ScalingEstimate:
    """Fitted local scaling exponent with its log-log goodness of fit."""

    center: tuple[float, float]
    s_hat: float
    fit_r2: float
    radii_used: tuple[float, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def geometric_radii(eps_max: float, eps_min: float, k: int) -> np.ndarray:
    """Decreasing geometric ladder from eps_max down to eps_min, k rungs."""
    j = np.arange(k)
    return eps_max * (eps_min / eps_max) ** (j / (k - 1))


def ball_density_profile(points, center, radii) -> BallDensityProfile:
    """Exact ball counts of ``points``, a nonempty (n, 2) array of finite
    values, at each radius; ValueError for other points, centers or radii."""
    radii = np.array(radii, dtype=float)  # the profile owns its radii
    if not (np.all(radii > 0) and np.all(np.diff(radii) < 0)):
        raise ValueError("radii must be positive and strictly decreasing")
    pts = codec._sample_pairs(points, "points")
    if pts.shape[0] == 0:
        raise ValueError("points must be nonempty")
    center = codec._pair(center, "center")
    counts = ball_mass_counts(pts, center, radii)
    return BallDensityProfile(
        center=center,
        radii=radii,
        counts=counts,
        n=pts.shape[0],
    )


def scaling_exponent(
    points,
    center,
    eps_max: float,
    eps_min: float,
    k: int,
) -> ScalingEstimate:
    """Least-squares slope of ``log mass(B_eps)`` vs ``log eps``.

    Radii follow a geometric schedule of ``k`` rungs, an integer >= 4; those
    with fewer than 10 points are dropped and at least 4 must survive,
    otherwise InsufficientRadii.
    """
    if not 0 < eps_min < eps_max < math.inf:
        raise ValueError("need 0 < eps_min < eps_max < inf")
    k = codec._count(k, "k", MIN_FIT_RADII)
    profile = ball_density_profile(points, center, geometric_radii(eps_max, eps_min, k))
    keep = profile.counts >= MIN_COUNT_PER_RADIUS
    if int(keep.sum()) < MIN_FIT_RADII:
        raise InsufficientRadii(
            f"only {int(keep.sum())} radii kept at least "
            f"{MIN_COUNT_PER_RADIUS} points; need {MIN_FIT_RADII}"
        )
    log_eps = np.log(profile.radii[keep])
    log_mass = np.log(profile.counts[keep] / profile.n)
    slope, intercept = np.polyfit(log_eps, log_mass, 1)
    fitted = slope * log_eps + intercept
    ss_res = float(np.sum((log_mass - fitted) ** 2))
    ss_tot = float(np.sum((log_mass - log_mass.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingEstimate(
        center=profile.center,
        s_hat=float(slope),
        fit_r2=float(min(max(r2, 0.0), 1.0)),
        radii_used=tuple(float(e) for e in profile.radii[keep]),
    )


# ---------------------------------------------------------------------------
# Weierstrass curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeierstrassCurve:
    """Truncated series ``sum_{n=1}^{N} cos(2 pi 3^n x) / 2^n``.

    The dropped tail is geometric, so the truncation error never exceeds
    ``2^-n_terms``.
    """

    n_terms: int = 30

    def __post_init__(self):
        codec._count(self.n_terms, "n_terms", 1)


def weierstrass_eval(curve: WeierstrassCurve, x) -> float | np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite: a value is NaN or infinite")
    n = np.arange(1, curve.n_terms + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 2.0 * math.pi * np.multiply.outer(x, 3.0**n)
    if not np.isfinite(phase).all():
        raise ValueError(f"n_terms={curve.n_terms}: the phase 2 pi 3^n x is not finite")
    terms = np.cos(phase) / 2.0**n
    out = terms.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def weierstrass_grid(curve: WeierstrassCurve, n_points: int) -> np.ndarray:
    """Uniform grid of ``(x, w(x))`` pairs over [0, 1/2]; ``n_points`` is an
    integer >= 2."""
    n_points = codec._count(n_points, "n_points", 2)
    x = np.linspace(0.0, 0.5, n_points)
    return np.column_stack([x, weierstrass_eval(curve, x)])
