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
from dataclasses import dataclass

import numpy as np

from . import distributions as dm
from .errors import InsufficientRadii

__all__ = [
    "BallDensityProfile",
    "ScalingEstimate",
    "WeierstrassCurve",
    "ball_density",
    "ball_mass_counts",
    "ball_density_profile",
    "scaling_exponent",
    "weierstrass_eval",
    "weierstrass_grid",
    "WEIERSTRASS_DIMENSION",
]

MIN_COUNT_PER_RADIUS = 10
MIN_FIT_RADII = 4

WEIERSTRASS_DIMENSION = 2.0 - math.log(2.0) / math.log(3.0)


# ---------------------------------------------------------------------------
# Ball counting
# ---------------------------------------------------------------------------


def ball_density(points, center, eps: float) -> float:
    """Empirical ball-mass density: fraction of points within eps of the
    center, divided by the ball area ``pi * eps^2``.

    Counting is exact; see :func:`ball_mass_counts`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError("points must be nonempty")
    frac = ball_mass_counts(pts, center, [eps])[0] / pts.shape[0]
    return frac / (math.pi * eps * eps)


def ball_mass_counts(points, center, radii) -> np.ndarray:
    """Exact in-ball counts for many radii via one sorted-distance pass."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    dist = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
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
        dm.write_csv(f, ("eps", "count", "rho_eps"), self.radii, self.counts, self.densities)


@dataclass(frozen=True)
class ScalingEstimate:
    """Fitted local scaling exponent with its log-log goodness of fit."""

    center: tuple[float, float]
    s_hat: float
    fit_r2: float
    radii_used: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "center": list(self.center),
            "s_hat": self.s_hat,
            "fit_r2": self.fit_r2,
            "radii_used": list(self.radii_used),
        }

    def to_json(self, f: io.TextIOBase) -> None:
        dm.write_json(f, self.to_dict())


def geometric_radii(eps_max: float, eps_min: float, k: int) -> np.ndarray:
    """Decreasing geometric ladder from eps_max down to eps_min, k rungs."""
    j = np.arange(k)
    return eps_max * (eps_min / eps_max) ** (j / (k - 1))


def ball_density_profile(points, center, radii) -> BallDensityProfile:
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0) or np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be positive and strictly decreasing")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    counts = ball_mass_counts(pts, center, radii)
    return BallDensityProfile(
        center=(float(center[0]), float(center[1])),
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

    Radii follow a geometric schedule; rungs with fewer than 10 points are
    dropped and at least 4 must survive, otherwise InsufficientRadii.
    """
    if not 0 < eps_min < eps_max:
        raise ValueError("need 0 < eps_min < eps_max")
    if k < MIN_FIT_RADII:
        raise ValueError(f"k must be at least {MIN_FIT_RADII}")
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
        center=(float(center[0]), float(center[1])),
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
        if self.n_terms < 1:
            raise ValueError("n_terms must be >= 1")


def weierstrass_eval(curve: WeierstrassCurve, x) -> float | np.ndarray:
    x = np.asarray(x, dtype=float)
    n = np.arange(1, curve.n_terms + 1)
    terms = np.cos(2.0 * math.pi * np.multiply.outer(x, 3.0**n)) / 2.0**n
    out = terms.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def weierstrass_grid(curve: WeierstrassCurve, n_points: int) -> np.ndarray:
    """Uniform grid of ``(x, w(x))`` pairs over [0, 1/2]."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    x = np.linspace(0.0, 0.5, n_points)
    return np.column_stack([x, weierstrass_eval(curve, x)])
