"""Output checks against independent references.

No expected value here is copied from liftdep's output. References are
closed forms from the paper's families, one-dimensional integrals done with
scipy's QUADPACK, or direct loops; tolerances are the acceptance suite's
where one exists (C02, C03, C04, C09) and otherwise stated beside the check.
Every check returns ``None`` on success or a one-line reason.

The sha256 pins are the golden outputs of the README recipes as the
benchmark's first commit produced them. The grids and ``w.csv`` do not depend
on the seed; ``line.csv`` and ``lhat.csv`` are pinned for the README seed 42.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

DEFAULT_SEED = 42

GOLDEN = {
    "cauchy_grid.csv": "95b9f6919d6a0fb3a270662086a01eef004e019091ddcb0269d0fafdca82dfa5",
    "bvn_grid.csv": "49c6590136412a15f11fab8f1fb19f39aea6ccbd887236ed29479c75295fe16c",
    "w.csv": "073d5957a7811a26cd90d09df128b426e18dc78d06db7e6ab0cb54c18f268cab",
}
GOLDEN_SEEDED = {
    "line.csv": "b241f40f2f6807d4955ff33e93de25af64f53aa0a198a0ca15812e027363d9ce",
    "lhat.csv": "ae5c51c4120ffe9d77792331698def8092d3e9e93d2538553d63040cb3f2af29",
}

ANALYTIC_TOL = 1e-9    # README: label tolerance of analytic fields
ESTIMATED_TOL = 0.05   # README: label tolerance of estimated fields
C02_TOL = 1e-3
C03_VALUE, C03_TOL = 0.223, 5e-3
C04_TOL = 1e-4
C09_TOL = 0.1
# Sibuya ratios: liftdep integrates F to an absolute 1e-8 and truncates the
# Cauchy plane to [-1e5, 1e5]^2 (~3e-6 of mass per axis); at the points used
# here both keep the ratio within 1e-4 relative.
SIBUYA_RTOL = 1e-4
# Region masses come from a 1024^2 quantile grid; misclassified boundary
# cells cost O(1/1024) of mass.
REGION_TOL = 2.0 / 1024
# The n = 30 Weierstrass term has phase pi * 3^30 ~ 6.5e14, rounded to
# ~0.06 rad; at the endpoints that moves the sum by < 2^-30 * 0.06^2 / 2.
WEIERSTRASS_TOL = 1e-11
LIMIT_MI = math.log(2.0 * math.sqrt(math.e) / math.sqrt(math.pi))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_mismatch(name: str, data: bytes, seed: int) -> str | None:
    pin = GOLDEN.get(name) or (GOLDEN_SEEDED.get(name) if seed == DEFAULT_SEED else None)
    if pin is not None and sha256(data) != pin:
        return f"{name}: sha256 differs from the golden output"
    return None


# ---------------------------------------------------------------------------
# Closed forms and reference integrals
# ---------------------------------------------------------------------------


def mi_bvn(r: float) -> float:
    return -0.5 * math.log(1.0 - r * r)


def normal_pdf(x):
    return np.exp(-0.5 * np.asarray(x, float) ** 2) / math.sqrt(2.0 * math.pi)


def bvn_lift(r: float, x, y):
    """Lift as a ratio of the bivariate and univariate normal densities."""
    joint = np.exp(-(x * x + y * y - 2.0 * r * x * y) / (2.0 * (1.0 - r * r))) / (
        2.0 * math.pi * math.sqrt(1.0 - r * r))
    return joint / (normal_pdf(x) * normal_pdf(y))


def cauchy_lift(x, y):
    """Circular Cauchy density over the product of its Cauchy marginals."""
    return math.pi * (1.0 + x * x) * (1.0 + y * y) / (2.0 * (1.0 + x * x + y * y) ** 1.5)


def sibuya_bvn(r: float, x: float, y: float) -> float:
    """F / (G H) with F = int_{-inf}^x phi(t) Phi((y - r t)/s) dt."""
    from scipy import integrate, special

    s = math.sqrt(1.0 - r * r)
    f = integrate.quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
                       * special.ndtr((y - r * t) / s), -math.inf, x,
                       epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return f / (special.ndtr(x) * special.ndtr(y))


def _cauchy_cdf(x: float) -> float:
    return 0.5 + math.atan(x) / math.pi


def sibuya_cauchy(x: float, y: float) -> float:
    """Y given X = t has CDF (1 + y / sqrt(1 + t^2 + y^2)) / 2."""
    from scipy import integrate

    f = integrate.quad(lambda t: 0.5 * (1.0 + y / math.sqrt(1.0 + t * t + y * y))
                       / (math.pi * (1.0 + t * t)), -math.inf, x,
                       epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return f / (_cauchy_cdf(x) * _cauchy_cdf(y))


def bvn_lift_region_mass(r: float) -> float:
    """Product-normal mass of {L > 1}: for fixed x, {L > 1} is the y-interval
    x/r -+ sqrt(x^2 (1 - r^2) + c)/r with c = -(1 - r^2) log(1 - r^2)."""
    from scipy import integrate, special

    c = -(1.0 - r * r) * math.log(1.0 - r * r)

    def slice_mass(x):
        h = math.sqrt(x * x * (1.0 - r * r) + c) / abs(r)
        return float(normal_pdf(x)) * (special.ndtr(x / r + h) - special.ndtr(x / r - h))

    return integrate.quad(slice_mass, -math.inf, math.inf, epsabs=1e-13, limit=400)[0]


def bvn_target_rates(r: float, lo: float, hi: float, x_grid):
    """P(lo < Y < hi | X = x) on the grid, and P(lo < Y < hi)."""
    from scipy import special

    s = math.sqrt(1.0 - r * r)
    x = np.asarray(x_grid, float)
    rates = special.ndtr((hi - r * x) / s) - special.ndtr((lo - r * x) / s)
    return rates, float(special.ndtr(hi) - special.ndtr(lo))


def check_bvn_target(p: dict, r: float, x_grid) -> str | None:
    """Best profile for Y in [1, 2] under the bvn, against closed-form rates."""
    rates, base = bvn_target_rates(r, 1.0, 2.0, x_grid)
    i = int(np.argmax(rates))
    return (close("x_opt", p["x_opt"], float(x_grid[i]))
            or close("baseline_rate", p["baseline_rate"], base, atol=1e-9)
            or close("boosted_rate", p["boosted_rate"], float(rates[i]), atol=1e-8)
            or close("lift_at_opt", p["lift_at_opt"], float(rates[i]) / base, rtol=1e-7)
            or close("expected_extra_per_n", p["expected_extra_per_n"],
                     float(rates[i]) - base, atol=1e-8))


# Curve-singular MI closed forms for the four CLI curve specs:
# E[log 2a/(pi rho_Y(phi(X)) sqrt(1 + phi'(X)^2))] with rho_Y by change of variables.
CURVE_MI = {
    "curve-normal-identity": LIMIT_MI,
    "curve-uniform-identity": math.log(math.sqrt(2.0) / math.pi),
    "curve-normal-double": math.log(4.0 / math.pi) - 0.5 * math.log(5.0)
    + 0.5 * math.log(2.0 * math.pi) + 0.5,
    "curve-uniform-square": math.log(4.0 / math.pi) - 0.5 * math.log(5.0) - 0.5 * math.atan(2.0),
}


# ---------------------------------------------------------------------------
# Shared value checks
# ---------------------------------------------------------------------------


def close(label: str, got: float, want: float, atol: float = 0.0, rtol: float = 0.0):
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        return f"{label}: got {got!r}, want {want!r} (atol {atol:g}, rtol {rtol:g})"
    return None


def label_rule(values: np.ndarray, tol: float) -> np.ndarray:
    """README labels: Lift > 1 + tol, 0 < Inhibit < 1 - tol, Zero, Undefined (NaN)."""
    out = np.full(values.shape, "Neutral", dtype=object)
    out[values > 1.0 + tol] = "Lift"
    out[(values > 0.0) & (values < 1.0 - tol)] = "Inhibit"
    out[values == 0.0] = "Zero"
    out[np.isnan(values)] = "Undefined"
    return out


def check_labels(values: np.ndarray, labels: np.ndarray, tol: float) -> str | None:
    bad = np.flatnonzero(label_rule(values, tol) != labels)
    if bad.size:
        return f"{bad.size} labels break the label rule (first at flat index {bad[0]})"
    return None


def parse_field_csv(text: str):
    """``x,y,L,label`` rows into coordinate, value and label arrays."""
    lines = text.splitlines()
    if not lines or lines[0] != "x,y,L,label":
        raise ValueError("field csv header is not 'x,y,L,label'")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != 4 for r in rows):
        raise ValueError("field csv row without four cells")
    xy = np.array([(float(r[0]), float(r[1]), float(r[2])) for r in rows]).reshape(-1, 3)
    return xy[:, 0], xy[:, 1], xy[:, 2], np.array([r[3] for r in rows], dtype=object)


def check_field(text: str, gx, gy, reference, rtol: float, tol: float) -> str | None:
    """A grid CSV against exact grid coordinates, reference values and labels."""
    x, y, values, labels = parse_field_csv(text)
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    if x.size != xx.size or np.any(x != xx.ravel()) or np.any(y != yy.ravel()):
        return "grid coordinates differ from the requested linspace"
    want = reference(xx.ravel(), yy.ravel())
    err = np.abs(values - want) / np.abs(want)
    if not np.all(err <= rtol):
        i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        return f"value at ({x[i]}, {y[i]}) is {values[i]!r}, reference {want[i]!r}"
    return check_labels(values, labels, tol)
