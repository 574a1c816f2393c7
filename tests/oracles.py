"""Independent brute-force oracles used to check the library.

Everything here is written with plain loops and scipy reference routines,
deliberately avoiding the library's own code paths, so that an agreement
between an oracle and the library is a genuine dual-route check.
"""

import math

import numpy as np
from scipy import integrate


def brute_lift_table(pmf):
    """Lift table by explicit loops; None marks undefined cells."""
    pmf = np.asarray(pmf, dtype=float)
    nx, ny = pmf.shape
    px = [sum(pmf[i][j] for j in range(ny)) for i in range(nx)]
    py = [sum(pmf[i][j] for i in range(nx)) for j in range(ny)]
    out = [[None] * ny for _ in range(nx)]
    for i in range(nx):
        for j in range(ny):
            denom = px[i] * py[j]
            if denom > 0:
                out[i][j] = pmf[i][j] / denom
    return out


def brute_mi(pmf):
    """Mutual information by explicit loops over positive cells."""
    pmf = np.asarray(pmf, dtype=float)
    nx, ny = pmf.shape
    px = [sum(pmf[i][j] for j in range(ny)) for i in range(nx)]
    py = [sum(pmf[i][j] for i in range(nx)) for j in range(ny)]
    total = 0.0
    for i in range(nx):
        for j in range(ny):
            p = pmf[i][j]
            if p > 0:
                total += p * math.log(p / (px[i] * py[j]))
    return total


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bvn_pdf(r, x, y):
    q = (x * x + y * y - 2 * r * x * y) / (2 * (1 - r * r))
    return math.exp(-q) / (2 * math.pi * math.sqrt(1 - r * r))


def lift_label(value, tol):
    """Region label of one lift value under the documented tolerance rule."""
    if math.isnan(value):
        return "Undefined"
    if value == 0.0:
        return "Zero"
    if value > 1.0 + tol:
        return "Lift"
    if value < 1.0 - tol:
        return "Inhibit"
    return "Neutral"


def bvn_orthant_lower(r):
    """P(X <= 0, Y <= 0) for the standard bivariate normal."""
    return 0.25 + math.asin(r) / (2 * math.pi)


def quad_1d(f, a, b, **kw):
    val, _ = integrate.quad(f, a, b, **kw)
    return val


def quad_2d(f, xa, xb, ya, yb, **kw):
    val, _ = integrate.dblquad(lambda y, x: f(x, y), xa, xb, lambda _: ya, lambda _: yb, **kw)
    return val


def random_pmf(rng, nx, ny, zero_fraction=0.0):
    """A random dense pmf, optionally with some exact-zero cells."""
    table = rng.random((nx, ny))
    if zero_fraction > 0:
        table[rng.random((nx, ny)) < zero_fraction] = 0.0
        if table.sum() == 0:
            table[0, 0] = 1.0
    return table / table.sum()


def ks_distance(samples_1d, cdf):
    """Kolmogorov-Smirnov distance between a sample and an analytic CDF."""
    xs = np.sort(np.asarray(samples_1d, dtype=float))
    n = xs.size
    cdf_vals = np.array([cdf(x) for x in xs])
    upper = np.max(np.abs(np.arange(1, n + 1) / n - cdf_vals))
    lower = np.max(np.abs(cdf_vals - np.arange(0, n) / n))
    return max(upper, lower)


# Reference CSV writers: one f-string per row with 17 significant digits, the
# bytes the package's writers must produce.


def lift_field_csv(grid_x, grid_y, values, labels):
    rows = ["x,y,L,label\n"]
    for i, x in enumerate(grid_x):
        for j, y in enumerate(grid_y):
            rows.append(f"{x:.17g},{y:.17g},{values[i][j]:.17g},{labels[i][j]}\n")
    return "".join(rows)


def samples_csv(samples):
    return "x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in samples)


def pmf_csv(x_support, y_support, pmf):
    rows = ["x" + "".join(f",y:{y:.17g}" for y in y_support) + "\n"]
    for i, x in enumerate(x_support):
        rows.append(f"{x:.17g}" + "".join(f",{p:.17g}" for p in pmf[i]) + "\n")
    return "".join(rows)


def convergence_csv(rows, limit_mi):
    out = ["r,mi,limit_mi,exceeds\n"]
    for r, mi, exceeds in rows:
        out.append(f"{r:.17g},{mi:.17g},{limit_mi:.17g},{str(exceeds).lower()}\n")
    return "".join(out)


def ball_profile_csv(radii, counts, densities):
    rows = ["eps,count,rho_eps\n"]
    for eps, count, rho in zip(radii, counts, densities):
        rows.append(f"{eps:.17g},{count:d},{rho:.17g}\n")
    return "".join(rows)
