"""Independent brute-force oracles used to check the library.

Everything here is written with plain loops, scipy reference routines and
mpmath at 40 significant digits, deliberately avoiding the library's own code
paths, so that an agreement between an oracle and the library is a genuine
dual-route check.
"""

import functools
import heapq
import io
import itertools
import math
import warnings
from fractions import Fraction

import mpmath
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


def bvn_lift_mp(r, x, y):
    """The bivariate-normal lift ``rho / (phi(x) phi(y))`` in closed form at
    MP_DIGITS digits, rounded to a double (``inf`` past the largest one)."""
    with mpmath.workdps(MP_DIGITS):
        rr, xx, yy = mpmath.mpf(r), mpmath.mpf(x), mpmath.mpf(y)
        q = (xx * xx + yy * yy - 2 * rr * xx * yy) / (2 * (1 - rr * rr))
        return float(mpmath.exp((xx * xx + yy * yy) / 2 - q) / mpmath.sqrt(1 - rr * rr))


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


# The circular Cauchy, density 1/(2 pi (1 + x^2 + y^2)^(3/2)), in closed form.
# MI = E[log L] = log(8 pi) - 3 over the whole plane.
MI_CIRCULAR_CAUCHY = math.log(8.0 * math.pi) - 3.0


def mi_scaled_parabola(a):
    """MI of ``Y = a X^2`` with X ~ U(0, 1) or X ~ U(-1, 1), in closed form.

    Either way ``rho_Y(a x^2) = 1 / (2 a |x|)`` on the curve and ``|X|`` is
    uniform on (0, 1), so the MI is ``E log(4 a |X| / (pi sqrt(1 + 4 a^2 X^2)))``.
    """
    return (math.log(4.0 * a / math.pi) - 1.0
            - 0.5 * (math.log1p(4.0 * a * a) - 2.0 + math.atan(2.0 * a) / a))


def cauchy_cdf(x):
    return 0.5 + math.atan(x) / math.pi


def circular_cauchy_cdf(x, y):
    """F(x, y) = P(X <= x, Y <= y)."""
    s = math.atan(x) + math.atan(y) + math.atan(x * y / math.sqrt(1.0 + x * x + y * y))
    return 0.25 + s / (2.0 * math.pi)


MP_DIGITS = 40


def _owen_t(h, a):
    """Owen's T(h, a) = (1 / 2 pi) int_0^a exp(-h^2 (1 + t^2) / 2) / (1 + t^2) dt."""
    if a == 0:
        return mpmath.mpf(0)
    if mpmath.isinf(a):
        return mpmath.sign(a) * mpmath.ncdf(-abs(h)) / 2
    integrand = lambda t: mpmath.exp(-h * h * (1 + t * t) / 2) / (1 + t * t)  # noqa: E731
    return mpmath.quad(integrand, [0, a]) / (2 * mpmath.pi)


def bvn_cdf_mp(r, h, k):
    """P(X <= h, Y <= k) for the standard bivariate normal, by Owen's formula
    (Ann. Math. Statist. 27 (1956) 1075-1090)
    ``(Phi(h) + Phi(k)) / 2 - T(h, a_h) - T(k, a_k) - beta``, which does not
    integrate ``phi(s) Phi((k - r s) / sqrt(1 - r^2))`` as the library does.
    Its terms are at most 1, so a result near ``10^-d`` cancels about ``d``
    digits: the working precision is raised until it covers them and leaves
    MP_DIGITS significant digits."""
    digits = MP_DIGITS + 10
    while True:
        with mpmath.workdps(digits):
            rr, hh, kk = mpmath.mpf(r), mpmath.mpf(h), mpmath.mpf(k)
            s = mpmath.sqrt(1 - rr * rr)
            if hh == 0 and kk == 0:
                a_h = a_k = mpmath.sqrt((1 - rr) / (1 + rr))
            else:
                a_h = (kk - rr * hh) / (hh * s) if hh != 0 else mpmath.sign(kk) * mpmath.inf
                a_k = (hh - rr * kk) / (kk * s) if kk != 0 else mpmath.sign(hh) * mpmath.inf
            beta = 0 if (hh * kk > 0 or (hh * kk == 0 and hh + kk >= 0)) else mpmath.mpf(1) / 2
            cdf = (mpmath.ncdf(hh) + mpmath.ncdf(kk)) / 2 - beta
            cdf -= _owen_t(hh, a_h) + _owen_t(kk, a_k)
            lost = int(-mpmath.log10(cdf)) if cdf > 0 else digits
            if cdf > 0 and lost + MP_DIGITS + 5 <= digits:
                return cdf
        digits = max(2 * digits, lost + MP_DIGITS + 20)


def bvn_sibuya_mp(r, x, y):
    """Sibuya's ``F / (G H)`` of the standard bivariate normal, untruncated."""
    with mpmath.workdps(MP_DIGITS):
        return float(bvn_cdf_mp(r, x, y) / (mpmath.ncdf(x) * mpmath.ncdf(y)))


def bvn_conditional_rate_mp(r, x, lo, hi):
    """P(lo < Y <= hi | X = x) for the standard bivariate normal: a difference
    of lower tails, or of upper tails ``erfc(z / sqrt 2) / 2`` where ``lo`` lies
    above the conditional mean, so that neither is a difference of numbers
    near 1."""
    with mpmath.workdps(MP_DIGITS):
        s = mpmath.sqrt(1 - mpmath.mpf(r) ** 2)
        mean = mpmath.mpf(r) * mpmath.mpf(x)
        z_lo, z_hi = (lo - mean) / s, (hi - mean) / s
        if z_lo > 0:
            root2 = mpmath.sqrt(2)
            return float((mpmath.erfc(z_lo / root2) - mpmath.erfc(z_hi / root2)) / 2)
        return float(mpmath.ncdf(z_hi) - mpmath.ncdf(z_lo))


def bvn_orthant_lower(r):
    """P(X <= 0, Y <= 0) for the standard bivariate normal."""
    return 0.25 + math.asin(r) / (2 * math.pi)


def mi_integrand_masked(rho, mx, my):
    """``rho * log(rho / (mx * my))`` gathered and scattered on the points
    where all three densities are positive, 0 elsewhere."""
    out = np.zeros_like(rho)
    ok = (rho > 0) & (mx > 0) & (my > 0)
    out[ok] = rho[ok] * (np.log(rho[ok]) - np.log(mx[ok]) - np.log(my[ok]))
    return out


def gaussian_kernel_rows(grid, data, h):
    """Gaussian kernel values ``exp(-u^2 / 2) / (h sqrt(2 pi))``, ``u = (g - x) / h``,
    one row per grid point, with nothing flushed to 0."""
    u = (np.asarray(grid, dtype=float)[:, None] - np.asarray(data, dtype=float)) / h
    return np.exp(-(u**2) / 2) / (h * math.sqrt(2 * math.pi))


def kernel_lift_direct(samples, grid_x, grid_y, hx, hy):
    """The product-Gaussian kernel lift by its definition, cell by cell:
    ``mean(kx * ky) / (mean(kx) * mean(ky))`` over the samples, NaN where a
    marginal mean is 0. The ratio of the three means is taken exactly, in
    rationals, and rounded once, so a product of marginals below the
    smallest double does not make it NaN. Returns the lift and the joint
    estimate ``mean(kx * ky)``."""
    pts = np.asarray(samples, dtype=float)
    kx = gaussian_kernel_rows(grid_x, pts[:, 0], hx)
    ky = gaussian_kernel_rows(grid_y, pts[:, 1], hy)
    joint = np.array([[np.mean(a * b) for b in ky] for a in kx])
    mx, my = kx.mean(axis=1), ky.mean(axis=1)
    lift = np.full_like(joint, np.nan)
    for i, j in itertools.product(range(mx.size), range(my.size)):
        if mx[i] > 0 and my[j] > 0:
            lift[i, j] = float(Fraction(joint[i, j]) / (Fraction(mx[i]) * Fraction(my[j])))
    return lift, joint


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


def loadtxt_csv(f, what):
    """The header cells and body of a CSV of floats by the reader's rules
    with no parser of its own: ``np.loadtxt`` over the whole body (blank
    lines skipped), then, if that fails or the body has the wrong width or a
    non-finite value, a line scan that raises ValueError naming the first
    bad line. A cell is a number if ``float`` takes it, it is ASCII and it
    has no underscore."""
    if not f.seekable():
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
        for cell in cells:
            try:
                value = float(cell) if cell.isascii() and "_" not in cell else None
            except ValueError:
                value = None
            if value is None:
                raise ValueError(f"{where}: not a number: {cell.strip()!r}")
            if not math.isfinite(value):
                break
        else:
            continue
        raise ValueError(f"{where}: non-finite value")
    raise ValueError(f"{what} csv: unreadable body")


def nearest_double(text):
    """The double nearest to the decimal ``text``, ties to the even
    significand, chosen by exact rational distances."""
    exact = Fraction(text)
    guess = float(exact)
    candidates = [math.nextafter(guess, -math.inf), guess, math.nextafter(guess, math.inf)]
    return min(candidates, key=lambda d: (abs(Fraction(d) - exact),
                                          int(np.float64(d).view(np.uint64)) & 1))


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


# Reference adaptive heaps: the nested Gauss-Legendre heap written out one
# cell at a time, with one integrand call per cell and rule and each rule
# reduced as ``np.sum(w * cell)`` over its flattened tensor grid. Each heap
# uses one (coarse, fine) rule pair on every cell, fixed by its dimension, and
# a cell is its bounds alone. A heap step pops the worst cells (ties by age)
# until their errors sum to at least the whole excess ``err - tol``, stopping
# before a cell whose children would take the step past ``STEP_NODES`` nodes
# or the evaluation count past ``budget``; it always pops at least one cell.
# Each returns ``((value, error, n_evals, n_cells, converged, n_steps,
# budget_exhausted), steps)``, where ``steps`` counts the steps that popped
# cells and ``n_steps`` the integrand calls the batched driver makes (one
# more, for the seeds).

STEP_NODES = 2**15
RULE_2D = (3, 7)
RULE_1D = (7, 15)
CORE_HALF = 8.0


def core_tail_seeds(box):
    """Seed cells of a finite box: the part inside ``[-8, 8]^2`` cut into four
    equal quarters (bottom row left to right, then top row), then the left,
    right, bottom and top bands of the rest that are not empty. The left and
    right bands span the full height, the bottom and top ones the core width.
    A box that misses the core square is cut into quarters whole."""
    x_lo, x_hi, y_lo, y_hi = box
    core_x = (max(x_lo, -CORE_HALF), min(x_hi, CORE_HALF))
    core_y = (max(y_lo, -CORE_HALF), min(y_hi, CORE_HALF))
    if core_x[0] >= core_x[1] or core_y[0] >= core_y[1]:
        core_x, core_y = (x_lo, x_hi), (y_lo, y_hi)
    xs = (core_x[0], 0.5 * (core_x[0] + core_x[1]), core_x[1])
    ys = (core_y[0], 0.5 * (core_y[0] + core_y[1]), core_y[1])
    seeds = [(xs[i], xs[i + 1], ys[j], ys[j + 1]) for j in range(2) for i in range(2)]
    bands = [
        (x_lo, core_x[0], y_lo, y_hi),
        (core_x[1], x_hi, y_lo, y_hi),
        (core_x[0], core_x[1], y_lo, core_y[0]),
        (core_x[0], core_x[1], core_y[1], y_hi),
    ]
    return seeds + [b for b in bands if b[0] < b[1] and b[2] < b[3]]


def _gl_cell_2d(f, rule, xa, xb, ya, yb):
    hx, hy = 0.5 * (xb - xa), 0.5 * (yb - ya)
    cx, cy = 0.5 * (xa + xb), 0.5 * (ya + yb)
    vals = []
    for n in rule:
        xn, wn = np.polynomial.legendre.leggauss(n)
        xx, yy = np.meshgrid(cx + hx * xn, cy + hy * xn, indexing="ij")
        cell = np.asarray(f(xx.ravel(), yy.ravel()), dtype=float)
        vals.append(hx * hy * float(np.sum(np.outer(wn, wn).ravel() * cell)))
    coarse, fine = vals
    return fine, abs(fine - coarse)


def _children_2d(xa, xb, ya, yb):
    xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
    if xb - xa >= 2.0 * (yb - ya):
        return [(xa, xm, ya, yb), (xm, xb, ya, yb)]
    if yb - ya >= 2.0 * (xb - xa):
        return [(xa, xb, ya, ym), (xa, xb, ym, yb)]
    return [(xa, xm, ya, ym), (xm, xb, ya, ym), (xa, xm, ym, yb), (xm, xb, ym, yb)]


def _gl_cell_1d(f, rule, a, b):
    h, c = 0.5 * (b - a), 0.5 * (a + b)
    vals = []
    for n in rule:
        xn, wn = np.polynomial.legendre.leggauss(n)
        vals.append(h * float(np.sum(wn * np.asarray(f(c + h * xn), dtype=float))))
    coarse, fine = vals
    return fine, abs(fine - coarse)


def _children_1d(a, b):
    mid = 0.5 * (a + b)
    return [(a, mid), (mid, b)]


def _batch_pop_heap(cell_fn, children_fn, cell_nodes, seeds, tol, budget):
    heap = []
    total = err = 0.0
    n_evals = tick = steps = 0
    batch = seeds
    while batch:
        for bounds in batch:
            v, e = cell_fn(*bounds)
            n_evals += cell_nodes
            total += v
            err += e
            heapq.heappush(heap, (-e, tick, bounds, v, e))
            tick += 1
        batch = []
        excess = err - tol
        popped = 0.0
        nodes = 0
        while heap and popped < excess and n_evals < budget:
            children = children_fn(*heap[0][2])
            n = len(children) * cell_nodes
            if batch and (nodes + n > STEP_NODES or n_evals + nodes + n > budget):
                break
            _, _, _, v, e = heapq.heappop(heap)
            total -= v
            err -= e
            popped += e
            nodes += n
            batch.extend(children)
        if batch:
            steps += 1
    exhausted = err > tol and n_evals >= budget
    return (total, err, n_evals, len(heap), err <= tol, steps + 1, exhausted), steps


def quad_heap_2d(f, cells, tol, budget, rule=RULE_2D):
    """Seeds ``(xa, xb, ya, yb)``; long cells halve, near-square ones quarter."""
    cell_fn = functools.partial(_gl_cell_2d, f, rule)
    return _batch_pop_heap(cell_fn, _children_2d, sum(n * n for n in rule), cells, tol, budget)


def quad_heap_1d(f, a, b, tol, budget, rule=RULE_1D, cuts=()):
    """Intervals halve at their midpoint; the seeds are ``[a, b]`` cut at the
    increasing ``cuts``."""
    cell_fn = functools.partial(_gl_cell_1d, f, rule)
    ends = [a, *cuts, b]
    seeds = list(zip(ends[:-1], ends[1:]))
    return _batch_pop_heap(cell_fn, _children_1d, sum(rule), seeds, tol, budget)
