"""Deterministic adaptive quadrature with nested Gauss-Legendre rule pairs.

Each heap integrates every cell with one coarse and one fine tensor rule,
fixed by its dimension (``RULE_1D``, ``RULE_2D``); the cell error is
|fine - coarse| and the fine value is kept. A cell is its bounds alone. Cells
live in a max-heap keyed by error (ties broken by insertion order, so results
do not depend on scheduling), and worst cells are bisected until the summed
error drops below the tolerance or the evaluation budget runs out. One heap
driver serves 1D and 2D, and each heap step makes one integrand call: the seed
cells at start-up, then the children of a batch of popped cells. A step pops
cells in heap order until their errors sum to at least the whole excess
``error - tol``, but stops before a cell whose children would take the step
past ``STEP_NODES`` nodes or the evaluations past the budget; it always pops
at least one cell. The cells of a step get their nodes from one broadcast and
are reduced as one row sum per cell, so a cell gets the same bits whatever
batch it is evaluated in.

Integrands must be vectorized and elementwise: ``f(x, y)`` (2D) or ``f(x)``
(1D) with 1-D ndarray arguments of length n returning an ndarray of the same
shape, or an ``(m, n)`` array, one row per component of a vector-valued
integrand. The components share every cell, and a cell's error is its
largest component error, as DCUHRE refines a vector of integrands (Berntsen,
Espelid & Genz, ACM TOMS 17 (1991) 437-451); the budget counts nodes and the
``STEP_NODES`` cap counts values, nodes times components.
A finite 2D box is seeded with its quartered part inside
``[-CORE_HALF, CORE_HALF]^2`` plus up to four tail bands, all with the same
rule; see :func:`_core_tail_cells`. An infinite end is integrated through the
map ``x = c + sinh t``: ``c`` is the finite end of the axis (0 when both ends
are infinite), ``t`` runs over ``[-T, 0]``, ``[0, T]`` or ``[-T, T]`` with
``T = SINH_T_MAX``, and the integrand is multiplied by ``cosh t``. The map
turns an algebraic tail into one that decays exponentially in ``t``, so a
heavy tail costs a few cells, not a wide box; see :func:`adaptive_quad_2d` and
:func:`adaptive_quad_1d`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable

import numpy as np

# Node counts per axis of the nested (coarse, fine) pair each heap uses.
RULE_2D = (3, 7)
RULE_1D = (7, 15)

# Gauss-Legendre nodes and weights on [-1, 1] of each rule size the pairs use,
# the bits ``numpy.polynomial.legendre.leggauss`` returns, so that no process
# has to import ``numpy.polynomial`` to integrate.
GAUSS_LEGENDRE = {
    3: (
        (-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555557, 0.8888888888888888, 0.5555555555555557),
    ),
    7: (
        (-0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
         0.4058451513773972, 0.7415311855993945, 0.9491079123427586),
        (0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
         0.3818300505051187, 0.27970539148927687, 0.12948496616886973),
    ),
    15: (
        (-0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
         -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
         0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
         0.8482065834104272, 0.9372733924007058, 0.9879925180204854),
        (0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
         0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
         0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
         0.10715922046717141, 0.0703660474881084, 0.030753241996117203),
    ),
}

# Half-width of the square that splits a finite 2D box into core and tail seeds.
CORE_HALF = 8.0

DEFAULT_BUDGET_2D = 2**22

# Most nodes a heap step evaluates, unless its first popped cell alone has more.
STEP_NODES = 2**15

# Length of the t-interval of an infinite end. x = c + sinh t reaches
# sinh 30 ~ 5.3e12 from c, so a Cauchy tail loses ~1.2e-13 of its mass.
SINH_T_MAX = 30.0


@dataclass(frozen=True)
class QuadResult:
    # a float, or an (m,) array for an integrand with m components
    value: float | np.ndarray
    error: float
    n_evals: int
    # cells in the final partition
    n_cells: int
    # error <= tol; False when the budget stopped the refinement
    converged: bool
    # heap steps, one integrand call each
    n_steps: int
    # the budget ran out with error > tol
    budget_exhausted: bool


@lru_cache(maxsize=None)
def _rule_tables(dim: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Nodes and weights of the rule pair of ``dim`` on [-1, 1]^dim, coarse
    rule then fine.

    Returns the nodes as a ``(dim, 1, N)`` array, the ``N`` weights, and the
    number of coarse nodes. Each tensor grid is flattened with the x index
    outermost, as ``meshgrid(..., indexing="ij").ravel()`` orders it.
    """
    nodes, weights = [], []
    for n in RULE_1D if dim == 1 else RULE_2D:
        x, w = map(np.array, GAUSS_LEGENDRE[n])
        nodes.append([np.repeat(np.tile(x, n**j), n ** (dim - 1 - j)) for j in range(dim)])
        weights.append(reduce(np.multiply.outer, [w] * dim).ravel())
    return np.concatenate(nodes, axis=1)[:, None, :], np.concatenate(weights), weights[0].size


def _eval_cells(f, cells):
    """Integrate f over each cell with the rule pair of its dimension, all
    cells in one call of ``f``.

    A cell is ``(a, b)`` in 1D and ``(xa, xb, ya, yb)`` in 2D. Every batch,
    one cell or many, takes the same path: the nodes of all cells come from
    one broadcast and are reduced as one row sum per cell, so a cell gets the
    same bits in any batch. ``f`` maps n nodes to n values, or to an ``(m,
    n)`` array, one row per component; each component is reduced as a
    scalar integrand would be, so it gets a scalar integrand's bits. A cell
    whose integrand is non-finite at a node gets a NaN error, without a
    warning. Returns ``(fine values, |fine - coarse| errors)``, lists in cell
    order: a value is a float, or an ``(m,)`` array whose error is the
    largest component error.
    """
    dim = len(cells[0]) // 2
    units, weights, k = _rule_tables(dim)
    b = np.array(cells).T
    c, h = 0.5 * (b[0::2] + b[1::2]), 0.5 * (b[1::2] - b[0::2])
    nodes = (c[:, :, None] + h[:, :, None] * units).reshape(dim, -1)
    out = np.asarray(f(*nodes), dtype=float)
    block = out.reshape(*out.shape[:-1], len(cells), -1) * weights
    scale = reduce(np.multiply, h)
    coarse = scale * block[..., :k].sum(axis=-1)
    fine = scale * block[..., k:].sum(axis=-1)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite cell
        errors = np.abs(fine - coarse)
    if fine.ndim == 1:
        return fine.tolist(), errors.tolist()
    return list(fine.T), errors.max(axis=0).tolist()


def check_quad_args(tol: float, budget: int, rtol: float = 0.0) -> None:
    """Raise ValueError unless ``0 <= tol < inf``, ``0 <= rtol < inf`` and
    ``budget >= 1``. A NaN tolerance would stop the heap at once and a
    negative one never, so both are refused, as is a budget that allows no
    evaluation."""
    if not (0.0 <= tol < math.inf and 0.0 <= rtol < math.inf):
        raise ValueError(f"tol and rtol must be finite and nonnegative, got {tol} and {rtol}")
    if not budget >= 1:
        raise ValueError(f"budget must be at least 1, got {budget}")


def _adaptive_heap(f, seeds, split, tol: float, budget: int, rtol: float = 0.0) -> QuadResult:
    """Refine the worst cells until the summed error is at most
    ``max(tol, rtol * |total|)`` or ``budget`` evaluations are spent.

    ``seeds`` are cell bounds; ``split(*bounds)`` gives the bounds of a
    cell's children. Each step is one call of ``f``: the seeds first, then
    the children of the cells popped by the batch pop rule (see the module
    docstring). For an ``f`` with ``m`` components (see :func:`_eval_cells`)
    the total is an ``(m,)`` array, a cell's error is its largest component
    error, so every component ends within the bound, and ``|total|`` is the
    smallest component's. The budget counts nodes, whatever ``m`` is, and a
    step's ``STEP_NODES`` counts values, nodes times ``m``.
    """
    check_quad_args(tol, budget, rtol)
    heap: list = []
    total = err = 0.0
    n_evals = n_steps = 0
    tick = itertools.count()
    cell_nodes = _rule_tables(len(seeds[0]) // 2)[1].size
    step_nodes = 0
    batch = seeds
    while batch:
        values, errors = _eval_cells(f, batch)
        if not step_nodes:
            step_nodes = STEP_NODES // np.size(values[0])
        n_evals += len(batch) * cell_nodes
        n_steps += 1
        for bounds, v, e in zip(batch, values, errors):
            total += v
            err += e
            heapq.heappush(heap, (-e, next(tick), bounds, v, e))
        # pop until the popped errors reach the excess over the bound
        # relative to the smallest component; .flat also iterates a scalar
        bound = max(tol, rtol * min(np.abs(total).flat)) if rtol else tol
        batch, excess, popped, nodes = [], err - bound, 0.0, 0
        while heap and popped < excess and n_evals < budget:
            _, _, bounds, v, e = heap[0]
            children = split(*bounds)
            n = len(children) * cell_nodes
            if batch and (nodes + n > step_nodes or n_evals + nodes + n > budget):
                break
            heapq.heappop(heap)
            total -= v
            err -= e
            popped += e
            nodes += n
            batch += children
    return QuadResult(
        total, err, n_evals, len(heap), err <= bound, n_steps, err > bound and n_evals >= budget
    )


def _quarters(xa, xb, ya, yb):
    xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
    return [(xa, xm, ya, ym), (xm, xb, ya, ym), (xa, xm, ym, yb), (xm, xb, ym, yb)]


def _split_2d(xa, xb, ya, yb):
    """Bisect the longer axis; near-square cells split into quadrants."""
    wx, wy = xb - xa, yb - ya
    if wx >= 2.0 * wy:
        xm = 0.5 * (xa + xb)
        return [(xa, xm, ya, yb), (xm, xb, ya, yb)]
    if wy >= 2.0 * wx:
        ym = 0.5 * (ya + yb)
        return [(xa, xb, ya, ym), (xa, xb, ym, yb)]
    return _quarters(xa, xb, ya, yb)


def _split_1d(a, b):
    mid = 0.5 * (a + b)
    return [(a, mid), (mid, b)]


def _core_tail_cells(box):
    """Seed cells for a finite box: a clipped core square plus up to four tail
    bands.

    The core is the intersection of the box with ``[-CORE_HALF, CORE_HALF]^2``,
    quartered so the heap starts with several competing cells. The rest of the
    box is covered by left/right full-height bands and top/bottom bands. A box
    disjoint from the core square is quartered whole.
    """
    x_lo, x_hi, y_lo, y_hi = box
    c = CORE_HALF
    cx_lo, cx_hi = max(x_lo, -c), min(x_hi, c)
    cy_lo, cy_hi = max(y_lo, -c), min(y_hi, c)
    if not (cx_lo < cx_hi and cy_lo < cy_hi):
        return _quarters(x_lo, x_hi, y_lo, y_hi)
    cells = _quarters(cx_lo, cx_hi, cy_lo, cy_hi)
    if x_lo < cx_lo:
        cells.append((x_lo, cx_lo, y_lo, y_hi))
    if x_hi > cx_hi:
        cells.append((cx_hi, x_hi, y_lo, y_hi))
    if y_lo < cy_lo:
        cells.append((cx_lo, cx_hi, y_lo, cy_lo))
    if y_hi > cy_hi:
        cells.append((cx_lo, cx_hi, cy_hi, y_hi))
    return cells


def _sinh_map(f, bounds):
    """``f`` and ``bounds`` in the variables the heap integrates over.

    Raises ValueError unless ``lo < hi`` on every axis. A finite axis keeps
    ``t = x``. An axis with an infinite end gets ``x = c + sinh t`` (see the
    module docstring) and multiplies the integrand by ``cosh t``. Returns
    ``(integrand, t-bounds, to_t)``, where ``to_t(axis, x)`` is the ``t`` of
    ``x`` on that axis; with no infinite end the first two are ``f`` and
    ``bounds`` themselves.
    """
    t_bounds, centres = [], []
    for lo, hi in zip(bounds[0::2], bounds[1::2]):
        if not lo < hi:
            raise ValueError(f"integration interval ({lo}, {hi}) must have positive extent")
        if math.isfinite(lo) and math.isfinite(hi):
            t_bounds += [lo, hi]
            centres.append(None)
            continue
        t_bounds += [-SINH_T_MAX if lo == -math.inf else 0.0, SINH_T_MAX if hi == math.inf else 0.0]
        centres.append(lo if math.isfinite(lo) else hi if math.isfinite(hi) else 0.0)

    def to_t(axis, x):
        c = centres[axis]
        return x if c is None else math.asinh(x - c)

    if all(c is None for c in centres):
        return f, tuple(bounds), to_t

    def mapped(*ts):
        xs, jacobian = [], 1.0
        for t, c in zip(ts, centres):
            if c is None:
                xs.append(t)
            else:
                xs.append(c + np.sinh(t))
                jacobian = jacobian * np.cosh(t)
        return np.asarray(f(*xs), dtype=float) * jacobian

    return mapped, tuple(t_bounds), to_t


def adaptive_quad_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: tuple[float, float, float, float],
    tol: float = 1e-6,
    budget: int = DEFAULT_BUDGET_2D,
) -> QuadResult:
    """Adaptively integrate ``f(x, y)`` over ``box = (x_lo, x_hi, y_lo, y_hi)``,
    whose ends may be infinite.

    A finite box is seeded by :func:`_core_tail_cells`. A box with an infinite
    end is integrated over its ``t``-box (see the module docstring), seeded in
    quarters; ``f`` still receives ``x`` and ``y``. An ``f`` that returns an
    ``(m, n)`` array for n nodes gives an ``(m,)`` value, every component
    within ``tol``. Raises ValueError unless ``x_lo < x_hi`` and
    ``y_lo < y_hi``, and on a ``tol`` or ``budget`` that
    :func:`check_quad_args` refuses.
    """
    g, t_box, _ = _sinh_map(f, box)
    cells = _core_tail_cells(box) if g is f else _quarters(*t_box)
    return _adaptive_heap(g, cells, _split_2d, tol, budget)


def adaptive_quad_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-9,
    budget: int = 2**18,
    breaks: Iterable[float] = (),
    rtol: float = 0.0,
) -> QuadResult:
    """Adaptive 1D integral of a vectorized integrand over [a, b]; an infinite
    end is integrated through the sinh map of the module docstring. The heap
    stops once its error estimate is at most ``max(tol, rtol * |value|)``.
    An ``f`` that returns an ``(m, n)`` array for n nodes gives an ``(m,)``
    value; every component is then within the bound, with ``|value|`` the
    smallest component's.

    The heap is seeded with one cell between each pair of consecutive points
    of ``a``, ``b`` and the ``breaks`` strictly between them, like QUADPACK's
    ``points``: no node falls on a break, so an integrand may be singular or
    undefined there. Raises ValueError unless ``a < b``, and on a ``tol``,
    ``rtol`` or ``budget`` that :func:`check_quad_args` refuses.
    """
    g, (t_a, t_b), to_t = _sinh_map(f, (a, b))
    cuts = sorted({float(p) for p in breaks if a < p < b})
    ends = [t_a, *(to_t(0, p) for p in cuts), t_b]
    return _adaptive_heap(g, list(zip(ends[:-1], ends[1:])), _split_1d, tol, budget, rtol)
