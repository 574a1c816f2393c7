"""Deterministic adaptive quadrature with nested Gauss-Legendre rule pairs.

Each cell is integrated with a coarse and a fine tensor rule; the cell error
is |fine - coarse| and the fine value is kept. Cells live in a max-heap keyed
by error (ties broken by insertion order, so results do not depend on
scheduling), and worst cells are bisected until the summed error drops below
the tolerance or the evaluation budget runs out. One heap driver serves 1D and
2D, and each heap step makes one integrand call: the seed cells at start-up,
then the children of a batch of popped cells. A step pops cells in heap order
until their errors sum to at least half of ``error - tol``, but stops before a
cell whose children would take the step past ``STEP_NODES`` nodes or the
evaluations past the budget; it always pops at least one cell. The cells of a
step are grouped by rule and each rule is reduced as one row sum per cell, so
a cell gets the same bits whatever batch it is evaluated in.

Integrands must be vectorized and elementwise: ``f(x, y)`` (2D) or ``f(x)``
(1D) with 1-D ndarray arguments returning an ndarray of the same shape.
A finite 2D box is seeded with a core square plus up to four tail bands whose
rules carry doubled node counts; see :func:`core_tail_cells`. An infinite end
is integrated through the map ``x = c + sinh t``: ``c`` is the finite end of
the axis (0 when both ends are infinite), ``t`` runs over ``[-T, 0]``,
``[0, T]`` or ``[-T, T]`` with ``T = SINH_T_MAX``, and the integrand is
multiplied by ``cosh t``. The map turns an algebraic tail into one that decays
exponentially in ``t``, so a heavy tail costs a few cells, not a wide box;
see :func:`adaptive_quad_box` and :func:`adaptive_quad_1d`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

__all__ = [
    "QuadResult",
    "adaptive_quad_2d",
    "adaptive_quad_1d",
    "adaptive_quad_box",
    "core_tail_cells",
    "DEFAULT_BUDGET_2D",
]

# Node counts per axis for the nested (coarse, fine) pair. Tail cells double
# both, which is what "doubled node density" means here.
CORE_RULE = (3, 7)
TAIL_RULE = (6, 14)
RULE_1D = (7, 15)

DEFAULT_BUDGET_2D = 2**22

# Most nodes a heap step evaluates, unless its first popped cell alone has more.
STEP_NODES = 2**15

# Length of the t-interval of an infinite end. x = c + sinh t reaches
# sinh 30 ~ 5.3e12 from c, so a Cauchy tail loses ~1.2e-13 of its mass.
SINH_T_MAX = 30.0


@dataclass(frozen=True)
class QuadResult:
    value: float
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
def _rule_tables(rule: tuple[int, int], dim: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Nodes and weights of a rule pair on [-1, 1]^dim, coarse rule then fine.

    Returns the nodes as a ``(dim, 1, N)`` array, the ``N`` weights, and the
    number of coarse nodes. Each tensor grid is flattened with the x index
    outermost, as ``meshgrid(..., indexing="ij").ravel()`` orders it.
    """
    nodes, weights = [], []
    for n in rule:
        x, w = np.polynomial.legendre.leggauss(n)
        nodes.append([np.repeat(np.tile(x, n**j), n ** (dim - 1 - j)) for j in range(dim)])
        weights.append(reduce(np.multiply.outer, [w] * dim).ravel())
    return np.concatenate(nodes, axis=1)[:, None, :], np.concatenate(weights), weights[0].size


def _eval_cells(f, cells):
    """Integrate f over each ``(bounds, rule)`` cell with its nested rule pair,
    all cells in one call of ``f``.

    ``bounds`` is ``(a, b)`` in 1D and ``(xa, xb, ya, yb)`` in 2D. The cells of
    one rule get their nodes from one broadcast, and each rule is reduced as
    one row sum per cell, so a cell gets the same bits in any batch. Returns
    ``(fine values, |fine - coarse| errors, n_evals)``, lists in cell order.
    """
    dim = len(cells[0][0]) // 2
    if len(cells) == 1:  # cheaper set-up in Python floats, same bits as a batch
        [(bounds, rule)] = cells
        units, weights, k = _rule_tables(rule, dim)
        nodes, scale = [], 1.0
        for j, unit in enumerate(units):
            lo, hi = bounds[2 * j], bounds[2 * j + 1]
            h = 0.5 * (hi - lo)
            nodes.append(0.5 * (lo + hi) + h * unit[0])
            scale *= h
        fw = np.asarray(f(*nodes), dtype=float).reshape(weights.size) * weights
        coarse, fine = scale * float(np.add.reduce(fw[:k])), scale * float(np.add.reduce(fw[k:]))
        return [fine], [abs(fine - coarse)], weights.size
    groups: dict = {}
    for i, (bounds, rule) in enumerate(cells):
        groups.setdefault(rule, []).append(i)
    coords, scales = [], []
    for rule, idx in groups.items():
        b = np.array([cells[i][0] for i in idx]).T
        c, h = 0.5 * (b[0::2] + b[1::2]), 0.5 * (b[1::2] - b[0::2])
        units = _rule_tables(rule, dim)[0]
        coords.append((c[:, :, None] + h[:, :, None] * units).reshape(dim, -1))
        scales.append(reduce(np.multiply, h))
    nodes = coords[0] if len(coords) == 1 else np.concatenate(coords, axis=1)
    n_evals = nodes.shape[1]
    fv = np.asarray(f(*nodes), dtype=float).reshape(n_evals)
    value, error = np.empty(len(cells)), np.empty(len(cells))
    i = 0
    for (rule, idx), scale in zip(groups.items(), scales):
        _, weights, k = _rule_tables(rule, dim)
        block = fv[i : i + len(idx) * weights.size].reshape(len(idx), -1) * weights
        coarse = scale * block[:, :k].sum(axis=1)
        fine = scale * block[:, k:].sum(axis=1)
        value[idx], error[idx] = fine, np.abs(fine - coarse)
        i += block.size
    return value.tolist(), error.tolist(), n_evals


def _adaptive_heap(f, seeds, split, tol: float, budget: int) -> QuadResult:
    """Refine the worst cells until the summed error is at most ``tol`` or
    ``budget`` evaluations are spent.

    ``seeds`` are ``(bounds, rule)`` cells; ``split(*bounds)`` gives the
    bounds of a cell's children, which inherit its rule. Each step is one
    call of ``f``: the seeds first, then the children of the cells popped by
    the batch pop rule (see the module docstring).
    """
    heap: list = []
    total = err = 0.0
    n_evals = n_steps = 0
    tick = itertools.count()
    batch = seeds
    while batch:
        values, errors, ne = _eval_cells(f, batch)
        n_evals += ne
        n_steps += 1
        for (bounds, rule), v, e in zip(batch, values, errors):
            total += v
            err += e
            heapq.heappush(heap, (-e, next(tick), bounds, rule, v, e))
        # pop until the popped errors reach half of the excess over tol
        batch, excess, popped, nodes = [], err - tol, 0.0, 0
        while heap and 2.0 * popped < excess and n_evals < budget:
            _, _, bounds, rule, v, e = heap[0]
            children = split(*bounds)
            n = len(children) * _rule_tables(rule, len(bounds) // 2)[1].size
            if batch and (nodes + n > STEP_NODES or n_evals + nodes + n > budget):
                break
            heapq.heappop(heap)
            total -= v
            err -= e
            popped += e
            nodes += n
            batch += [(child, rule) for child in children]
    return QuadResult(
        total, err, n_evals, len(heap), err <= tol, n_steps, err > tol and n_evals >= budget
    )


def _split_2d(xa, xb, ya, yb):
    """Bisect the longer axis; near-square cells split into quadrants."""
    wx, wy = xb - xa, yb - ya
    if wx >= 2.0 * wy:
        xm = 0.5 * (xa + xb)
        return [(xa, xm, ya, yb), (xm, xb, ya, yb)]
    if wy >= 2.0 * wx:
        ym = 0.5 * (ya + yb)
        return [(xa, xb, ya, ym), (xa, xb, ym, yb)]
    xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
    return [
        (xa, xm, ya, ym),
        (xm, xb, ya, ym),
        (xa, xm, ym, yb),
        (xm, xb, ym, yb),
    ]


def _split_1d(a, b):
    mid = 0.5 * (a + b)
    return [(a, mid), (mid, b)]


def adaptive_quad_2d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cells: list[tuple[float, float, float, float, tuple[int, int]]],
    tol: float = 1e-6,
    budget: int = DEFAULT_BUDGET_2D,
) -> QuadResult:
    """Adaptively integrate ``f`` over the union of the seed cells.

    ``cells`` entries are ``(xa, xb, ya, yb, rule)`` where ``rule`` is the
    (coarse, fine) node-count pair the cell and its descendants use.
    """
    seeds = [((xa, xb, ya, yb), tuple(rule)) for xa, xb, ya, yb, rule in cells]
    return _adaptive_heap(f, seeds, _split_2d, tol, budget)


def _quarters(xa, xb, ya, yb, rule):
    xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
    return [
        (xa, xm, ya, ym, rule),
        (xm, xb, ya, ym, rule),
        (xa, xm, ym, yb, rule),
        (xm, xb, ym, yb, rule),
    ]


def core_tail_cells(
    box: tuple[float, float, float, float],
    core_half: float = 8.0,
) -> list[tuple[float, float, float, float, tuple[int, int]]]:
    """Seed cells for a finite box: a clipped core square plus up to four tail
    bands.

    The core is the intersection of the box with [-c, c]^2, quartered so the
    heap starts with several competing cells. The remainder of the box is
    covered by left/right full-height bands and top/bottom bands, integrated
    with doubled node density. Boxes disjoint from the core square become a
    single quartered tail region.
    """
    x_lo, x_hi, y_lo, y_hi = box
    if not all(map(math.isfinite, box)):
        raise ValueError("core_tail_cells needs a finite box; see adaptive_quad_box")
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("integration box must have positive extent")
    c = core_half
    cx_lo, cx_hi = max(x_lo, -c), min(x_hi, c)
    cy_lo, cy_hi = max(y_lo, -c), min(y_hi, c)
    if not (cx_lo < cx_hi and cy_lo < cy_hi):
        return _quarters(x_lo, x_hi, y_lo, y_hi, TAIL_RULE)
    cells = _quarters(cx_lo, cx_hi, cy_lo, cy_hi, CORE_RULE)
    if x_lo < cx_lo:
        cells.append((x_lo, cx_lo, y_lo, y_hi, TAIL_RULE))
    if x_hi > cx_hi:
        cells.append((cx_hi, x_hi, y_lo, y_hi, TAIL_RULE))
    if y_lo < cy_lo:
        cells.append((cx_lo, cx_hi, y_lo, cy_lo, TAIL_RULE))
    if y_hi > cy_hi:
        cells.append((cx_lo, cx_hi, cy_hi, y_hi, TAIL_RULE))
    return cells


def _sinh_map(f, bounds):
    """``f`` and ``bounds`` in the variables the heap integrates over.

    A finite axis keeps ``t = x``. An axis with an infinite end gets
    ``x = c + sinh t`` (see the module docstring) and multiplies the integrand
    by ``cosh t``. Returns ``(integrand, t-bounds)``; with no infinite end
    they are ``f`` and ``bounds`` themselves.
    """
    t_bounds, centres = [], []
    for lo, hi in zip(bounds[0::2], bounds[1::2]):
        if math.isfinite(lo) and math.isfinite(hi):
            t_bounds += [lo, hi]
            centres.append(None)
            continue
        if not lo < hi:
            raise ValueError(f"integration interval ({lo}, {hi}) must have positive extent")
        t_bounds += [-SINH_T_MAX if lo == -math.inf else 0.0, SINH_T_MAX if hi == math.inf else 0.0]
        centres.append(lo if math.isfinite(lo) else hi if math.isfinite(hi) else 0.0)
    if all(c is None for c in centres):
        return f, tuple(bounds)

    def mapped(*ts):
        xs, jacobian = [], 1.0
        for t, c in zip(ts, centres):
            if c is None:
                xs.append(t)
            else:
                xs.append(c + np.sinh(t))
                jacobian = jacobian * np.cosh(t)
        return np.asarray(f(*xs), dtype=float) * jacobian

    return mapped, tuple(t_bounds)


def adaptive_quad_box(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: tuple[float, float, float, float],
    tol: float = 1e-6,
    budget: int = DEFAULT_BUDGET_2D,
) -> QuadResult:
    """Adaptively integrate ``f(x, y)`` over ``box = (x_lo, x_hi, y_lo, y_hi)``,
    whose ends may be infinite.

    A finite box is seeded by :func:`core_tail_cells`. A box with an infinite
    end is integrated over its ``t``-box (see the module docstring), seeded in
    quarters with ``CORE_RULE``; ``f`` still receives ``x`` and ``y``.
    """
    g, t_box = _sinh_map(f, box)
    cells = core_tail_cells(box) if g is f else _quarters(*t_box, CORE_RULE)
    return adaptive_quad_2d(g, cells, tol=tol, budget=budget)


def adaptive_quad_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-9,
    budget: int = 2**18,
) -> QuadResult:
    """Adaptive 1D integral of a vectorized integrand over [a, b]; an infinite
    end is integrated through the sinh map of the module docstring."""
    g, t_bounds = _sinh_map(f, (a, b))
    return _adaptive_heap(g, [(t_bounds, RULE_1D)], _split_1d, tol, budget)
