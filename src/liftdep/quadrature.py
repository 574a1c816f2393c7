"""Deterministic adaptive quadrature with nested Gauss-Legendre rule pairs.

Each cell is integrated with a coarse and a fine tensor rule; the cell error
is |fine - coarse| and the fine value is kept. Cells live in a max-heap keyed
by error (ties broken by insertion order, so results do not depend on
scheduling) and the worst cell is bisected until the summed error drops below
the tolerance or the evaluation budget runs out. One heap driver serves 1D and
2D, and each heap step makes one integrand call: the seed cells at start-up,
then the children of each popped cell, with the nodes of both rules of every
cell concatenated. Cell values are reduced cell by cell, so batching changes
no result.

Integrands must be vectorized and elementwise: ``f(x, y)`` (2D) or ``f(x)``
(1D) with 1-D ndarray arguments returning an ndarray of the same shape.
Heavy-tailed integrands are handled by seeding the heap with a core box plus
four tail bands whose rules carry doubled node counts; see
:func:`core_tail_cells`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadResult",
    "adaptive_quad_2d",
    "adaptive_quad_1d",
    "core_tail_cells",
    "DEFAULT_BUDGET_2D",
]

# Node counts per axis for the nested (coarse, fine) pair. Tail cells double
# both, which is what "doubled node density" means here.
CORE_RULE = (3, 7)
TAIL_RULE = (6, 14)
RULE_1D = (7, 15)

DEFAULT_BUDGET_2D = 2**22


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_evals: int
    # cells in the final partition
    n_cells: int
    # error <= tol; False when the budget stopped the refinement
    converged: bool


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=None)
def _unit_nodes(rule: tuple[int, int], dim: int) -> tuple[np.ndarray, ...]:
    """Nodes of a rule pair on [-1, 1]^dim, coarse rule then fine rule.

    One array per axis; the tensor grid is flattened with the x index
    outermost, as ``meshgrid(..., indexing="ij").ravel()`` orders it.
    """
    return tuple(
        np.concatenate(
            [np.repeat(np.tile(_leggauss(n)[0], n**j), n ** (dim - 1 - j)) for n in rule]
        )
        for j in range(dim)
    )


def _eval_cells(f, cells):
    """Integrate f over each ``(bounds, rule)`` cell with its nested rule pair,
    all cells in one call of ``f``.

    ``bounds`` is ``(a, b)`` in 1D and ``(xa, xb, ya, yb)`` in 2D. Returns
    ``([(fine_value, |fine - coarse|) per cell], n_evals)``.
    """
    dim = len(cells[0][0]) // 2
    coords: list[list[np.ndarray]] = [[] for _ in range(dim)]
    scales = []
    for bounds, rule in cells:
        scale = 1.0
        for j, unit in enumerate(_unit_nodes(rule, dim)):
            lo, hi = bounds[2 * j], bounds[2 * j + 1]
            h = 0.5 * (hi - lo)
            coords[j].append(0.5 * (lo + hi) + h * unit)
            scale *= h
        scales.append(scale)
    nodes = [np.concatenate(c) for c in coords]
    n_evals = nodes[0].size
    fv = np.asarray(f(*nodes), dtype=float).reshape(n_evals)
    out = []
    i = 0
    for (_, rule), scale in zip(cells, scales):
        vals = []
        for n in rule:
            wn = _leggauss(n)[1]
            m = n**dim
            cell = fv[i : i + m]
            s = wn @ cell if dim == 1 else np.einsum("i,j,ij->", wn, wn, cell.reshape(n, n))
            vals.append(scale * float(s))
            i += m
        coarse, fine = vals
        out.append((fine, abs(fine - coarse)))
    return out, n_evals


def _adaptive_heap(f, seeds, split, tol: float, budget: int) -> QuadResult:
    """Refine the worst cell until the summed error is at most ``tol`` or
    ``budget`` evaluations are spent.

    ``seeds`` are ``(bounds, rule)`` cells; ``split(*bounds)`` gives the
    bounds of a cell's children, which inherit its rule. Each step is one
    call of ``f``: the seeds first, then the children of each popped cell.
    """
    heap: list = []
    total = err = 0.0
    n_evals = 0
    tick = itertools.count()
    batch = seeds
    while batch:
        values, ne = _eval_cells(f, batch)
        n_evals += ne
        for (bounds, rule), (v, e) in zip(batch, values):
            total += v
            err += e
            heapq.heappush(heap, (-e, next(tick), bounds, rule, v, e))
        batch = []
        if err > tol and n_evals < budget:
            _, _, bounds, rule, v, e = heapq.heappop(heap)
            total -= v
            err -= e
            batch = [(child, rule) for child in split(*bounds)]
    return QuadResult(total, err, n_evals, len(heap), err <= tol)


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


def core_tail_cells(
    box: tuple[float, float, float, float],
    core_half: float = 8.0,
) -> list[tuple[float, float, float, float, tuple[int, int]]]:
    """Seed cells for a box: a clipped core square plus up to four tail bands.

    The core is the intersection of the box with [-c, c]^2, quartered so the
    heap starts with several competing cells. The remainder of the box is
    covered by left/right full-height bands and top/bottom bands, integrated
    with doubled node density. Boxes disjoint from the core square become a
    single quartered tail region.
    """
    x_lo, x_hi, y_lo, y_hi = box
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("integration box must have positive extent")
    c = core_half
    cx_lo, cx_hi = max(x_lo, -c), min(x_hi, c)
    cy_lo, cy_hi = max(y_lo, -c), min(y_hi, c)
    cells: list[tuple[float, float, float, float, tuple[int, int]]] = []
    if cx_lo < cx_hi and cy_lo < cy_hi:
        xm, ym = 0.5 * (cx_lo + cx_hi), 0.5 * (cy_lo + cy_hi)
        cells += [
            (cx_lo, xm, cy_lo, ym, CORE_RULE),
            (xm, cx_hi, cy_lo, ym, CORE_RULE),
            (cx_lo, xm, ym, cy_hi, CORE_RULE),
            (xm, cx_hi, ym, cy_hi, CORE_RULE),
        ]
        if x_lo < cx_lo:
            cells.append((x_lo, cx_lo, y_lo, y_hi, TAIL_RULE))
        if x_hi > cx_hi:
            cells.append((cx_hi, x_hi, y_lo, y_hi, TAIL_RULE))
        if y_lo < cy_lo:
            cells.append((cx_lo, cx_hi, y_lo, cy_lo, TAIL_RULE))
        if y_hi > cy_hi:
            cells.append((cx_lo, cx_hi, cy_hi, y_hi, TAIL_RULE))
    else:
        xm, ym = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
        cells += [
            (x_lo, xm, y_lo, ym, TAIL_RULE),
            (xm, x_hi, y_lo, ym, TAIL_RULE),
            (x_lo, xm, ym, y_hi, TAIL_RULE),
            (xm, x_hi, ym, y_hi, TAIL_RULE),
        ]
    return cells


def adaptive_quad_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-9,
    budget: int = 2**18,
) -> QuadResult:
    """Adaptive 1D integral of a vectorized integrand over [a, b]."""
    return _adaptive_heap(f, [((a, b), RULE_1D)], _split_1d, tol, budget)
