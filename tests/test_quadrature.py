"""The adaptive nested-rule quadrature engine."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liftdep.quadrature import (
    DEFAULT_BUDGET_2D,
    GAUSS_LEGENDRE,
    RULE_1D,
    RULE_2D,
    STEP_NODES,
    QuadResult,
    _core_tail_cells,
    _eval_cells,
    adaptive_quad_1d,
    adaptive_quad_2d,
)

import oracles


def test_gauss_legendre_literals_are_leggauss_bit_for_bit():
    assert sorted(GAUSS_LEGENDRE) == sorted({*RULE_1D, *RULE_2D})
    for n, (nodes, weights) in GAUSS_LEGENDRE.items():
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.array(nodes).tobytes() == x.tobytes()
        assert np.array(weights).tobytes() == w.tobytes()


def test_polynomial_exactness():
    res = adaptive_quad_2d(lambda x, y: x * x * y + 3.0, (0, 1, 0, 1), tol=1e-12)
    assert res.value == pytest.approx(1 / 6 + 3, abs=1e-12)
    # both rules are exact, so no seed cell is split
    assert res.n_cells == 4
    assert res.converged


def test_gaussian_integral():
    res = adaptive_quad_2d(
        lambda x, y: np.exp(-(x * x + y * y) / 2) / (2 * math.pi),
        (-8, 8, -8, 8),
        tol=1e-9,
    )
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.error <= 1e-9
    assert res.n_evals > 0


def test_heavy_tail_core_split():
    box = (-1e4, 1e4, -1e4, 1e4)
    # 4 core quarters + 4 tail bands
    assert len(_core_tail_cells(box)) == 8
    res = adaptive_quad_2d(
        lambda x, y: 1.0 / (2 * math.pi * (1 + x * x + y * y) ** 1.5), box, tol=1e-6
    )
    assert res.value == pytest.approx(1.0, abs=2e-4)  # mass beyond the box ~1e-4


@pytest.mark.parametrize(
    "box",
    [
        (0.0, 1.0, 0.0, 1.0),
        (-8.0, 8.0, -8.0, 8.0),
        (-1e4, 1e4, -3.0, 50.0),
        (-1e4, 1e4, -1e4, 1e4),
        (-30.0, -10.0, -1.0, 1.0),
    ],
)
def test_core_tail_seeds_match_the_oracle_geometry(box):
    assert _core_tail_cells(box) == oracles.core_tail_seeds(box)


def test_quadrant_clipped_cells():
    # a box entirely left of the core square still integrates correctly
    res = adaptive_quad_2d(lambda x, y: np.ones_like(x), (-30, -10, -1, 1), tol=1e-10)
    assert res.value == pytest.approx(40.0, abs=1e-9)


def test_budget_stops_refinement():
    calls = {"n": 0}

    def f(x, y):
        calls["n"] += x.size
        return np.abs(np.sin(40 * x) * np.sin(40 * y))

    res = adaptive_quad_2d(f, (-8, 8, -8, 8), tol=1e-14, budget=5000)
    assert res.n_evals == calls["n"]
    # may finish the last batch
    assert res.n_evals <= 5000 + 4 * sum(n * n for n in RULE_2D)


def test_determinism():
    def f(x, y):
        return np.exp(-x * x - y * y) * (1 + np.sin(3 * x))

    a = adaptive_quad_2d(f, (-6, 6, -6, 6), tol=1e-9)
    b = adaptive_quad_2d(f, (-6, 6, -6, 6), tol=1e-9)
    assert a == b


def test_1d_known_integral():
    res = adaptive_quad_1d(lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi), -8, 8)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert isinstance(res, QuadResult)


def test_1d_nonsmooth_subdivides():
    res = adaptive_quad_1d(lambda x: np.abs(x), -1, 2, tol=1e-12)
    assert res.value == pytest.approx(2.5, abs=1e-10)


def test_bad_box_rejected():
    with pytest.raises(ValueError):
        adaptive_quad_2d(lambda x, y: np.ones_like(x), (1, 1, 0, 1))


# The batched heap against the cell-by-cell reference heap in oracles.py, each
# seeded by its own core/tail geometry: equal results on every box, tolerance
# and budget (budget-stopped runs included), and one integrand call for the
# seeds plus one per heap step.

PROPERTY = settings(max_examples=40, deadline=None)
TOLS = st.integers(4, 12).map(lambda k: 10.0**-k)
# small budgets stop before or soon after the seeds, large ones mostly converge
BUDGETS = st.one_of(st.integers(1, 3000), st.integers(3000, 40000))

INTEGRANDS_2D = {
    "polynomial": lambda x, y: x**8 - 3.0 * x * y**5 + 2.0 * y**2 + 1.0,
    "gaussian": lambda x, y: np.exp(-((x - 0.3) ** 2 + (y + 0.2) ** 2) / 2) / (2 * math.pi),
    "abs-sin": lambda x, y: np.abs(np.sin(40 * x) * np.sin(40 * y)),
    "cauchy": lambda x, y: 1.0 / (2 * math.pi * (1 + x * x + y * y) ** 1.5),
}
INTEGRANDS_1D = {
    "polynomial": lambda x: x**9 - 2.0 * x**4 + 1.0,
    "gaussian": lambda x: np.exp(-((x - 0.3) ** 2) / 2) / math.sqrt(2 * math.pi),
    "abs-sin": lambda x: np.abs(np.sin(40 * x)),
    "cauchy": lambda x: 1.0 / (math.pi * (1 + x * x)),
}


def _counted(f):
    calls = []

    def g(*args):
        calls.append(args[0].size)
        return f(*args)

    return g, calls


@PROPERTY
@given(
    name=st.sampled_from(sorted(INTEGRANDS_2D)),
    corner=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
    size=st.tuples(st.floats(0.5, 30.0), st.floats(0.5, 30.0)),
    scale=st.sampled_from([1.0, 1e3]),
    tol=TOLS,
    budget=BUDGETS,
)
@example(name="gaussian", corner=(-8.0, -8.0), size=(16.0, 16.0), scale=1.0,
         tol=1e-9, budget=DEFAULT_BUDGET_2D)
@example(name="cauchy", corner=(-10.0, -10.0), size=(20.0, 20.0), scale=1e3,
         tol=1e-6, budget=100_000)
@example(name="abs-sin", corner=(-8.0, -8.0), size=(16.0, 16.0), scale=1.0,
         tol=1e-14, budget=5000)
# steps here reach the 2**15-node cap
@example(name="abs-sin", corner=(-8.0, -8.0), size=(16.0, 16.0), scale=1.0,
         tol=1e-6, budget=200_000)
# tail bands on all four sides, and a box that misses the core square
@example(name="gaussian", corner=(-10.0, -12.0), size=(25.0, 30.0), scale=1.0,
         tol=1e-6, budget=DEFAULT_BUDGET_2D)
@example(name="polynomial", corner=(9.0, -3.0), size=(2.0, 5.0), scale=1.0,
         tol=1e-6, budget=DEFAULT_BUDGET_2D)
def test_2d_heap_matches_cell_by_cell_oracle(name, corner, size, scale, tol, budget):
    f = INTEGRANDS_2D[name]
    (x, y), (w, h) = corner, size
    box = (x * scale, (x + w) * scale, y * scale, (y + h) * scale)
    expected, pops = oracles.quad_heap_2d(f, oracles.core_tail_seeds(box), tol, budget)
    counted, calls = _counted(f)
    res = adaptive_quad_2d(counted, box, tol=tol, budget=budget)
    assert res == QuadResult(*expected)
    assert len(calls) == 1 + pops
    assert sum(calls) == res.n_evals


@PROPERTY
@given(
    st.sampled_from(sorted(INTEGRANDS_1D)),
    st.floats(-50.0, 50.0),
    st.floats(0.5, 100.0),
    TOLS,
    BUDGETS,
)
def test_1d_heap_matches_cell_by_cell_oracle(name, a, width, tol, budget):
    f = INTEGRANDS_1D[name]
    expected, pops = oracles.quad_heap_1d(f, a, a + width, tol, budget)
    counted, calls = _counted(f)
    res = adaptive_quad_1d(counted, a, a + width, tol=tol, budget=budget)
    assert res == QuadResult(*expected)
    assert len(calls) == 1 + pops
    assert sum(calls) == res.n_evals


def test_1d_breaks_seed_one_cell_between_consecutive_points():
    """Breaks inside (a, b) cut the seed; ends, repeats and outside points do not."""
    f = INTEGRANDS_1D["cauchy"]
    expected, _ = oracles.quad_heap_1d(f, -2.0, 3.0, 1e-10, 2**18, cuts=(-0.5, 1.0))
    res = adaptive_quad_1d(f, -2.0, 3.0, tol=1e-10, breaks=(1.0, -0.5, 3.0, 1.0, -2.0, 7.0))
    assert res == QuadResult(*expected)
    assert adaptive_quad_1d(f, -2.0, 3.0, breaks=(-2.0, 3.0, 9.0)) == adaptive_quad_1d(
        f, -2.0, 3.0
    )


def test_1d_break_at_a_log_singularity():
    """No node falls on a break: the centre node of [-1, 1] would hit log 0."""

    def f(x):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(x))

    assert not math.isfinite(adaptive_quad_1d(f, -1.0, 1.0).value)
    res = adaptive_quad_1d(f, -1.0, 1.0, breaks=(0.0,))
    assert res.value == pytest.approx(-2.0, abs=1e-9)
    assert res.converged


def test_1d_breaks_on_a_mapped_axis():
    """On an infinite axis a break cuts the t interval at asinh(x - c): a
    jump of the integrand at the break then costs no refinement."""

    def step(x):
        return np.where(x < 2.0, INTEGRANDS_1D["cauchy"](x), 0.0)

    cut = adaptive_quad_1d(step, -math.inf, 5.0, tol=1e-10, breaks=(2.0,))
    assert cut.value == pytest.approx(oracles.cauchy_cdf(2.0), abs=1e-10)
    assert cut.n_evals < adaptive_quad_1d(step, -math.inf, 5.0, tol=1e-10).n_evals


@pytest.mark.parametrize("scale", [1e-40, 1.0, 1e40])
def test_1d_relative_tolerance_scales_with_the_value(scale):
    """With ``rtol`` the heap stops at the same relative error whatever the
    magnitude of the integral, in the same cells: an absolute ``tol`` of 0
    alone runs the budget out."""
    f = INTEGRANDS_1D["cauchy"]
    res = adaptive_quad_1d(lambda x: scale * f(x), -math.inf, 0.3, tol=0.0, rtol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(scale * oracles.cauchy_cdf(0.3), rel=1e-12)
    assert res.n_evals == adaptive_quad_1d(f, -math.inf, 0.3, tol=0.0, rtol=1e-12).n_evals
    assert adaptive_quad_1d(f, -math.inf, 0.3, tol=0.0, budget=2000).budget_exhausted


SPANS = st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 20.0))


def _log_abs(*xs):
    """``log |x y|``: -inf on a node at 0, which both rules of each pair have."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.prod(xs, axis=0)))


@PROPERTY
@given(
    dim=st.sampled_from([1, 2]),
    name=st.sampled_from([*sorted(INTEGRANDS_2D), "log-abs"]),
    cells=st.lists(st.tuples(SPANS, SPANS), min_size=1, max_size=300),
)
# a cell centred at 0 between two finite ones
@example(dim=1, name="log-abs", cells=[((1.0, 1.0), (0.0, 1.0)), ((-1.0, 2.0), (0.0, 1.0)),
                                       ((-3.0, 1.5), (0.0, 1.0))])
@example(dim=2, name="log-abs", cells=[((1.0, 1.0), (1.0, 1.0)), ((-1.0, 2.0), (-0.5, 1.0)),
                                       ((-3.0, 1.5), (2.0, 4.0))])
def test_cell_bits_do_not_depend_on_its_batch(dim, name, cells):
    """A cell's (value, error) alone equals its entry in any batch, bit for bit,
    and a cell that is non-finite at a node costs no warning in either (a NaN
    error, compared by its bits)."""
    f = _log_abs if name == "log-abs" else (INTEGRANDS_1D if dim == 1 else INTEGRANDS_2D)[name]
    batch = [(x, x + w, y, y + h)[: 2 * dim] for (x, w), (y, h) in cells]
    values, errors = _eval_cells(f, batch)
    assert len(values) == len(errors) == len(batch)
    for cell, v, e in zip(batch, values, errors):
        assert np.array(_eval_cells(f, [cell])).tobytes() == np.array([[v], [e]]).tobytes()


def test_budget_stop_is_not_converged():
    res = adaptive_quad_2d(INTEGRANDS_2D["abs-sin"], (-8, 8, -8, 8), tol=1e-14, budget=5000)
    assert res.n_evals >= 5000
    assert res.error > 1e-14
    assert not res.converged
    assert res.budget_exhausted
    res_1d = adaptive_quad_1d(INTEGRANDS_1D["abs-sin"], -8, 8, tol=1e-14, budget=2000)
    assert res_1d.n_evals >= 2000
    assert not res_1d.converged
    assert res_1d.budget_exhausted


def test_smooth_integrand_converges():
    res = adaptive_quad_2d(lambda x, y: np.exp(-(x * x + y * y) / 2), (-8, 8, -8, 8), tol=1e-9)
    assert res.converged
    assert not res.budget_exhausted
    assert res.error <= 1e-9
    assert res.n_cells > 4
    # a split adds at most three cells, so over (n_cells - 4) / 3 cells were
    # split, in under a tenth as many steps
    assert res.n_steps < (res.n_cells - 4) / 30
    res_1d = adaptive_quad_1d(lambda x: np.exp(-x * x / 2), -8, 8, tol=1e-12)
    assert res_1d.converged
    assert not res_1d.budget_exhausted
    assert res_1d.n_cells > 1


# Infinite ends: the sinh map against the closed-form Cauchy CDFs of oracles.py.

INF = math.inf
CIRCULAR_CAUCHY = INTEGRANDS_2D["cauchy"]


@pytest.mark.parametrize("b", [-50.0, -3.0, 0.0, 0.7, 5.0, 1e3])
def test_1d_half_lines_match_the_cauchy_cdf(b):
    cdf = oracles.cauchy_cdf(b)
    lower = adaptive_quad_1d(INTEGRANDS_1D["cauchy"], -INF, b, tol=1e-10)
    upper = adaptive_quad_1d(INTEGRANDS_1D["cauchy"], b, INF, tol=1e-10)
    assert lower.value == pytest.approx(cdf, abs=1e-10)
    assert upper.value == pytest.approx(1.0 - cdf, abs=1e-10)
    assert lower.converged and upper.converged


def test_1d_real_line_is_the_cauchy_mass():
    res = adaptive_quad_1d(INTEGRANDS_1D["cauchy"], -INF, INF)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_circular_cauchy_density_integrates_to_one_over_the_plane():
    res = adaptive_quad_2d(CIRCULAR_CAUCHY, (-INF, INF, -INF, INF))
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.converged


@pytest.mark.parametrize(
    "box,want",
    [
        # P(|X| <= 1): a finite x axis beside a mapped y axis
        ((-1.0, 1.0, -INF, INF), 0.5),
        # P(X >= 0, Y <= 2) = H(2) - F(0, 2)
        ((0.0, INF, -INF, 2.0), oracles.cauchy_cdf(2.0) - oracles.circular_cauchy_cdf(0.0, 2.0)),
        # P(X >= 0.3, Y >= -2) = 1 - G(0.3) - H(-2) + F(0.3, -2)
        ((0.3, INF, -2.0, INF), 1.0 - oracles.cauchy_cdf(0.3) - oracles.cauchy_cdf(-2.0)
         + oracles.circular_cauchy_cdf(0.3, -2.0)),
    ],
    ids=["strip", "half-plane-quadrant", "upper-quadrant"],
)
def test_box_with_some_infinite_ends(box, want):
    res = adaptive_quad_2d(CIRCULAR_CAUCHY, box, tol=1e-9)
    assert res.value == pytest.approx(want, abs=1e-10)


def test_mapped_box_is_the_reference_heap_on_the_t_box():
    """x = sinh t, y = sinh s on [-30, 30]^2 in quarters, the integrand times
    cosh t cosh s: the cell-by-cell heap gives the same bits."""

    def mapped(t, s):
        return CIRCULAR_CAUCHY(np.sinh(t), np.sinh(s)) * (np.cosh(t) * np.cosh(s))

    quarters = [
        (-30.0, 0.0, -30.0, 0.0),
        (0.0, 30.0, -30.0, 0.0),
        (-30.0, 0.0, 0.0, 30.0),
        (0.0, 30.0, 0.0, 30.0),
    ]
    expected, _ = oracles.quad_heap_2d(mapped, quarters, 1e-6, DEFAULT_BUDGET_2D)
    res = adaptive_quad_2d(CIRCULAR_CAUCHY, (-INF, INF, -INF, INF))
    assert res == QuadResult(*expected)
    assert res.converged


MALFORMED = [
    {"tol": math.nan},
    {"tol": -1.0},
    {"tol": math.inf},
    {"rtol": math.nan},
    {"rtol": -1e-9},
    {"rtol": math.inf},
    {"budget": 0},
    {"budget": -1},
]


@pytest.mark.parametrize("kwargs", MALFORMED)
def test_malformed_arguments_raise(kwargs):
    """A NaN tolerance stopped the heap after its seeds and a negative one ran
    the whole budget; a zero budget still evaluated the seeds."""
    with pytest.raises(ValueError):
        adaptive_quad_1d(np.exp, 0.0, 1.0, **kwargs)
    kwargs_2d = {k: v for k, v in kwargs.items() if k != "rtol"}
    if kwargs_2d:
        with pytest.raises(ValueError):
            adaptive_quad_2d(lambda x, y: x * y, (0.0, 1.0, 0.0, 1.0), **kwargs_2d)


def test_zero_tolerance_is_legal_with_rtol_or_a_budget():
    rel = adaptive_quad_1d(np.exp, 0.0, 1.0, tol=0.0, rtol=1e-12)
    assert rel.converged
    assert rel.value == pytest.approx(math.e - 1.0, rel=1e-12)
    spent = adaptive_quad_2d(lambda x, y: np.sqrt(x * y), (0.0, 1.0, 0.0, 1.0), tol=0.0,
                             budget=1000)
    assert spent.budget_exhausted
    assert spent.value == pytest.approx(4.0 / 9.0, abs=1e-3)


def test_bad_infinite_ends_raise():
    """Finite ends too: the 1D heap integrated ones over (1, 0) to -1 and over
    (0.5, 0.5) to 0."""
    with pytest.raises(ValueError):
        adaptive_quad_1d(INTEGRANDS_1D["cauchy"], INF, 0.0)
    with pytest.raises(ValueError):
        adaptive_quad_1d(INTEGRANDS_1D["cauchy"], -INF, -INF)
    with pytest.raises(ValueError):
        adaptive_quad_2d(CIRCULAR_CAUCHY, (0.0, 1.0, INF, -INF))
    for lo, hi in [(1.0, 0.0), (0.5, 0.5), (-1.0, -2.0)]:
        with pytest.raises(ValueError, match="positive extent"):
            adaptive_quad_1d(np.ones_like, lo, hi)
        with pytest.raises(ValueError, match="positive extent"):
            adaptive_quad_2d(lambda x, y: np.ones_like(x), (0.0, 1.0, lo, hi))


# Vector-valued integrands: one row per component, every component on the
# cells of one heap, each cell refined by its largest component error.


def _stacked(*fs):
    return lambda *xs: np.stack([f(*xs) for f in fs])


def _nan_where_positive(*xs):
    return np.where(xs[0] > 0.0, np.nan, 1.0)


@PROPERTY
@given(
    dim=st.sampled_from([1, 2]),
    names=st.lists(st.sampled_from([*sorted(INTEGRANDS_2D), "log-abs"]), min_size=1, max_size=3),
    cells=st.lists(st.tuples(SPANS, SPANS), min_size=1, max_size=50),
)
def test_a_stacked_cell_is_each_component_as_a_scalar_cell(dim, names, cells):
    """Each component of a stacked integrand gets the value bits its scalar
    integrand gets, and a cell's error is the largest component error (NaN
    when one component's is NaN), without a warning."""
    table = INTEGRANDS_1D if dim == 1 else INTEGRANDS_2D
    fs = [_log_abs if name == "log-abs" else table[name] for name in names]
    batch = [(x, x + w, y, y + h)[: 2 * dim] for (x, w), (y, h) in cells]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, errors = _eval_cells(_stacked(*fs), batch)
    alone = [_eval_cells(f, batch) for f in fs]
    assert np.array(values).tobytes() == np.array([v for v, _ in alone]).T.tobytes()
    want = np.max([e for _, e in alone], axis=0)
    assert np.array(errors).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_a_nan_component_gives_a_nan_error_without_a_warning(dim):
    f = (INTEGRANDS_1D if dim == 1 else INTEGRANDS_2D)["gaussian"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if dim == 1:
            res = adaptive_quad_1d(_stacked(f, _nan_where_positive), -1.0, 1.0)
        else:
            res = adaptive_quad_2d(_stacked(f, _nan_where_positive), (-1.0, 1.0, -1.0, 1.0))
    assert math.isnan(res.error)
    assert not res.converged and not res.budget_exhausted
    assert res.value.shape == (2,) and math.isnan(res.value[1])


def _heaps(dim, fs, box, tol):
    """The stacked heap and one scalar heap per component."""
    if dim == 1:
        return [adaptive_quad_1d(g, *box, tol=tol) for g in [_stacked(*fs), *fs]]
    return [adaptive_quad_2d(g, box, tol=tol) for g in [_stacked(*fs), *fs]]


VECTOR_CASES = {
    # both components converge in the seed step
    "seed-1d": (1, ["polynomial", "gaussian"], (0.0, 1.0), 1e-10),
    "seed-2d": (2, ["gaussian", "cauchy"], (0.0, 1.0, 0.0, 1.0), 1e-6),
    # the components refine on different cells
    "refined-1d": (1, ["cauchy", "gaussian", "abs-sin"], (-2.0, 3.0), 1e-10),
    "refined-2d": (2, ["gaussian", "cauchy"], (-8.0, 8.0, -8.0, 8.0), 1e-9),
    "mapped-1d": (1, ["cauchy", "gaussian"], (-math.inf, 0.5), 1e-10),
}


@pytest.mark.parametrize("case", list(VECTOR_CASES))
def test_a_stacked_heap_keeps_each_component_within_tol(case):
    """A component that converges in the seed step gets the bits of its own
    heap; otherwise it is within ``tol`` of it, with every component inside
    the budget of nodes that a scalar heap gets."""
    dim, names, box, tol = VECTOR_CASES[case]
    fs = [(INTEGRANDS_1D if dim == 1 else INTEGRANDS_2D)[name] for name in names]
    res, *alone = _heaps(dim, fs, box, tol)
    assert res.converged and res.error <= tol
    assert res.value.shape == (len(fs),)
    for v, single in zip(res.value, alone):
        if res.n_steps == 1:
            assert np.float64(v).tobytes() == np.float64(single.value).tobytes()
            assert single.n_steps == 1
        assert abs(v - single.value) <= tol
    assert res.n_evals >= max(single.n_evals for single in alone)
    assert (res.n_steps == 1) == case.startswith("seed")


@pytest.mark.parametrize("dim,m", [(1, 201), (2, 50)])
def test_a_stacked_step_stays_within_step_nodes_values(dim, m):
    """A step's block counts nodes times components, so a step of a stacked
    integrand is never larger than a scalar one; the budget counts nodes."""
    f = (INTEGRANDS_1D if dim == 1 else INTEGRANDS_2D)["abs-sin"]
    scales = np.linspace(1.0, 2.0, m)[:, None]
    sizes = []

    def g(*xs):
        out = scales * f(*xs)
        sizes.append(out.size)
        return out

    if dim == 1:
        res = adaptive_quad_1d(g, -8.0, 8.0, tol=1e-9, budget=40_000)
    else:
        res = adaptive_quad_2d(g, (-8.0, 8.0, -8.0, 8.0), tol=1e-9, budget=40_000)
    assert res.n_evals * m == sum(sizes)
    assert res.budget_exhausted
    assert max(sizes) <= STEP_NODES
    # the cap binds: a step holds as many popped cells as fit
    cell_values = (2 * sum(RULE_1D) if dim == 1 else 4 * sum(n * n for n in RULE_2D)) * m
    assert max(sizes) > STEP_NODES - cell_values
