"""Mutual information: exact sums, closed forms, quadrature, curve route."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liftdep as ld
from liftdep import information
from liftdep.cli import CURVE_SPECS
from liftdep.codec import write_json
from liftdep.distributions import named_curve
from liftdep.information import (
    MiMethod,
    _conditional_mi_integrand,
    _folded_box,
    _mi_integrand,
    _own_mi_integrand,
)

import oracles

LOG_2 = 0.6931471805599453
MI_FIXTURE = 0.19274475702175753          # 0.8 log 1.6 + 0.2 log 0.4
MI_CURVE_NORMAL_ID = 0.6207822376352453   # log(2 sqrt(e) / sqrt(pi))
MI_CURVE_UNIFORM_ID = -0.7981562955694275  # log(sqrt(2) / pi)
MI_CURVE_NORMAL_DOUBLE = 0.8557840522581131  # MI_CURVE_NORMAL_ID + log(8 / 5) / 2


class TestMiDiscrete:
    def test_independent_is_zero(self, indep_pmf):
        report = ld.mi_discrete(indep_pmf)
        assert report.value == pytest.approx(0.0, abs=1e-15)
        assert report.method == MiMethod.EXACT_SUM

    def test_perfectly_dependent(self):
        dist = ld.DiscreteJoint([0.0, 1.0], [0.0, 1.0], [[0.5, 0.0], [0.0, 0.5]])
        assert ld.mi_discrete(dist).value == pytest.approx(LOG_2, abs=1e-15)

    def test_hand_sum_fixture(self, dep_pmf):
        assert ld.mi_discrete(dep_pmf).value == pytest.approx(MI_FIXTURE, abs=1e-15)
        assert oracles.brute_mi(dep_pmf.pmf) == pytest.approx(MI_FIXTURE, abs=1e-15)


class TestMiBvnClosedForm:
    def test_zero_correlation(self):
        assert ld.mi_bvn_closed_form(0.0).value == 0.0

    def test_paper_value(self):
        report = ld.mi_bvn_closed_form(0.6)
        assert report.value == pytest.approx(0.22314355131420974, abs=1e-12)
        assert report.method == MiMethod.CLOSED_FORM

    def test_high_correlation(self):
        assert ld.mi_bvn_closed_form(0.99).value == pytest.approx(
            1.9585177736258443, abs=1e-12
        )

    def test_degenerate(self):
        with pytest.raises(ld.DegenerateCorrelation):
            ld.mi_bvn_closed_form(1.0)


class TestMiContinuous:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.6, 0.9])
    def test_matches_closed_form(self, r):
        quad = ld.mi_continuous(ld.BivariateNormal(r))
        assert quad.value == pytest.approx(ld.mi_bvn_closed_form(r).value, abs=1e-3)
        assert quad.method == MiMethod.QUADRATURE

    @pytest.mark.parametrize("r", [0.999, 0.9999, 0.99999, -0.999])
    def test_near_singular_bvn_matches_closed_form(self, r):
        """In (x, w) the ridge y ~ x is gone: in (x, y) these were 0.018 to
        0.030 nats low and reported converged."""
        report = ld.mi_continuous(ld.BivariateNormal(r))
        assert report.value == pytest.approx(ld.mi_bvn_closed_form(r).value, abs=1e-9)
        assert report.converged

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-0.999, 0.999),
        st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)), min_size=1, max_size=20),
    )
    def test_conditional_integrand_is_the_joint_integrand_mapped(self, r, points):
        """``rho_X(x) phi(w) log L(x, y)`` at ``y = r x + s w`` is ``s`` times
        ``rho log L`` at ``(x, y)``: the Jacobian ``dy = s dw``."""
        dist = ld.BivariateNormal(r)
        x, w = np.array(points).T
        s = math.sqrt(1.0 - r * r)
        want = s * _mi_integrand(dist)(x, r * x + s * w)
        got = _conditional_mi_integrand(dist)(x, w)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-14)

    def test_circular_cauchy(self):
        report = ld.mi_continuous(ld.CircularCauchy())
        assert report.value == pytest.approx(0.223, abs=5e-3)
        assert report.value == pytest.approx(oracles.MI_CIRCULAR_CAUCHY, abs=1e-6)
        assert report.converged
        # a tenth of the 1,153,736 evaluations the [-1e5, 1e5]^2 box took
        assert report.n_evals <= 115_373
        # folded onto one quadrant: a quarter of the plane's 86,072, plus one cell
        assert report.value == pytest.approx(oracles.MI_CIRCULAR_CAUCHY, abs=1e-9)
        assert report.n_evals <= 25_000

    # with the near-singular test above: r = 0, +-0.3, ..., +-0.99999
    @pytest.mark.parametrize("r", [0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9, 0.99, -0.99, -0.99999])
    def test_folded_bvn_matches_closed_form(self, r):
        report = ld.mi_continuous(ld.BivariateNormal(r))
        assert report.value == pytest.approx(ld.mi_bvn_closed_form(r).value, abs=1e-9)
        assert report.converged

    @pytest.mark.parametrize("r", [0.6, 0.9])
    def test_wide_box_with_tail_bands(self, r):
        """[-40, 40]^2 is seeded as the [-8, 8]^2 core plus four tail bands."""
        dist = ld.ContinuousJoint(
            joint_density=ld.BivariateNormal(r).joint_density,
            marginal_x=ld.standard_normal_pdf,
            marginal_y=ld.standard_normal_pdf,
            integration_box=(-40.0, 40.0, -40.0, 40.0),
        )
        report = ld.mi_continuous(dist)
        assert report.value == pytest.approx(ld.mi_bvn_closed_form(r).value, abs=1e-10)
        assert report.converged

    def test_independent_product(self):
        dist = ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf)
        report = ld.mi_continuous(dist)
        assert abs(report.value) <= 1e-6

    def test_quadrature_not_converged_on_tiny_budget(self):
        with pytest.raises(ld.QuadratureNotConverged):
            ld.mi_continuous(ld.BivariateNormal(0.9), budget=64)

    def test_converged_run_reports_its_partition(self):
        report = ld.mi_continuous(ld.BivariateNormal(0.6))
        assert report.converged
        assert not report.budget_exhausted
        assert report.abs_error_estimate <= 1e-6
        assert report.n_cells > 4

    @pytest.mark.parametrize(
        "dist",
        [ld.BivariateNormal(0.6), ld.CircularCauchy(), ld.as_continuous(ld.BivariateNormal(0.6))],
        ids=["bvn", "cauchy", "view"],
    )
    def test_report_counts_its_integrand_calls(self, monkeypatch, dist):
        calls = count_integrand_calls(monkeypatch, "adaptive_quad_2d")
        report = ld.mi_continuous(dist)
        assert report.n_steps == len(calls) > 1
        assert set(report.to_dict()) == {"value", "method", "abs_error_estimate", "n_evals"}

    def test_budget_stopped_run_says_so(self):
        # the error estimate ends between the 1e-6 tolerance and the 1e-3
        # failure bound, so a Quadrature report comes back
        report = ld.mi_continuous(ld.BivariateNormal(0.6), budget=4000)
        assert report.method == MiMethod.QUADRATURE
        assert not report.converged
        assert report.budget_exhausted
        assert 1e-6 < report.abs_error_estimate <= 1e-3
        assert report.n_evals >= 4000
        assert report.n_cells > 4
        assert set(report.to_dict()) == {"value", "method", "abs_error_estimate", "n_evals"}

    def test_converged_run_above_failure_bound_returns(self):
        # a tolerance above the 1e-3 failure bound: the heap converges with an
        # error estimate between the two, which is a result, not a failure
        report = ld.mi_continuous(ld.BivariateNormal(0.6), tol=0.01)
        assert report.converged
        assert not report.budget_exhausted
        assert report.value == pytest.approx(ld.mi_bvn_closed_form(0.6).value, abs=0.01)


def count_integrand_calls(monkeypatch, quad_name):
    """Make ``information.<quad_name>`` count the calls of its integrand;
    returns the list each call appends to."""
    calls = []
    quad = getattr(information, quad_name)

    def counted(f, *args, **kwargs):
        def integrand(*xs):
            calls.append(1)
            return f(*xs)

        return quad(integrand, *args, **kwargs)

    monkeypatch.setattr(information, quad_name, counted)
    return calls


def scaled_parabola(a, lo):
    """``Y = a X^2`` with X ~ U(lo, 1): the fold at 0 is a domain end for
    lo = 0 and inside the domain for lo = -1."""
    branch = ld.CurveBranch(
        phi=lambda x: a * np.asarray(x, dtype=float) ** 2,
        dphi=lambda x: 2.0 * a * np.asarray(x, dtype=float),
        domain=(lo, 1.0),
    )
    return ld.CurveSingularJoint(ld.uniform_pdf(lo, 1.0), (lo, 1.0), (branch,))


class TestMiCurve:
    # laws that take more than one heap step even with seeded pieces
    @pytest.mark.parametrize("dist,tol", [
        (scaled_parabola(1.0, -1.0), 1e-8),
        (named_curve("curve-normal-identity"), 1e-12),
    ], ids=["interior-parabola", "normal-identity-1e-12"])
    def test_report_counts_its_integrand_calls(self, monkeypatch, dist, tol):
        calls = count_integrand_calls(monkeypatch, "adaptive_quad_1d")
        report = ld.mi_curve(dist, tol=tol)
        assert report.n_steps == len(calls) > 1

    @pytest.mark.parametrize("spec,closed_form", [
        ("curve-normal-identity", MI_CURVE_NORMAL_ID),
        ("curve-normal-double", MI_CURVE_NORMAL_DOUBLE),
        ("curve-uniform-identity", MI_CURVE_UNIFORM_ID),
    ], ids=["normal-identity", "normal-double", "uniform-identity"])
    def test_fold_free_specs_converge_in_one_integrand_call(self, monkeypatch, spec, closed_form):
        calls = count_integrand_calls(monkeypatch, "adaptive_quad_1d")
        report = ld.mi_curve(named_curve(spec))
        assert report.converged
        assert report.n_steps == len(calls) == 1
        assert report.n_cells == information.CURVE_SEED_CELLS
        assert report.value == pytest.approx(closed_form, abs=1e-8)

    def test_equal_breaks_cut_fold_free_pieces(self):
        def equal(dist):
            return information._seed_breaks(dist, 1e-8)[1]

        eighths = [k / 8 for k in range(1, 8)]
        assert equal(named_curve("curve-uniform-identity")) == eighths
        assert equal(named_curve("curve-normal-double")) == [-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0]
        # a piece with a fold at an end is graded instead
        assert equal(named_curve("curve-uniform-square")) == []
        # the part of a piece inside support_x is cut, once per piece of each branch
        wide = ld.CurveBranch(phi=lambda x: np.asarray(x, dtype=float),
                              dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                              domain=(-8.0, 8.0), weight=0.4)
        square = ld.CurveBranch(phi=lambda x: np.asarray(x, dtype=float) ** 2,
                                dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
                                domain=(0.0, 1.0), weight=0.6)
        assert equal(ld.CurveSingularJoint(ld.uniform_pdf(0.0, 1.0), (0.0, 1.0),
                                           (wide, square))) == eighths

    def test_equal_seeds_stay_within_the_budget(self, normal_identity_curve):
        # 8 seed cells of 22 nodes fit a budget of 176, not one of 175
        assert ld.mi_curve(normal_identity_curve, budget=176).n_steps == 1
        assert ld.mi_curve(normal_identity_curve, budget=175).n_steps > 1

    def test_normal_identity_singular_limit(self, normal_identity_curve):
        report = ld.mi_curve(normal_identity_curve)
        assert report.value == pytest.approx(MI_CURVE_NORMAL_ID, abs=1e-6)
        assert report.method == MiMethod.CURVE_QUADRATURE

    def test_uniform_identity(self, uniform_identity_curve):
        assert ld.mi_curve(uniform_identity_curve).value == pytest.approx(
            MI_CURVE_UNIFORM_ID, abs=1e-9
        )

    def test_normal_double_slope_against_independent_quadrature(self):
        # independent 1D oracle: integrand rho_X(x) log(2 / (pi rho_Y(2x) sqrt(5)))
        branch = ld.CurveBranch(
            phi=lambda x: 2.0 * np.asarray(x, dtype=float),
            dphi=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
            domain=(-8.0, 8.0),
        )
        dist = ld.CurveSingularJoint(
            ld.standard_normal_pdf, (-8.0, 8.0), (branch,)
        )

        def rho_y_analytic(y):
            return oracles.normal_pdf(y / 2.0) / 2.0

        expected = oracles.quad_1d(
            lambda x: oracles.normal_pdf(x)
            * math.log(2.0 / (math.pi * rho_y_analytic(2 * x) * math.sqrt(5.0))),
            -8.0,
            8.0,
        )
        assert ld.mi_curve(dist).value == pytest.approx(expected, abs=1e-6)

    def test_a_zero_weight_branch_adds_nothing(self):
        identity, = named_curve("curve-uniform-identity").branches
        square = ld.CurveBranch(phi=lambda x: np.asarray(x, dtype=float) ** 2,
                                dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
                                domain=(0.0, 1.0), weight=0.0)
        dist = ld.CurveSingularJoint(ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (identity, square))
        assert ld.mi_curve(dist).value == pytest.approx(MI_CURVE_UNIFORM_ID, abs=1e-12)

    def test_branch_on_part_of_the_support_against_quadpack(self):
        """X ~ U(0, 1) on Y = X (weight 0.6), or on Y = 1 - X^2 over [0.2, 0.7]
        only (0.4). rho_Y(y) = 0.6 + 0.2 / sqrt(1 - y) on [0.51, 0.96] and 0.6
        elsewhere in [0, 1]; later heap steps refine cells outside [0.2, 0.7]."""
        up = ld.CurveBranch(phi=lambda x: np.asarray(x, dtype=float),
                            dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                            domain=(0.0, 1.0), weight=0.6)
        down = ld.CurveBranch(phi=lambda x: 1.0 - np.asarray(x, dtype=float) ** 2,
                              dphi=lambda x: -2.0 * np.asarray(x, dtype=float),
                              domain=(0.2, 0.7), weight=0.4)
        dist = ld.CurveSingularJoint(ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (up, down))

        def rho_y(y):
            return 0.6 + (0.2 / math.sqrt(1.0 - y) if 0.51 <= y <= 0.96 else 0.0)

        def integrand(x):
            total = 0.6 * math.log(2 * 0.6 / (math.pi * rho_y(x) * math.sqrt(2.0)))
            if 0.2 <= x <= 0.7:
                y = 1.0 - x * x
                total += 0.4 * math.log(
                    2 * 0.4 / (math.pi * rho_y(y) * math.sqrt(1.0 + 4.0 * x * x))
                )
            return total

        expected = oracles.quad_1d(integrand, 0.0, 1.0, points=[0.2, 0.51, 0.7, 0.96],
                                   epsabs=1e-13, epsrel=1e-13, limit=200)
        report = ld.mi_curve(dist)
        assert report.converged and report.n_steps > 1
        assert report.value == pytest.approx(expected, abs=1e-8)

    def test_mixture_uses_branch_weights(self, tent_curve):
        # both branches have rho_Y = 1 and slope 1, so log L is constant
        expected = math.log(2 * 0.5 / (math.pi * math.sqrt(2)))
        assert ld.mi_curve(tent_curve).value == pytest.approx(expected, abs=1e-9)

    def test_fold_at_the_centre_of_the_support(self):
        # X ~ U[-1, 1], Y = X^2: rho_Y(y) = 1 / (2 sqrt y), so on the curve
        # L = 4|x| / (pi sqrt(1 + 4x^2)). The centre node of [-1, 1] is the fold.
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(-1.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(-1.0, 1.0), (-1.0, 1.0), (branch,))
        expected = oracles.quad_1d(
            lambda x: 0.5 * math.log(4.0 * abs(x) / (math.pi * math.sqrt(1.0 + 4.0 * x * x))),
            -1.0, 1.0, points=[0.0], epsabs=1e-13, epsrel=1e-13,
        )
        report = ld.mi_curve(dist)
        assert report.converged
        assert report.value == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("a", [1.0, 1e-2, 1e-4])
    @pytest.mark.parametrize("lo", [0.0, -1.0])
    def test_scaled_parabola_against_its_closed_form(self, a, lo):
        report = ld.mi_curve(scaled_parabola(a, lo), tol=1e-8)
        assert report.converged
        assert report.value == pytest.approx(oracles.mi_scaled_parabola(a), abs=1e-8)

    def test_fold_is_graded_before_the_first_integrand_call(self):
        # ungraded, the heap bisects toward the fold one cell per step (21 and 22 steps)
        assert ld.mi_curve(scaled_parabola(1.0, 0.0)).n_steps == 1
        assert ld.mi_curve(scaled_parabola(1.0, -1.0)).n_steps <= 3

    def test_fold_breaks_halve_down_to_the_tolerance(self):
        # rho_X(0) a_n E |w| > 1e-8 down to |w| = 2^-19, so the last break is 2^-20
        breaks = information._seed_breaks(named_curve("curve-uniform-square"), 1e-8)[0]
        assert breaks == [2.0**-k for k in range(1, 21)]
        assert information._log_end_error() == pytest.approx(8.63e-3, rel=1e-3)

    def test_fold_breaks_scale_with_density_and_weight(self):
        # rho_X(0) = 1/2 on U(-1, 1) stops one halving earlier on each side,
        # a branch weight of 0.3 two halvings earlier
        interior = information._seed_breaks(scaled_parabola(1.0, -1.0), 1e-8)[0]
        assert sorted(interior) == sorted(s * 2.0**-k for s in (-1, 1) for k in range(1, 20))
        identity = ld.CurveBranch(phi=lambda x: np.asarray(x, dtype=float),
                                  dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                  domain=(0.0, 1.0), weight=0.7)
        square = ld.CurveBranch(phi=lambda x: np.asarray(x, dtype=float) ** 2,
                                dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
                                domain=(0.0, 1.0), weight=0.3)
        mixture = ld.CurveSingularJoint(ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (identity, square))
        assert information._seed_breaks(mixture, 1e-8)[0] == [2.0**-k for k in range(1, 19)]

    def test_fold_breaks_end_at_zero_tolerance(self):
        # toward a fold at 0 the halving runs into the subnormals
        breaks = information._seed_breaks(named_curve("curve-uniform-square"), 0.0)[0]
        assert all(0.0 < b < a for a, b in zip(breaks, breaks[1:]))
        assert breaks[-1] < 1e-300
        # toward a fold at 1 it stops where 1 + w/2 rounds to 1
        branch = ld.CurveBranch(phi=lambda x: (np.asarray(x, dtype=float) - 1.0) ** 2,
                                dphi=lambda x: 2.0 * (np.asarray(x, dtype=float) - 1.0),
                                domain=(0.0, 1.0))
        dist = ld.CurveSingularJoint(ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (branch,))
        breaks = information._seed_breaks(dist, 0.0)[0]
        assert breaks == [1.0 - 2.0**-k for k in range(1, len(breaks) + 1)]
        assert 1.0 - 2.0**-(len(breaks) + 1) == 1.0

    @pytest.mark.parametrize("spec", ["curve-normal-identity", "curve-uniform-identity",
                                      "curve-normal-double"])
    def test_curve_without_a_fold_gets_no_break(self, spec):
        # no graded break; its equal seed cells are pinned above
        assert information._seed_breaks(named_curve(spec), 1e-8)[0] == []

    def test_two_branch_mixture_against_its_closed_form_marginal(self):
        # X ~ U[0, 1], Y = X w.p. 0.3 and Y = X^2 w.p. 0.7:
        # rho_Y(y) = 0.3 + 0.7 / (2 sqrt y) = 0.3 + 0.35 / sqrt y
        identity = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float),
            dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            domain=(0.0, 1.0),
            weight=0.3,
        )
        square = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(0.0, 1.0),
            weight=0.7,
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (identity, square))

        def rho_y(y):
            return 0.3 + 0.35 / math.sqrt(y)

        def integrand(x):
            on_identity = math.log(2 * 0.3 / (math.pi * rho_y(x) * math.sqrt(2.0)))
            on_square = math.log(
                2 * 0.7 / (math.pi * rho_y(x * x) * math.sqrt(1.0 + 4.0 * x * x))
            )
            return 0.3 * on_identity + 0.7 * on_square

        expected = oracles.quad_1d(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert ld.mi_curve(dist).value == pytest.approx(expected, abs=1e-8)

    def test_nan_supplied_marginal_y_is_undefined(self):
        # a NaN rho_Y over half the support must not count as log L = 0
        base = named_curve("curve-uniform-identity")
        dist = ld.CurveSingularJoint(base.marginal_x, (0.0, 1.0), base.branches,
                                     marginal_y=lambda y: np.where(y > 0.5, np.nan, 1.0))
        with pytest.raises(ld.UndefinedAtPoint):
            ld.mi_curve(dist)

    def test_interior_fold_raises(self):
        # X ~ U(0, 3), Y = sin X: near the fold at pi/2 the partner preimage
        # rounds onto the fold, so the derived rho_Y is NaN there
        branch = ld.CurveBranch(phi=np.sin, dphi=np.cos, domain=(0.0, 3.0))
        dist = ld.CurveSingularJoint(ld.uniform_pdf(0.0, 3.0), (0.0, 3.0), (branch,))
        with pytest.raises(ld.DerivativeVanishes):
            ld.mi_curve(dist)

    def test_convergence_facts(self, normal_identity_curve):
        report = ld.mi_curve(normal_identity_curve)
        assert report.converged
        assert not report.budget_exhausted
        assert report.n_cells > 1
        stopped = ld.mi_curve(normal_identity_curve, budget=100)
        assert not stopped.converged
        assert stopped.budget_exhausted
        assert stopped.n_evals >= 100


MI_FAMILIES = {
    "bvn-0.6": ld.BivariateNormal(0.6),
    "bvn--0.99": ld.BivariateNormal(-0.99),
    "cauchy": ld.CircularCauchy(),
    # zero X-marginal off [0, 1]
    "uniform-normal": ld.IndependentProduct(ld.uniform_pdf(0.0, 1.0), ld.standard_normal_pdf),
    # a positive joint density over marginals that vanish: the mask must drop
    # the points where either marginal is 0
    "mismatched": ld.ContinuousJoint(
        joint_density=ld.CircularCauchy().joint_density,
        marginal_x=ld.uniform_pdf(-1.0, 1.0),
        marginal_y=ld.uniform_pdf(0.0, 2.0),
        integration_box=(-1.0, 1.0, 0.0, 2.0),
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(MI_FAMILIES)),
    points=st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)), min_size=1,
                    max_size=50),
)
# (20, -20): the joint density underflows to 0 while both marginals are
# positive; (38, 1): a subnormal X-marginal; (-40, 40): all three are 0
@example(name="bvn-0.6", points=[(20.0, -20.0), (0.0, 0.0), (-40.0, 40.0), (38.0, 1.0)])
def test_mi_integrand_equals_masked_expression(name, points):
    dist = MI_FAMILIES[name]
    x, y = np.array(points).T
    want = oracles.mi_integrand_masked(
        dist.joint_density(x, y), dist.marginal_x(x), dist.marginal_y(y)
    )
    assert _mi_integrand(dist)(x, y).tobytes() == want.tobytes()


REFLECTING = {
    "cauchy": ld.CircularCauchy(),
    **{f"bvn-{r}": ld.BivariateNormal(r) for r in (0.0, 0.6, -0.6, 0.99, -0.999)},
}
REFLECT = {"x": (-1.0, 1.0), "y": (1.0, -1.0), "xy": (-1.0, -1.0)}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(REFLECTING)),
    points=st.lists(st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)), min_size=1,
                    max_size=50),
)
def test_mi_integrand_is_invariant_under_declared_reflections(name, points):
    """In the family's own coordinates, ``(x, w)`` for the bivariate normal, the
    integrand takes the same value at each mirror image of a point of the
    bivariate normal's box."""
    dist = REFLECTING[name]
    f = _own_mi_integrand(dist)
    u, v = np.array(points).T
    assert dist.reflections
    for reflection in dist.reflections:
        su, sv = REFLECT[reflection]
        np.testing.assert_array_equal(f(su * u, sv * v), f(u, v))


def _declaring(reflections, box, r=0.0):
    """The bivariate normal as plain evaluators over ``box`` that declare
    ``reflections``."""
    cls = type("Declaring", (ld.ContinuousJoint,), {"reflections": reflections})
    return cls(ld.BivariateNormal(r).joint_density, ld.standard_normal_pdf,
               ld.standard_normal_pdf, box)


def mirrored(dist, c):
    """The law of ``(X, c - phi(X))`` for a one-branch curve law, built from
    the public API."""
    (branch,) = dist.branches
    mirror = ld.CurveBranch(phi=lambda x: c - branch.phi(x), dphi=lambda x: -branch.dphi(x),
                            domain=branch.domain)
    return ld.CurveSingularJoint(dist.marginal_x, dist.support_x, (mirror,))


class TestMirrorLaw:
    """MI does not change under the monotone map ``y -> c - y`` (Kraskov,
    Stoegbauer and Grassberger, PRE 69 (2004) 066138), nor does the lift at
    the mirrored point. At ``1 - X^2`` the slope is 0 at the start of the
    piece, which once gave a zero-width piece and a DerivativeVanishes."""

    @pytest.mark.parametrize("spec", CURVE_SPECS)
    def test_mi_is_the_specs(self, spec):
        dist = named_curve(spec)
        want = ld.mi_curve(dist).value
        assert ld.mi_curve(mirrored(dist, 1.0)).value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("spec", CURVE_SPECS)
    def test_lift_at_mirrored_points(self, spec):
        dist = named_curve(spec)
        mirror = mirrored(dist, 1.0)
        lo, hi = dist.support_x
        x = np.linspace(lo, hi, 1001)[1:-1]
        want = dist.lift(x, dist.branches[0].phi(x))
        got = mirror.lift(x, mirror.branches[0].phi(x))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_cos_on_the_unit_interval(self):
        branch = ld.CurveBranch(phi=np.cos, dphi=lambda x: -np.sin(x), domain=(0.0, 1.0))
        dist = ld.CurveSingularJoint(ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (branch,))
        assert ld.mi_curve(dist).value == pytest.approx(oracles.mi_uniform_cos(), abs=1e-8)


class TestFold:
    def test_declared_fold_on_plain_evaluators(self):
        """A family without conditional coordinates folds its ``(x, y)`` box."""
        dist = _declaring(("xy",), (-40.0, 40.0, -40.0, 40.0), r=0.9)
        assert _folded_box(dist) == ((0.0, 40.0, -40.0, 40.0), 1)
        report = ld.mi_continuous(dist)
        assert report.value == pytest.approx(ld.mi_bvn_closed_form(0.9).value, abs=1e-10)
        assert report.n_evals < ld.mi_continuous(ld.as_continuous(dist)).n_evals

    def test_folded_boxes_of_the_named_families(self):
        inf = math.inf
        assert _folded_box(ld.CircularCauchy()) == ((0.0, inf, 0.0, inf), 2)
        assert _folded_box(ld.BivariateNormal(0.6)) == ((0.0, 8.0, -8.0, 8.0), 1)
        plain = ld.as_continuous(ld.CircularCauchy())
        assert _folded_box(plain) == (plain.integration_box, 0)

    @pytest.mark.parametrize(
        "reflections,box",
        [
            (("x",), (-1.0, 2.0, -8.0, 8.0)),
            (("y",), (-8.0, 8.0, 0.0, 8.0)),
            # "xy" negates y too, though it cuts only x
            (("xy",), (-8.0, 8.0, -8.0, 9.0)),
            (("x", "y"), (-math.inf, math.inf, -1.0, math.inf)),
        ],
    )
    def test_asymmetric_box_is_refused(self, reflections, box):
        with pytest.raises(ValueError, match="not symmetric"):
            ld.mi_continuous(_declaring(reflections, box))

    def test_unknown_reflection_is_refused(self):
        with pytest.raises(ValueError, match="unknown"):
            ld.mi_continuous(_declaring(("diagonal",), (-8.0, 8.0, -8.0, 8.0)))

    def test_conditional_coordinates_allow_only_the_point_reflection(self):
        class Reflected(ld.BivariateNormal):
            reflections = ("x", "xy")

        with pytest.raises(ValueError, match="only the reflection 'xy'"):
            ld.mi_continuous(Reflected(0.0))


def _wide_box_bvn(r):
    return ld.ContinuousJoint(ld.BivariateNormal(r).joint_density, ld.standard_normal_pdf,
                              ld.standard_normal_pdf, (-40.0, 40.0, -40.0, 40.0))


# families that declare no reflection, with their MI in closed form and the
# (value, abs_error_estimate, n_evals, n_cells) they give: they integrate the
# whole box, and n_evals and n_cells are those they gave before the fold existed
UNFOLDED = {
    "wide-0.6": (_wide_box_bvn(0.6), 0.6,
                 (0.22314355131395341, 9.925268771980276e-07, 22968, 299)),
    "wide-0.9": (_wide_box_bvn(0.9), 0.9,
                 (0.8303656034097274, 9.990741972300213e-07, 45472, 590)),
    "independent": (ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf), 0.0,
                    (4.9198177643744886e-18, 4.919817636578364e-18, 232, 4)),
    "view-0.6": (ld.as_continuous(ld.BivariateNormal(0.6)), 0.6,
                 (0.22314355131395308, 9.925268768649607e-07, 22736, 295)),
    "view-0.99": (ld.as_continuous(ld.BivariateNormal(0.99)), 0.99,
                  (1.9585177736405386, 9.971520493917322e-07, 161936, 2095)),
}


@pytest.mark.parametrize("name", sorted(UNFOLDED))
def test_undeclared_families_keep_their_bits(name):
    dist, r, pin = UNFOLDED[name]
    report = ld.mi_continuous(dist)
    assert (report.value, report.abs_error_estimate, report.n_evals, report.n_cells) == pin
    assert report.value == pytest.approx(ld.mi_bvn_closed_form(r).value, abs=1e-3)  # C02


class TestMalformedQuadratureArguments:
    @pytest.mark.parametrize("kwargs", [{"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf},
                                        {"budget": 0}, {"budget": -5}])
    def test_mi_continuous_refuses(self, kwargs):
        with pytest.raises(ValueError):
            ld.mi_continuous(ld.BivariateNormal(0.6), **kwargs)

    @pytest.mark.parametrize("kwargs", [{"tol": math.nan}, {"tol": -1.0}, {"tol": math.inf},
                                        {"budget": 0}])
    def test_mi_curve_refuses(self, kwargs):
        """A NaN tolerance stopped the heap at once: 0.6115, not 0.6208."""
        with pytest.raises(ValueError):
            ld.mi_curve(named_curve("curve-normal-identity"), **kwargs)

    def test_zero_tolerance_spends_the_budget(self):
        report = ld.mi_continuous(ld.BivariateNormal(0.6), tol=0.0, budget=20_000)
        assert report.budget_exhausted
        assert report.value == pytest.approx(ld.mi_bvn_closed_form(0.6).value, abs=1e-9)


class TestConvergenceCounterexample:
    def test_standard_schedule(self):
        report = ld.convergence_counterexample([0.9, 0.99, 0.999])
        mis = [row[1] for row in report.rows]
        assert mis == pytest.approx(
            [0.8303656034108255, 1.9585177736258443, 3.1075541117319436], abs=1e-9
        )
        assert report.limit_mi == pytest.approx(MI_CURVE_NORMAL_ID, abs=1e-6)
        assert all(row[2] for row in report.rows)

    def test_not_yet_exceeding(self):
        report = ld.convergence_counterexample([0.6])
        assert report.rows[0][1] == pytest.approx(0.22314355131420974, abs=1e-12)
        assert report.rows[0][2] is False

    def test_empty_schedule(self):
        report = ld.convergence_counterexample([])
        assert report.rows == ()
        assert report.limit_mi == pytest.approx(MI_CURVE_NORMAL_ID, abs=1e-6)

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            ld.convergence_counterexample([0.9, 0.8])

    def test_schedule_must_be_valid_correlation(self):
        with pytest.raises(ld.DegenerateCorrelation):
            ld.convergence_counterexample([0.9, 1.0])

    def test_closed_form_monotone_unbounded_vs_finite_limit(self):
        rs = np.linspace(0.9, 0.999999, 25)
        mis = [ld.mi_bvn_closed_form(r).value for r in rs]
        assert all(b > a for a, b in zip(mis[:-1], mis[1:]))
        assert mis[-1] > 6.0  # grows without bound as r -> 1
        limit = ld.convergence_counterexample([]).limit_mi
        assert math.isfinite(limit)

    def test_csv_format(self):
        report = ld.convergence_counterexample([0.9, 0.99])
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "r,mi,limit_mi,exceeds"
        assert len(lines) == 3
        assert lines[1].endswith(",true")


class TestMiInvariants:
    def test_nonnegativity_random_pmfs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            pmf = oracles.random_pmf(rng, 3, 4, zero_fraction=0.3)
            dist = ld.DiscreteJoint(np.arange(3.0), np.arange(4.0), pmf)
            assert ld.mi_discrete(dist).value >= -1e-6

    def test_zero_iff_independent(self, indep_pmf, dep_pmf):
        assert abs(ld.mi_discrete(indep_pmf).value) <= 1e-6
        assert ld.mi_discrete(dep_pmf).value >= 0.01
        indep = ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf)
        assert abs(ld.mi_continuous(indep).value) <= 1e-6
        assert ld.mi_continuous(ld.BivariateNormal(0.3)).value >= 0.01

    def test_report_fields_and_json(self):
        report = ld.mi_bvn_closed_form(0.6)
        buf = io.StringIO()
        write_json(buf, report.to_dict())
        payload = json.loads(buf.getvalue())
        assert set(payload) == {"value", "method", "abs_error_estimate", "n_evals"}
        assert payload["method"] == "ClosedForm"
        assert payload["value"] == report.value

    def test_negative_exact_mi_rejected(self):
        with pytest.raises(ValueError, match="exact mutual information cannot be negative"):
            ld.MiReport(-1.0, MiMethod.EXACT_SUM, 0.0, 1)

    def test_negative_error_estimate_rejected(self):
        with pytest.raises(ValueError):
            ld.MiReport(0.5, MiMethod.QUADRATURE, -1.0, 10)
