"""Lift evaluation, Sibuya's ratio, grids, regions, and the property suite."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liftdep as ld
from liftdep import distributions
from liftdep.lift import RegionLabel

import oracles


class TestDiscreteLift:
    def test_independent_outer_product(self, indep_pmf):
        field = ld.lift_grid(indep_pmf, indep_pmf.x_support, indep_pmf.y_support)
        np.testing.assert_allclose(field.values, 1.0)
        assert all(lab == RegionLabel.NEUTRAL for lab in field.labels.ravel())

    def test_dependent_fixture(self, dep_pmf):
        field = ld.lift_grid(dep_pmf, dep_pmf.x_support, dep_pmf.y_support)
        expected = oracles.brute_lift_table(dep_pmf.pmf)
        np.testing.assert_allclose(field.values, expected)
        np.testing.assert_allclose(field.values, [[1.6, 0.4], [0.4, 1.6]])

    def test_degenerate_single_cell(self):
        dist = ld.DiscreteJoint([0.0], [0.0], [[1.0]])
        field = ld.lift_grid(dist, dist.x_support, dist.y_support)
        assert field.values[0, 0] == 1.0
        assert field.labels[0, 0] == RegionLabel.NEUTRAL

    def test_zero_marginal_is_undefined(self):
        dist = ld.DiscreteJoint([0.0, 1.0], [0.0, 1.0], [[0.5, 0.5], [0.0, 0.0]])
        field = ld.lift_grid(dist, dist.x_support, dist.y_support)
        assert field.labels[1, 0] == RegionLabel.UNDEFINED
        assert field.labels[1, 1] == RegionLabel.UNDEFINED
        assert np.isnan(field.values[1, 0])

    @pytest.mark.parametrize("point", [(math.inf, 0.0), (0.0, -math.inf), (math.inf, math.inf)])
    def test_lift_at_an_infinite_label_is_out_of_support(self, dep_pmf, point):
        # it raised ValueError; the finite off-support labels are in the property suite
        with pytest.raises(ld.OutOfSupport):
            ld.lift_at(dep_pmf, point)

    def test_lift_at_a_zero_marginal_label_is_undefined(self):
        dist = ld.DiscreteJoint([0.0, 1.0], [0.0, 1.0], [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ld.UndefinedAtPoint):
            ld.lift_at(dist, (1.0, 0.0))


@pytest.mark.parametrize("law", ["dep_pmf", "normal_identity_curve", "bvn", "cauchy"])
@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan)])
def test_lift_at_nan_is_a_value_error_for_every_class(request, law, point):
    named = {"bvn": ld.BivariateNormal(0.6), "cauchy": ld.CircularCauchy()}
    dist = named[law] if law in named else request.getfixturevalue(law)
    with pytest.raises(ValueError, match="NaN"):
        ld.lift_at(dist, point)


@pytest.mark.parametrize("fn", [ld.lift_at, ld.sibuya_omega_at], ids=["lift", "sibuya"])
@pytest.mark.parametrize(
    "point",
    [(0.0, 0.0, 5.0), (0.0,), np.zeros((1, 2)), 0.5, (1j, 0.0), [[0.0, 1.0], [2.0]]],
    ids=["three", "one", "row", "scalar", "complex", "ragged"],
)
def test_a_point_that_is_not_a_pair_is_a_value_error(fn, point):
    # a third coordinate was dropped (lift 1.25, omega 1.4097 at the origin),
    # one coordinate raised IndexError, and a (1, 2) array and a complex
    # coordinate TypeError
    with pytest.raises(ValueError, match="point must be a pair of numbers"):
        fn(ld.BivariateNormal(0.6), point)


class TestContinuousLiftAt:
    def test_independent_bvn(self):
        for pt in [(0.0, 0.0), (1.3, -2.1), (3.0, 3.0)]:
            assert ld.lift_at(ld.BivariateNormal(0.0), pt) == pytest.approx(1.0)

    def test_bvn_origin_closed_form_and_ratio(self):
        dist = ld.BivariateNormal(0.6)
        assert ld.lift_at(dist, (0.0, 0.0)) == pytest.approx(1.25, abs=1e-12)
        # cross-check against the plain density ratio
        ratio = dist.joint_density(0.0, 0.0) / (
            oracles.normal_pdf(0.0) * oracles.normal_pdf(0.0)
        )
        assert ratio == pytest.approx(1.25, abs=1e-12)

    def test_bvn_matches_density_ratio_at_probe_points(self):
        dist = ld.BivariateNormal(0.6)
        for x, y in [(0.5, 0.5), (-1.0, 2.0), (2.5, -0.5)]:
            ratio = dist.joint_density(x, y) / (
                oracles.normal_pdf(x) * oracles.normal_pdf(y)
            )
            assert ld.lift_at(dist, (x, y)) == pytest.approx(ratio, rel=1e-12)

    def test_circular_cauchy_origin(self):
        # marginal check by numeric y-integration: it must be standard Cauchy
        marg = oracles.quad_1d(
            lambda y: 1 / (2 * math.pi * (1 + 0.0 + y * y) ** 1.5), -np.inf, np.inf
        )
        assert marg == pytest.approx(1 / math.pi, rel=1e-10)
        assert ld.lift_at(ld.CircularCauchy(), (0.0, 0.0)) == pytest.approx(
            math.pi / 2, rel=1e-12
        )

    def test_undefined_when_marginal_vanishes(self):
        dist = ld.IndependentProduct(
            ld.uniform_pdf(0.0, 1.0), ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)
        )
        with pytest.raises(ld.UndefinedAtPoint):
            ld.lift_at(dist, (2.0, 0.5))


class TestCurveLiftAt:
    def test_normal_identity_on_curve(self, normal_identity_curve):
        assert ld.lift_at(normal_identity_curve, (0.0, 0.0)) == pytest.approx(
            1.1283791670955123, rel=1e-9
        )

    def test_off_curve_is_zero(self, normal_identity_curve):
        assert ld.lift_at(normal_identity_curve, (0.0, 1.0)) == 0.0
        # y = x at x = 9 lies beyond the branch domain [-8, 8]
        assert ld.lift_at(normal_identity_curve, (9.0, 9.0)) == 0.0

    def test_undefined_where_y_marginal_vanishes(self, uniform_identity_curve):
        curve = dataclasses.replace(uniform_identity_curve, marginal_y=ld.uniform_pdf(0.0, 0.5))
        assert ld.lift_at(curve, (0.25, 0.25)) == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)))
        with pytest.raises(ld.UndefinedAtPoint):
            ld.lift_at(curve, (0.75, 0.75))

    def test_two_branch_mixture(self, tent_curve):
        assert ld.lift_at(tent_curve, (0.25, 0.25)) == pytest.approx(
            0.22507907903927651, rel=1e-8
        )

    def test_branch_tie_breaks_to_smallest_index(self, tent_curve):
        # at x = 0.5 both branches pass through y = 0.5; branch 0 wins
        val = ld.lift_at(tent_curve, (0.5, 0.5))
        assert val == pytest.approx(0.22507907903927651, rel=1e-8)
        # weights 1/4 and 3/4 keep Y uniform but give the branches different
        # lifts 2 a_n / (pi sqrt 2), so the winner shows
        up, down = tent_curve.branches
        skewed = ld.CurveSingularJoint(
            tent_curve.marginal_x,
            (0.0, 1.0),
            (dataclasses.replace(up, weight=0.25), dataclasses.replace(down, weight=0.75)),
        )
        assert ld.lift_at(skewed, (0.5, 0.5)) == pytest.approx(
            0.5 / (math.pi * math.sqrt(2.0)), rel=1e-12
        )


class TestSibuyaOmega:
    def test_independent_product_is_one(self):
        dist = ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf)
        for pt in [(0.0, 0.0), (1.0, -1.0), (-2.0, 0.5)]:
            assert ld.sibuya_omega_at(dist, pt) == pytest.approx(1.0, abs=1e-6)

    def test_bvn_origin_orthant_oracle(self):
        expected = oracles.bvn_orthant_lower(0.6) / 0.25
        assert ld.sibuya_omega_at(ld.BivariateNormal(0.6), (0.0, 0.0)) == pytest.approx(
            expected, rel=1e-6
        )
        assert expected == pytest.approx(1.409665529398267, rel=1e-12)

    def test_bvn_deep_tail_quadrant_dependence(self):
        # far in the lower-left tail, omega is large even though the lift
        # region structure is pointwise; quadrant dependence contrasts props
        val = ld.sibuya_omega_at(ld.BivariateNormal(0.6), (-6.0, -6.0))
        assert val > 1.0

    @pytest.mark.parametrize("t", [-6.0, -7.0, -7.5])
    def test_bvn_lower_tail_is_the_truncated_box_ratio(self, t):
        """A ContinuousJoint view of the bivariate normal declares no
        conditional CDF, so its CDFs are those of the law truncated to the
        [-8, 8]^2 box: near the -8 edge omega is 4.6e-5 to 11% below the
        untruncated ratio, and the truncated ratio itself comes out to 1e-9."""
        from scipy.special import ndtr

        r, s = 0.6, math.sqrt(1 - 0.36)
        f = oracles.quad_1d(
            lambda u: oracles.normal_pdf(u) * (ndtr((t - r * u) / s) - ndtr((-8.0 - r * u) / s)),
            -8.0, t, epsabs=0.0, epsrel=1e-12, limit=200,
        )
        g = ndtr(t) - ndtr(-8.0)
        view = ld.as_continuous(ld.BivariateNormal(r))
        assert ld.sibuya_omega_at(view, (t, t)) == pytest.approx(f / (g * g), rel=1e-9)

    @pytest.mark.parametrize("t", [-6.0, -7.0, -7.5, -10.0])
    def test_bvn_lower_tail_matches_the_untruncated_oracle(self, t):
        """The bivariate normal integrates its conditional CDF over the whole
        line: omega on the diagonal, up to ~1e17 at -10, to 1e-10 relative of
        Owen's formula in mpmath."""
        want = oracles.bvn_sibuya_mp(0.6, t, t)
        assert ld.sibuya_omega_at(ld.BivariateNormal(0.6), (t, t)) == pytest.approx(
            want, rel=1e-10
        )

    @pytest.mark.parametrize("t", [-15.0, -20.0, -25.0])
    def test_bvn_far_diagonal_is_exact_or_undefined(self, t):
        """omega reaches 2e102 at -25; a value is within 1e-10 of the oracle, or
        the point raises UndefinedAtPoint, never a wrong number."""
        try:
            got = ld.sibuya_omega_at(ld.BivariateNormal(0.6), (t, t))
        except ld.UndefinedAtPoint:
            return
        assert got == pytest.approx(oracles.bvn_sibuya_mp(0.6, t, t), rel=1e-10)

    SEEDED_POINTS = [
        *map(tuple, np.random.default_rng(832).uniform(-3.0, 3.0, (20, 2)).tolist()),
        (3.0, -12.0),
        (-12.0, 3.0),
    ]

    @pytest.mark.parametrize("name", ["bvn", "cauchy"])
    def test_conditional_ratio_is_exact_in_few_evaluations(self, name, monkeypatch):
        """Over 20 seeded points in [-3, 3]^2 and two points whose mass sits
        far from x, omega is within 1e-10 relative of the oracle (Owen's
        formula for the bivariate normal, the closed-form CDF ratio for the
        Cauchy), each call at most 2,000 nodes of 1D quadrature and no 2D."""
        from liftdep import distributions as dm

        evals, quad_1d = [], dm.adaptive_quad_1d

        def counted(*args, **kwargs):
            result = quad_1d(*args, **kwargs)
            evals.append(result.n_evals)
            return result

        monkeypatch.setattr(dm, "adaptive_quad_1d", counted)
        monkeypatch.setattr(dm, "adaptive_quad_2d", None)
        dist = ld.BivariateNormal(0.6) if name == "bvn" else ld.CircularCauchy()
        for x, y in self.SEEDED_POINTS:
            if name == "bvn":
                want = oracles.bvn_sibuya_mp(0.6, x, y)
            else:
                want = oracles.circular_cauchy_cdf(x, y) / (
                    oracles.cauchy_cdf(x) * oracles.cauchy_cdf(y)
                )
            evals.clear()
            assert ld.sibuya_omega_at(dist, (x, y)) == pytest.approx(want, rel=1e-10)
            assert 0 < sum(evals) <= 2000

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
    def test_circular_cauchy_matches_closed_form_cdf(self, x, y):
        want = oracles.circular_cauchy_cdf(x, y) / (oracles.cauchy_cdf(x) * oracles.cauchy_cdf(y))
        assert ld.sibuya_omega_at(ld.CircularCauchy(), (x, y)) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("x,y", [(0.5, 1.5), (-2.0, 3.0), (-7.0, -9.0)])
    def test_circular_cauchy_cdf_oracle_matches_quadpack(self, x, y):
        """The closed-form F against F = int_{-inf}^x rho_X(t) P(Y <= y | X = t) dt,
        with conditional CDF (1 + y / sqrt(1 + t^2 + y^2)) / 2."""
        f = oracles.quad_1d(
            lambda t: 0.5 * (1.0 + y / math.sqrt(1.0 + t * t + y * y)) / (math.pi * (1.0 + t * t)),
            -math.inf, x, epsabs=0.0, epsrel=1e-12, limit=200,
        )
        assert oracles.circular_cauchy_cdf(x, y) == pytest.approx(f, abs=1e-15)

    def test_discrete_partial_sums(self, dep_pmf):
        # F(0,0)=0.4, G=H=0.5
        assert ld.sibuya_omega_at(dep_pmf, (0.0, 0.0)) == pytest.approx(1.6)
        with pytest.raises(ld.UndefinedAtPoint):
            ld.sibuya_omega_at(dep_pmf, (-1.0, 0.0))

    @pytest.mark.parametrize(
        "point", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)], ids=["x", "y", "xy"]
    )
    @pytest.mark.parametrize("name", ["bvn", "cauchy", "discrete", "curve"])
    def test_nan_coordinate_is_rejected_up_front(
        self, name, point, dep_pmf, uniform_identity_curve
    ):
        dist = {
            "bvn": ld.BivariateNormal(0.6),
            "cauchy": ld.CircularCauchy(),
            "discrete": dep_pmf,
            "curve": uniform_identity_curve,
        }[name]
        with pytest.raises(ValueError, match=re.escape(f"({point[0]}, {point[1]})")):
            ld.sibuya_omega_at(dist, point)

    @pytest.mark.parametrize("point", [(math.inf, math.inf), (math.inf, 0.3), (-0.4, math.inf)])
    def test_infinite_coordinate_is_a_full_marginal(self, point):
        """F(inf, y) = H(y) and F(x, inf) = G(x), so omega is 1 there."""
        assert ld.sibuya_omega_at(ld.BivariateNormal(0.6), point) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "point", [(-9.0, 0.0), (0.0, -9.0), (-8.0, 1.0), (1.0, -8.0), (-math.inf, 0.0)]
    )
    def test_bvn_point_left_of_or_below_the_box_is_undefined(self, point):
        """A ContinuousJoint view has G or H = 0 at or beyond the -8 edge of
        its box."""
        with pytest.raises(ld.UndefinedAtPoint):
            ld.sibuya_omega_at(ld.as_continuous(ld.BivariateNormal(0.6)), point)

    @pytest.mark.parametrize("point", [(-9.0, 0.0), (0.0, -9.0), (-8.0, 1.0), (1.0, -8.0)])
    def test_bvn_point_beyond_the_box_edge_matches_the_oracle(self, point):
        """The bivariate normal takes G and H from Phi, so points beyond the
        -8 edge of its box are defined."""
        want = oracles.bvn_sibuya_mp(0.6, *point)
        assert ld.sibuya_omega_at(ld.BivariateNormal(0.6), point) == pytest.approx(
            want, rel=1e-10
        )

    def test_bvn_minus_infinite_coordinate_is_undefined(self):
        with pytest.raises(ld.UndefinedAtPoint):
            ld.sibuya_omega_at(ld.BivariateNormal(0.6), (-math.inf, 0.0))

    def test_curve_singular_omega(self, uniform_identity_curve):
        # F(x,y) = min(x, y), G(x) = x, H(y) = y on [0,1]
        for x, y in [(0.5, 0.5), (0.3, 0.8), (0.9, 0.2)]:
            expected = min(x, y) / (x * y)
            assert ld.sibuya_omega_at(uniform_identity_curve, (x, y)) == pytest.approx(
                expected, rel=1e-6
            )

    @pytest.mark.parametrize("x,y", [(-0.5, 0.49), (0.3, 0.25), (0.9, 0.04), (-0.2, 0.81)])
    def test_curve_singular_omega_on_a_decreasing_piece(self, x, y):
        """X ~ U(-1, 1), Y = X^2: on the decreasing piece [-1, 0] the sublevel
        set {phi <= y} is [-sqrt(y), 0]. F = max(0, min(x, sqrt y) + sqrt y) / 2,
        G = (x + 1) / 2 and H = sqrt(y), matched to the last bit."""
        branch = ld.CurveBranch(
            phi=lambda t: np.asarray(t, dtype=float) ** 2,
            dphi=lambda t: 2.0 * np.asarray(t, dtype=float),
            domain=(-1.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(-1.0, 1.0), (-1.0, 1.0), (branch,))
        s = math.sqrt(y)
        want = max(0.0, min(x, s) + s) / 2 / (((x + 1) / 2) * s)
        assert ld.sibuya_omega_at(dist, (x, y)) == want

    def test_conditional_route_beyond_the_largest_coordinate_is_undefined(self):
        with pytest.raises(ld.UndefinedAtPoint, match=r"lies beyond 1e\+100"):
            ld.sibuya_omega_at(ld.BivariateNormal(0.6), (1e101, 0.0))

    def test_underflowing_joint_cdf_is_undefined(self):
        """G = Phi(-37) ~ 5.7e-300 and H = 1/2 are in range, but with r = -0.6
        F(-37, 0) is far below DENSITY_FLOOR."""
        with pytest.raises(ld.UndefinedAtPoint, match="underflows"):
            ld.sibuya_omega_at(ld.BivariateNormal(-0.6), (-37.0, 0.0))

    def test_half_lines_that_miss_mass_are_undefined(self, monkeypatch):
        """At r = 0 the point x = 0 is the mode of rho_X(s) C(y | s), so both
        half lines are integrated. A family whose cdf_y is 0.9 of its
        conditional law's makes their sum 1/0.9, past SIBUYA_MASS_TOL."""

        @dataclasses.dataclass(frozen=True, eq=False)
        class MisdeclaredCdfY(ld.BivariateNormal):
            def cdf_y(self, y):
                return 0.9 * ld.standard_normal_cdf(y)

        assert ld.sibuya_omega_at(ld.BivariateNormal(0.0), (0.0, 0.5)) == pytest.approx(1.0)
        with pytest.raises(ld.UndefinedAtPoint, match="misses mass"):
            ld.sibuya_omega_at(MisdeclaredCdfY(0.0), (0.0, 0.5))
        # the mass check, and nothing else, refuses it
        monkeypatch.setattr(distributions, "SIBUYA_MASS_TOL", 0.2)
        assert math.isfinite(ld.sibuya_omega_at(MisdeclaredCdfY(0.0), (0.0, 0.5)))

    def test_curve_singular_omega_with_a_piece_above_y(self):
        """X ~ U(0, 1) on Y = X or, with the same weight, Y = X + 2: at y = 1.5
        the second branch lies wholly above y, so F = x / 2, G = x, H = 1/2."""
        up = ld.CurveBranch(phi=lambda t: np.asarray(t, dtype=float),
                            dphi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                            domain=(0.0, 1.0), weight=0.5)
        high = ld.CurveBranch(phi=lambda t: np.asarray(t, dtype=float) + 2.0,
                              dphi=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                              domain=(0.0, 1.0), weight=0.5)
        dist = ld.CurveSingularJoint(ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (up, high))
        for x in (0.3, 0.8, 1.0):
            f_joint, g, h = dist.sibuya_parts(x, 1.5)
            assert (f_joint, g, h) == pytest.approx((x / 2, x, 0.5), rel=1e-12)
            assert ld.sibuya_omega_at(dist, (x, 1.5)) == pytest.approx(1.0, rel=1e-12)

    def test_generic_route_exits_before_its_integral_where_g_h_underflows(self, monkeypatch):
        """On [-40, 40]^2, G = H ~ 3.7e-198 at (-30, -30) are above
        DENSITY_FLOOR, but G * H underflows: the box route refuses the point
        without its 2D integral, as the conditional route does."""
        calls = []
        quad = distributions.adaptive_quad_2d

        def counted(*args, **kw):
            calls.append(args)
            return quad(*args, **kw)

        monkeypatch.setattr(distributions, "adaptive_quad_2d", counted)
        dist = ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf,
                                     (-40.0, 40.0), (-40.0, 40.0))
        with pytest.raises(ld.UndefinedAtPoint, match=r"G\(x\) H\(y\) vanishes"):
            ld.sibuya_omega_at(dist, (-30.0, -30.0))
        assert calls == []

    def test_underflowing_marginal_product_is_undefined(self):
        """G = H = 1e-200 at (0, 0) are positive, but G * H underflows to 0."""
        dist = ld.DiscreteJoint([0.0, 1.0], [0.0, 1.0], [[1e-200, 0.0], [0.0, 1.0]])
        with pytest.raises(ld.UndefinedAtPoint):
            ld.sibuya_omega_at(dist, (0.0, 0.0))
        assert ld.sibuya_omega_at(dist, (1.0, 1.0)) == 1.0


class TestLiftGrid:
    def test_bvn_band_structure(self):
        gx = np.linspace(-4, 4, 81)
        field = ld.lift_grid(ld.BivariateNormal(0.6), gx, gx)
        lift_cells = field.values > 1 + field.tol
        xx, yy = np.meshgrid(gx, gx, indexing="ij")
        # the diagonal lifts, the antidiagonal inhibits
        assert all(field.values[i, i] > 1 for i in range(81))
        assert field.values[0, -1] < 1 and field.values[-1, 0] < 1
        assert np.mean(np.abs(yy - xx)[lift_cells] < 2) > 0.9

    def test_labels_compare_against_region_label(self):
        gx = np.linspace(-4, 4, 41)
        field = ld.lift_grid(ld.BivariateNormal(0.6), gx, gx)
        lift_cells = field.labels == RegionLabel.LIFT
        assert lift_cells.any()
        np.testing.assert_array_equal(lift_cells, field.values > 1 + field.tol)
        np.testing.assert_array_equal(lift_cells, field.labels == "Lift")

    def test_cauchy_corners_lift(self):
        gx = np.linspace(-4, 4, 41)
        field = ld.lift_grid(ld.CircularCauchy(), gx, gx)
        for i, j in [(0, 0), (0, -1), (-1, 0), (-1, -1)]:
            assert field.labels[i, j] == RegionLabel.LIFT

    def test_independent_grid_all_neutral_exactly_one(self):
        dist = ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf)
        gx = np.linspace(-3, 3, 31)
        field = ld.lift_grid(dist, gx, gx)
        assert np.all(field.values == 1.0)
        assert all(lab == RegionLabel.NEUTRAL for lab in field.labels.ravel())

    def test_discrete_grid_marks_off_support_undefined(self, dep_pmf):
        field = ld.lift_grid(dep_pmf, np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]))
        assert field.labels[1, 0] == RegionLabel.UNDEFINED
        assert field.values[0, 0] == pytest.approx(1.6)

    def test_curve_grid_hits_curve_points(self, uniform_identity_curve):
        g = np.linspace(0.0, 1.0, 11)
        field = ld.lift_grid(uniform_identity_curve, g, g)
        on_diag = np.diag(field.values)
        assert np.all(on_diag > 0)
        off = field.values[~np.eye(11, dtype=bool)]
        assert np.all(off == 0.0)
        assert field.labels[0, 5] == RegionLabel.ZERO

    def test_a_field_owns_its_grids(self, dep_pmf):
        # the field held the caller's arrays, so writing to the field of the
        # support grid rewrote the law's support
        gx = np.linspace(-1.0, 1.0, 5)
        assert ld.lift_grid(ld.BivariateNormal(0.6), gx, gx).grid_x is not gx
        support = dep_pmf.x_support.copy(), dep_pmf.y_support.copy()
        field = ld.lift_grid(dep_pmf, dep_pmf.x_support, dep_pmf.y_support)
        field.grid_x[:] = field.grid_y[:] = 7.0
        np.testing.assert_array_equal(dep_pmf.x_support, support[0])
        np.testing.assert_array_equal(dep_pmf.y_support, support[1])

    def test_grid_must_increase(self, dep_pmf):
        with pytest.raises(ValueError):
            ld.lift_grid(dep_pmf, np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize(
        "grid_x,grid_y",
        [
            ([0.0, math.nan, 1.0], [0.0]),
            ([0.0, 1.0], [math.nan, 1.0]),
            ([math.nan], [0.0]),
            ([0.0], [math.nan]),
        ],
    )
    def test_nan_grid_value_is_rejected(self, grid_x, grid_y, dep_pmf):
        for dist in (ld.BivariateNormal(0.6), dep_pmf):
            with pytest.raises(ValueError, match="NaN"):
                ld.lift_grid(dist, grid_x, grid_y)

    @pytest.mark.parametrize(
        "grid_x,grid_y",
        [([[0.0, 1.0], [2.0, 3.0]], [0.0, 1.0]), ([0.0, 1.0], [[0.0], [1.0]]), (0.5, [0.0, 1.0])],
        ids=["2d-x", "2d-y", "0d-x"],
    )
    def test_grid_axes_must_be_1d(self, grid_x, grid_y, dep_pmf):
        # a 2D axis gave values of shape (2, 1, 2), a 0D one raised IndexError
        for dist in (ld.BivariateNormal(0.6), dep_pmf):
            with pytest.raises(ValueError, match="grids must be 1D"):
                ld.lift_grid(dist, grid_x, grid_y)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_tol_must_be_positive_and_finite(self, tol, dep_pmf):
        # a NaN or infinite tolerance used to label every cell Neutral
        grid = np.linspace(-2.0, 2.0, 5)
        for dist in (ld.BivariateNormal(0.6), dep_pmf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                ld.lift_grid(dist, grid, grid, tol=tol)


class TestRegionSummary:
    def test_independent_product(self):
        dist = ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf)
        summary = ld.region_summary(dist)
        assert summary.mass_lift == 0.0
        assert summary.mass_inhibit == 0.0
        assert summary.mass_neutral == pytest.approx(1.0)

    def test_discrete_fixture_masses(self, dep_pmf):
        summary = ld.region_summary(dep_pmf)
        assert summary.mass_lift == pytest.approx(0.5)
        assert summary.mass_inhibit == pytest.approx(0.5)
        assert summary.mass_neutral == pytest.approx(0.0, abs=1e-12)

    def test_bvn_both_regions_nontrivial(self):
        summary = ld.region_summary(ld.BivariateNormal(0.6))
        assert 0.0 < summary.mass_lift < 1.0
        assert 0.0 < summary.mass_inhibit < 1.0
        total = summary.mass_lift + summary.mass_inhibit + summary.mass_neutral
        assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_tol_must_be_positive_and_finite(self, tol, dep_pmf):
        for dist in (ld.BivariateNormal(0.6), dep_pmf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                ld.region_summary(dist, tol=tol)


class TestPropertySuite:
    """Structural facts about the lift function, checked numerically."""

    def test_normalization_discrete(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            pmf = oracles.random_pmf(rng, 4, 5, zero_fraction=0.2)
            dist = ld.DiscreteJoint(np.arange(4.0), np.arange(5.0), pmf)
            field = ld.lift_grid(dist, dist.x_support, dist.y_support)
            weights = np.outer(dist.p_x, dist.p_y)
            defined = ~np.isnan(field.values)
            total = float((field.values[defined] * weights[defined]).sum())
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_normalization_continuous(self):
        dist = ld.BivariateNormal(0.6)
        total = oracles.quad_2d(
            lambda x, y: ld.lift_at(dist, (x, y))
            * oracles.normal_pdf(x)
            * oracles.normal_pdf(y),
            -8,
            8,
            -8,
            8,
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("x,b", [(-1.0, 0.0), (0.5, 1.5)])
    def test_conditional_cdf_identity(self, r, x, b):
        # integrating L(x, .) against the Y marginal reproduces the
        # conditional CDF of Y given X = x
        dist = ld.BivariateNormal(r)
        val = oracles.quad_1d(
            lambda y: ld.lift_at(dist, (x, y)) * oracles.normal_pdf(y), -8.0, b
        )
        expected = oracles.normal_cdf((b - r * x) / math.sqrt(1 - r * r))
        assert val == pytest.approx(expected, abs=1e-4)

    def test_independence_iff_unit_lift_forward(self, indep_pmf):
        field = ld.lift_grid(indep_pmf, indep_pmf.x_support, indep_pmf.y_support)
        np.testing.assert_array_equal(field.values, np.ones((2, 2)))

    def test_independence_iff_unit_lift_converse(self):
        rng = np.random.default_rng(7)
        px = oracles.random_pmf(rng, 3, 1).ravel()
        py = oracles.random_pmf(rng, 4, 1).ravel()
        dist = ld.DiscreteJoint(np.arange(3.0), np.arange(4.0), np.outer(px, py))
        field = ld.lift_grid(dist, dist.x_support, dist.y_support)
        assert all(lab == RegionLabel.NEUTRAL for lab in field.labels.ravel())
        # all-neutral exact field implies product structure on rectangles
        for a, b in [((0, 1), (0, 2)), ((1, 2), (1, 3)), ((0, 2), (2, 3))]:
            rows, cols = slice(a[0], a[1] + 1), slice(b[0], b[1] + 1)
            mu_rect = dist.pmf[rows, cols].sum()
            prod = dist.p_x[rows].sum() * dist.p_y[cols].sum()
            assert mu_rect == pytest.approx(prod, abs=1e-6)

    @pytest.mark.parametrize("r", [0.2, 0.6, -0.5])
    def test_dependent_masses_in_open_interval(self, r):
        summary = ld.region_summary(ld.BivariateNormal(r))
        assert 0.0 < summary.mass_lift < 1.0
        assert 0.0 < summary.mass_inhibit < 1.0

    def test_dependent_discrete_masses(self, dep_pmf):
        summary = ld.region_summary(dep_pmf)
        assert 0.0 < summary.mass_lift < 1.0
        assert 0.0 < summary.mass_inhibit < 1.0

    @pytest.mark.parametrize("interval", [(-0.5, 0.5), (-1.5, 0.0), (0.3, 1.1)])
    def test_line_integral_identity_normal_identity(
        self, normal_identity_curve, interval
    ):
        # (pi/2) * integral of L rho_X rho_Y sqrt(1 + phi'^2) over x in [a,b]
        # recovers the X-marginal mass of [a,b]
        a, b = interval
        dist = normal_identity_curve

        def integrand(x):
            lift = ld.lift_at(dist, (x, x))
            return lift * oracles.normal_pdf(x) * oracles.normal_pdf(x) * math.sqrt(2.0)

        lhs = (math.pi / 2) * oracles.quad_1d(integrand, a, b)
        rhs = oracles.normal_cdf(b) - oracles.normal_cdf(a)
        assert lhs == pytest.approx(rhs, abs=1e-4)

    def test_line_integral_identity_uniform_square(self):
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(0.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(), (0.0, 1.0), (branch,))
        rho_y = ld.pushforward_density_fn(dist)

        def integrand(x):
            lift = ld.lift_at(dist, (x, x * x))
            return lift * 1.0 * rho_y(x * x) * math.sqrt(1 + 4 * x * x)

        lhs = (math.pi / 2) * oracles.quad_1d(integrand, 0.2, 0.7)
        assert lhs == pytest.approx(0.5, abs=1e-4)

    def test_steeper_slope_concentrates_less(self):
        # X ~ U[0,1]; phi_1 = 2x spreads mass over a longer curve than
        # phi_2 = x. Normalizing the Y marginal out of the lift (multiplying
        # by the pushforward density) leaves the pure concentration factor
        # 2 / (pi sqrt(1 + phi'^2)), which the shallower curve dominates.
        steep = ld.CurveSingularJoint(
            ld.uniform_pdf(),
            (0.0, 1.0),
            (
                ld.CurveBranch(
                    phi=lambda x: 2.0 * np.asarray(x, dtype=float),
                    dphi=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
                    domain=(0.0, 1.0),
                ),
            ),
        )
        shallow = ld.CurveSingularJoint(
            ld.uniform_pdf(),
            (0.0, 1.0),
            (
                ld.CurveBranch(
                    phi=lambda x: np.asarray(x, dtype=float),
                    dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                    domain=(0.0, 1.0),
                ),
            ),
        )
        rho_steep = ld.pushforward_density_fn(steep)
        rho_shallow = ld.pushforward_density_fn(shallow)
        for x in np.linspace(0.05, 0.95, 10):
            conc_steep = ld.lift_at(steep, (x, 2 * x)) * rho_steep(2 * x)
            conc_shallow = ld.lift_at(shallow, (x, x)) * rho_shallow(x)
            assert conc_shallow >= conc_steep
        # sanity: the factors are 2/(pi sqrt(2)) and 2/(pi sqrt(5))
        assert conc_shallow == pytest.approx(2 / (math.pi * math.sqrt(2)), rel=1e-9)
        assert conc_steep == pytest.approx(2 / (math.pi * math.sqrt(5)), rel=1e-9)


def _mixed_grid(data, labels):
    """A strictly increasing grid drawn from the labels, the midpoints between
    them and one point beyond each end."""
    mids = (labels[1:] + labels[:-1]) / 2
    pool = np.concatenate([labels, mids, [labels[0] - 1.0, labels[-1] + 1.0]])
    return np.sort(data.draw(st.lists(st.sampled_from(pool.tolist()), min_size=1, unique=True)))


# Fewer than eight labels a side: numpy then sums each marginal in order, so
# the loop oracles give the same bits.
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 7),
    ny=st.integers(1, 7),
    zero_fraction=st.sampled_from([0.0, 0.3, 0.7]),
    data=st.data(),
)
def test_discrete_members_match_brute_force(seed, nx, ny, zero_fraction, data):
    rng = np.random.default_rng(seed)
    pmf = oracles.random_pmf(rng, nx, ny, zero_fraction)
    xs = np.cumsum(rng.uniform(0.5, 2.0, nx))
    ys = np.cumsum(rng.uniform(0.5, 2.0, ny)) - 3.0
    dist = ld.DiscreteJoint(xs, ys, pmf)
    brute = oracles.brute_lift_table(pmf)
    assert not dist.lift_table.flags.writeable

    gx, gy = _mixed_grid(data, xs), _mixed_grid(data, ys)
    field = ld.lift_grid(dist, gx, gy)
    for i, x in enumerate(gx):
        for j, y in enumerate(gy):
            want = None
            if x in xs and y in ys:
                want = brute[int(np.flatnonzero(xs == x)[0])][int(np.flatnonzero(ys == y)[0])]
            if want is None:
                assert math.isnan(field.values[i, j])
                assert field.labels[i, j] == "Undefined"
            else:
                assert field.values[i, j] == want
                assert field.labels[i, j] == oracles.lift_label(want, ld.ANALYTIC_TOL)

    assert ld.mi_discrete(dist).value == pytest.approx(max(oracles.brute_mi(pmf), 0.0), abs=1e-12)

    px, py = [sum(row) for row in pmf.tolist()], [sum(col) for col in pmf.T.tolist()]
    lift_mass = inhibit_mass = 0.0
    for i in range(nx):
        for j in range(ny):
            if brute[i][j] is not None and brute[i][j] > 1.0 + ld.ANALYTIC_TOL:
                lift_mass += px[i] * py[j]
            if brute[i][j] is not None and brute[i][j] < 1.0 - ld.ANALYTIC_TOL:
                inhibit_mass += px[i] * py[j]
    summary = ld.region_summary(dist)
    assert summary.mass_lift == pytest.approx(lift_mass, abs=1e-12)
    assert summary.mass_inhibit == pytest.approx(inhibit_mass, abs=1e-12)

    x_off = data.draw(st.sampled_from([xs[0] - 1.0, xs[-1] + 1.0, *((xs[1:] + xs[:-1]) / 2)]))
    with pytest.raises(ld.OutOfSupport):
        ld.lift_at(dist, (x_off, ys[0]))
    with pytest.raises(ld.OutOfSupport):
        ld.lift_at(dist, (xs[0], ys[-1] + 1.0))


class TestLiftFieldCsv:
    def test_format(self, dep_pmf):
        field = ld.lift_grid(dep_pmf, dep_pmf.x_support, dep_pmf.y_support)
        buf = io.StringIO()
        field.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,y,L,label"
        assert lines[1].split(",") == ["0", "0", "1.6000000000000001", "Lift"]
        assert len(lines) == 1 + 4
