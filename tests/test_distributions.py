"""Distribution classes: densities, pushforwards, samplers, file formats."""

import io
import math

import numpy as np
import pytest

import liftdep as ld
from liftdep.quadrature import adaptive_quad_2d, core_tail_cells

import oracles


class TestDensityAt:
    def test_independent_product_at_origin(self):
        dist = ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf)
        assert ld.density_at(dist, (0.0, 0.0)) == pytest.approx(0.15915494309189535, abs=1e-15)

    def test_circular_cauchy_at_origin(self):
        assert ld.density_at(ld.CircularCauchy(), (0.0, 0.0)) == pytest.approx(
            0.15915494309189535, abs=1e-15
        )

    def test_discrete_lookup(self, dep_pmf):
        assert ld.density_at(dep_pmf, (0.0, 1.0)) == 0.1

    def test_discrete_out_of_support(self, dep_pmf):
        with pytest.raises(ld.OutOfSupport):
            ld.density_at(dep_pmf, (0.5, 1.0))

    def test_curve_singular_has_no_density(self, normal_identity_curve):
        with pytest.raises(ld.CurveSingularHasNoDensity):
            ld.density_at(normal_identity_curve, (0.0, 0.0))


class TestBvnDensity:
    def test_independence_case(self):
        assert ld.bvn_density(0.0, (0.0, 0.0)) == pytest.approx(1 / (2 * math.pi), abs=1e-15)

    def test_correlated_at_origin(self):
        assert ld.bvn_density(0.6, (0.0, 0.0)) == pytest.approx(0.1989436788648692, abs=1e-13)

    def test_correlated_off_origin(self):
        assert ld.bvn_density(0.6, (1.0, 1.0)) == pytest.approx(0.10648687774403313, abs=1e-13)

    def test_cross_check_numeric_normalization(self):
        # the closed form must integrate to one over a wide box
        total = oracles.quad_2d(lambda x, y: oracles.bvn_pdf(0.6, x, y), -9, 9, -9, 9)
        assert total == pytest.approx(1.0, abs=1e-8)
        assert ld.bvn_density(0.6, (0.7, -0.3)) == pytest.approx(
            oracles.bvn_pdf(0.6, 0.7, -0.3), rel=1e-12
        )

    def test_degenerate_correlation(self):
        with pytest.raises(ld.DegenerateCorrelation):
            ld.bvn_density(1.0, (0.0, 0.0))
        with pytest.raises(ld.DegenerateCorrelation):
            ld.BivariateNormal(-1.0)


class TestPushforwardDensity:
    def test_uniform_identity(self, uniform_identity_curve):
        for y in (0.1, 0.5, 0.9):
            assert ld.derive_pushforward_density(uniform_identity_curve, y) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_normal_identity(self, normal_identity_curve):
        for y in (-1.5, 0.0, 0.7):
            assert ld.derive_pushforward_density(normal_identity_curve, y) == pytest.approx(
                oracles.normal_pdf(y), rel=1e-9
            )

    def test_two_branch_tent(self, tent_curve):
        for y in (0.2, 0.5, 0.8):
            assert ld.derive_pushforward_density(tent_curve, y) == pytest.approx(1.0, abs=1e-9)

    def test_histogram_cross_check(self, tent_curve):
        pts = ld.sample(tent_curve, 200_000, seed=7)
        hist, _ = np.histogram(pts[:, 1], bins=10, range=(0, 1), density=True)
        assert np.max(np.abs(hist - 1.0)) < 0.05

    def test_square_branch_pushforward(self):
        # Y = X^2 with X ~ U[0,1]: rho_Y(y) = 1 / (2 sqrt(y))
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(0.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(), (0.0, 1.0), (branch,))
        for y in (0.04, 0.25, 0.81):
            assert ld.derive_pushforward_density(dist, y) == pytest.approx(
                0.5 / math.sqrt(y), rel=1e-8
            )

    def test_non_monotone_piece_declared(self):
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(-1.0, 1.0),
            breakpoints=(0.5,),  # wrong: dphi flips sign at 0, inside (-1, 0.5)
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(-1.0, 1.0), (-1.0, 1.0), (branch,))
        with pytest.raises(ld.NonMonotonePiece):
            ld.derive_pushforward_density(dist, 0.25)

    def test_parabola_with_detected_pieces(self):
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(-1.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(-1.0, 1.0), (-1.0, 1.0), (branch,))
        # two preimages +-sqrt(y), law of X^2 on U[-1,1]: rho_Y = 1/(2 sqrt(y))
        for y in (0.25, 0.64):
            assert ld.derive_pushforward_density(dist, y) == pytest.approx(
                0.5 / math.sqrt(y), rel=1e-6
            )

    def test_derivative_vanishes_at_fold(self):
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(-1.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(-1.0, 1.0), (-1.0, 1.0), (branch,))
        with pytest.raises(ld.DerivativeVanishes):
            ld.derive_pushforward_density(dist, 0.0)


class TestSample:
    def test_degenerate_pmf(self):
        dist = ld.DiscreteJoint([2.0], [3.0], [[1.0]])
        pts = ld.sample(dist, 50, seed=1)
        assert np.all(pts == [2.0, 3.0])

    def test_bvn_sample_correlation(self):
        pts = ld.sample(ld.BivariateNormal(0.99), 10_000, seed=0)
        r_hat = np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]
        assert 0.985 <= r_hat <= 0.995
        # independent reference sampler agrees on the estimator's behavior
        rng = np.random.default_rng(0)
        ref = rng.multivariate_normal([0, 0], [[1, 0.99], [0.99, 1]], size=10_000)
        r_ref = np.corrcoef(ref[:, 0], ref[:, 1])[0, 1]
        assert abs(r_hat - r_ref) < 0.005

    def test_curve_samples_lie_on_curve(self):
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(0.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(), (0.0, 1.0), (branch,))
        pts = ld.sample(dist, 1000, seed=3)
        assert np.max(np.abs(pts[:, 1] - pts[:, 0] ** 2)) <= 1e-12

    def test_deterministic_given_seed(self):
        a = ld.sample(ld.BivariateNormal(0.3), 100, seed=5)
        b = ld.sample(ld.BivariateNormal(0.3), 100, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_generic_continuous_not_sampleable(self):
        cont = ld.as_continuous(ld.BivariateNormal(0.0))
        with pytest.raises(ld.NotSampleable):
            ld.sample(cont, 10, seed=0)

    def test_invalid_n(self, dep_pmf):
        with pytest.raises(ValueError):
            ld.sample(dep_pmf, 0, seed=0)


class TestClassInvariants:
    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ld.DiscreteJoint([0.0], [0.0, 1.0], [[0.5, 0.4]])

    def test_pmf_nonnegative(self):
        with pytest.raises(ValueError):
            ld.DiscreteJoint([0.0, 1.0], [0.0], [[1.1], [-0.1]])

    @pytest.mark.parametrize(
        "x_support,y_support,pmf",
        [
            ([0.0, 1.0], [0.0], [[np.nan], [1.0]]),
            ([0.0, 1.0], [0.0], [[np.inf], [0.0]]),
            ([0.0, np.nan], [0.0], [[0.5], [0.5]]),
            ([0.0, 1.0], [-np.inf], [[0.5], [0.5]]),
        ],
        ids=["nan-pmf", "inf-pmf", "nan-x-label", "inf-y-label"],
    )
    def test_non_finite_input_rejected(self, x_support, y_support, pmf):
        with pytest.raises(ValueError, match="finite"):
            ld.DiscreteJoint(x_support, y_support, pmf)

    def test_branch_weights_sum_to_one(self):
        b1 = ld.CurveBranch(
            phi=lambda x: np.asarray(x, float),
            dphi=lambda x: np.ones_like(np.asarray(x, float)),
            domain=(0.0, 1.0),
            weight=0.7,
        )
        with pytest.raises(ValueError):
            ld.CurveSingularJoint(ld.uniform_pdf(), (0.0, 1.0), (b1,))

    def test_branch_derivative_is_consistent(self, tent_curve):
        # central differences of phi agree with dphi at probe points
        for branch in tent_curve.branches:
            xs = np.linspace(0.05, 0.95, 7)
            h = 1e-6
            fd = (branch.phi(xs + h) - branch.phi(xs - h)) / (2 * h)
            np.testing.assert_allclose(fd, branch.dphi(xs), rtol=1e-5)

    @pytest.mark.parametrize(
        "family",
        [
            ld.BivariateNormal(0.6),
            ld.CircularCauchy(),
            ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf),
        ],
        ids=["bvn", "cauchy", "indep"],
    )
    def test_density_normalization(self, family):
        cont = ld.as_continuous(family)
        res = adaptive_quad_2d(
            cont.joint_density, core_tail_cells(cont.integration_box), tol=1e-5
        )
        assert 1 - 1e-3 <= res.value <= 1 + 1e-3

    @pytest.mark.parametrize(
        "family", [ld.BivariateNormal(0.6), ld.CircularCauchy()], ids=["bvn", "cauchy"]
    )
    def test_marginal_matches_y_marginalization(self, family):
        cont = ld.as_continuous(family)
        lo = -np.inf if isinstance(family, ld.CircularCauchy) else -8.0
        hi = -lo
        for x in (-1.5, 0.0, 0.8):
            numeric = oracles.quad_1d(lambda y: float(cont.joint_density(x, y)), lo, hi)
            assert numeric == pytest.approx(float(cont.marginal_x(x)), abs=1e-4)

    def test_pushforward_normalization(self, tent_curve):
        ys = np.linspace(1e-4, 1 - 1e-4, 2001)
        dens = ld.pushforward_density_fn(tent_curve)(ys)
        total = np.trapezoid(dens, ys)
        assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "family,cdf_x",
        [
            (ld.BivariateNormal(0.6), oracles.normal_cdf),
            (ld.CircularCauchy(), lambda x: 0.5 + math.atan(x) / math.pi),
            (
                ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf),
                oracles.normal_cdf,
            ),
        ],
        ids=["bvn", "cauchy", "indep"],
    )
    def test_marginal_sampling_ks(self, family, cdf_x):
        pts = ld.sample(family, 100_000, seed=11)
        assert oracles.ks_distance(pts[:, 0], cdf_x) < 0.02
        assert oracles.ks_distance(pts[:, 1], cdf_x) < 0.02


class TestCsvFormats:
    def test_pmf_round_trip(self, dep_pmf):
        buf = io.StringIO()
        ld.write_pmf_csv(buf, dep_pmf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "x,y:0,y:1"
        back = ld.read_pmf_csv(io.StringIO(text))
        np.testing.assert_array_equal(back.pmf, dep_pmf.pmf)
        np.testing.assert_array_equal(back.x_support, dep_pmf.x_support)

    def test_pmf_exact_decimal_reading(self):
        text = "x,y:0,y:1\n0,0.1,0.2\n1,0.3,0.4\n"
        dist = ld.read_pmf_csv(io.StringIO(text))
        assert dist.pmf[0, 0] == 0.1 and dist.pmf[1, 1] == 0.4

    def test_samples_round_trip(self):
        pts = np.array([[0.1, -2.5], [3.25, 4.0]])
        buf = io.StringIO()
        ld.write_samples_csv(buf, pts)
        assert buf.getvalue().splitlines()[0] == "x,y"
        back = ld.read_samples_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back, pts)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            ld.read_samples_csv(io.StringIO("a,b\n1,2\n"))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x,y\n1,2\n3\n", "line 3: expected 2 cells, got 1"),
            ("x,y\n1,2\n\n3,4,5\n", "line 4: expected 2 cells, got 3"),
            ("x,y\n1,2\n3,nan\n", "line 3: non-finite value"),
            ("x,y\n\n-inf,2\n", "line 3: non-finite value"),
            ("x,y\n1,2\nabc,3\n", "line 3: not a number: 'abc'"),
            ('x,y\n"1",2\n', "line 2: not a number"),
            ("x,y\n1,2\n1_0,2\n", "line 3: not a number: '1_0'"),
            ("x,y\n1,2\n#3,4\n", "line 3: not a number: '#3'"),
        ],
        ids=[
            "short-row",
            "long-row-after-blank",
            "nan",
            "inf-after-blank",
            "not-a-number",
            "quoted",
            "underscore-digits",
            "comment-like",
        ],
    )
    def test_malformed_samples_name_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            ld.read_samples_csv(io.StringIO(text))
