"""Distribution classes: densities, pushforwards, samplers, file formats."""

import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import liftdep as ld
from liftdep.cli import CURVE_SPECS
from liftdep.distributions import PROBE_GRID_SIZE, bisect_roots, monotone_pieces, named_curve
from liftdep.quadrature import adaptive_quad_2d

import oracles
from conftest import run_fresh


class TestDensityAt:
    def test_independent_product_at_origin(self):
        dist = ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf)
        assert dist.joint_density(0.0, 0.0) == pytest.approx(0.15915494309189535, abs=1e-15)

    def test_circular_cauchy_at_origin(self):
        assert ld.CircularCauchy().joint_density(0.0, 0.0) == pytest.approx(
            0.15915494309189535, abs=1e-15
        )

    def test_discrete_lookup(self, dep_pmf):
        assert dep_pmf.joint_density(0.0, 1.0) == 0.1

    def test_discrete_out_of_support(self, dep_pmf):
        with pytest.raises(ld.OutOfSupport):
            dep_pmf.joint_density(0.5, 1.0)

    def test_curve_singular_has_no_density(self, normal_identity_curve):
        with pytest.raises(ld.CurveSingularHasNoDensity):
            normal_identity_curve.joint_density(0.0, 0.0)


class TestBvnDensity:
    def test_independence_case(self):
        assert ld.BivariateNormal(0.0).joint_density(0.0, 0.0) == pytest.approx(1 / (2 * math.pi), abs=1e-15)

    def test_correlated_at_origin(self):
        assert ld.BivariateNormal(0.6).joint_density(0.0, 0.0) == pytest.approx(0.1989436788648692, abs=1e-13)

    def test_correlated_off_origin(self):
        assert ld.BivariateNormal(0.6).joint_density(1.0, 1.0) == pytest.approx(0.10648687774403313, abs=1e-13)

    def test_cross_check_numeric_normalization(self):
        # the closed form must integrate to one over a wide box
        total = oracles.quad_2d(lambda x, y: oracles.bvn_pdf(0.6, x, y), -9, 9, -9, 9)
        assert total == pytest.approx(1.0, abs=1e-8)
        assert ld.BivariateNormal(0.6).joint_density(0.7, -0.3) == pytest.approx(
            oracles.bvn_pdf(0.6, 0.7, -0.3), rel=1e-12
        )

    def test_degenerate_correlation(self):
        with pytest.raises(ld.DegenerateCorrelation):
            ld.BivariateNormal(1.0)
        with pytest.raises(ld.DegenerateCorrelation):
            ld.BivariateNormal(-1.0)


class TestStandardNormalQuantile:
    """AS 241 against scipy's ``ndtri``, the reference it replaces at run time."""

    def test_matches_ndtri_on_random_uniforms(self):
        u = np.random.default_rng(1010).random(100_000)
        np.testing.assert_allclose(ld.standard_normal_quantile(u), ndtri(u), rtol=2e-15, atol=0)

    # The far tail, its edge r = 5 at u = exp(-25), the tail, the edges
    # u = 0.075 and 0.925 of the centre, and the last double below 1.
    @pytest.mark.parametrize(
        "u", [1e-300, 2.0**-1074, 1e-20, math.exp(-25.0), 0.02425, 0.075, 0.925, 1 - 2.0**-53]
    )
    def test_matches_ndtri_at_edges(self, u):
        assert ld.standard_normal_quantile(u) == pytest.approx(ndtri(u), rel=2e-15, abs=0)

    def test_infinite_at_zero_and_one(self):
        assert ld.standard_normal_quantile(0.0) == -math.inf
        assert ld.standard_normal_quantile(1.0) == math.inf

    @pytest.mark.parametrize("u", [-0.1, 1.1, math.nan])
    def test_nan_outside_the_unit_interval(self, u):
        assert math.isnan(ld.standard_normal_quantile(u))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=50))
    def test_never_decreases(self, us):
        x = ld.standard_normal_quantile(np.sort(us))
        assert (x[1:] >= x[:-1]).all()

    # Below u = 1e-100 one input ulp moves r = sqrt(-log u) by about one
    # long-double ulp. The examples are pairs that plain Horner put out of order.
    @settings(max_examples=200, deadline=None)
    @given(st.floats(2.0**-1074, 1e-100), st.integers(1, 2000))
    @example(1.025441867658291e-148, 1)
    @example(5.480673341343679e-196, 1)
    @example(1.4111907893946688e-300, 1)
    def test_never_decreases_between_far_tail_neighbours(self, u, n):
        us = (np.array([u]).view(np.int64) + np.arange(n + 1)).view(np.float64)
        x = ld.standard_normal_quantile(us)
        assert (x[1:] >= x[:-1]).all()


class TestPushforwardDensity:
    def test_uniform_identity(self, uniform_identity_curve):
        for y in (0.1, 0.5, 0.9):
            assert ld.pushforward_density_fn(uniform_identity_curve)(y) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_normal_identity(self, normal_identity_curve):
        for y in (-1.5, 0.0, 0.7):
            assert ld.pushforward_density_fn(normal_identity_curve)(y) == pytest.approx(
                oracles.normal_pdf(y), rel=1e-9
            )

    def test_two_branch_tent(self, tent_curve):
        for y in (0.2, 0.5, 0.8):
            assert ld.pushforward_density_fn(tent_curve)(y) == pytest.approx(1.0, abs=1e-9)

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
            assert ld.pushforward_density_fn(dist)(y) == pytest.approx(
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
            ld.pushforward_density_fn(dist)(0.25)

    def test_parabola_with_detected_pieces(self):
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(-1.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(-1.0, 1.0), (-1.0, 1.0), (branch,))
        # two preimages +-sqrt(y), law of X^2 on U[-1,1]: rho_Y = 1/(2 sqrt(y))
        for y in (0.25, 0.64):
            assert ld.pushforward_density_fn(dist)(y) == pytest.approx(
                0.5 / math.sqrt(y), rel=1e-6
            )

    def test_turning_points_within_one_probe_step_go_unseen(self):
        # phi' = (x - 1/2)^2 - d^2 turns at 1/2 -+ d, both between the same two
        # neighbouring probes, so phi' is positive at every probe and the
        # decreasing stretch between the turning points is not split off.
        d = 1e-5
        branch = ld.CurveBranch(
            phi=lambda x: (np.asarray(x, dtype=float) - 0.5) ** 3 / 3
            - d * d * (np.asarray(x, dtype=float) - 0.5),
            dphi=lambda x: (np.asarray(x, dtype=float) - 0.5) ** 2 - d * d,
            domain=(0.0, 1.0),
        )
        step = 1.0 / (PROBE_GRID_SIZE - 1)
        assert math.floor((0.5 - d) / step) == math.floor((0.5 + d) / step)
        assert branch.dphi(np.array([0.5]))[0] < 0
        assert monotone_pieces(branch) == [(0.0, 1.0, 1)]

    def test_declared_breakpoints_that_are_right(self):
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) * (1.0 - np.asarray(x, dtype=float)),
            dphi=lambda x: 1.0 - 2.0 * np.asarray(x, dtype=float),
            domain=(0.0, 1.0),
            breakpoints=(0.5,),
        )
        assert monotone_pieces(branch) == [(0.0, 0.5, 1), (0.5, 1.0, -1)]

    @pytest.mark.parametrize("phi,dphi", [
        (lambda x: 1.0 - np.asarray(x, dtype=float) ** 2,
         lambda x: -2.0 * np.asarray(x, dtype=float)),
        (np.cos, lambda x: -np.sin(x)),
    ], ids=["one-minus-square", "cos"])
    def test_a_zero_slope_at_the_start_takes_the_first_sign(self, phi, dphi):
        # dphi(0) = 0 read as increasing gave a zero-width piece (0.0, 0.0, 1)
        branch = ld.CurveBranch(phi=phi, dphi=dphi, domain=(0.0, 1.0))
        assert monotone_pieces(branch) == [(0.0, 1.0, -1)]

    def test_a_slope_under_the_floor_at_a_declared_breakpoint_is_no_turn(self):
        # cos is 6.1e-17 > 0 at the double nearest pi/2, the first probe of
        # the decreasing piece
        assert math.cos(math.pi / 2) > 0
        branch = ld.CurveBranch(phi=np.sin, dphi=np.cos, domain=(0.0, 3.0),
                                breakpoints=(math.pi / 2,))
        assert monotone_pieces(branch) == [(0.0, math.pi / 2, 1), (math.pi / 2, 3.0, -1)]

    def test_a_turn_after_a_probe_under_the_floor_is_cut_at_that_probe(self):
        # dphi = x - c is 1e-13 > 0 at the probe g just past c, so the turn
        # reads between g and the next probe, where dphi keeps its sign
        g = float(np.linspace(0.0, 1.0, PROBE_GRID_SIZE)[500])
        c = g - 1e-13
        branch = ld.CurveBranch(phi=lambda x: (np.asarray(x, dtype=float) - c) ** 2 / 2,
                                dphi=lambda x: np.asarray(x, dtype=float) - c,
                                domain=(0.0, 1.0))
        assert monotone_pieces(branch) == [(0.0, g, -1), (g, 1.0, 1)]

    def test_derivative_vanishes_at_fold(self):
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(-1.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(-1.0, 1.0), (-1.0, 1.0), (branch,))
        with pytest.raises(ld.DerivativeVanishes):
            ld.pushforward_density_fn(dist)(0.0)


def _parabola():
    """X ~ U[-1, 1], Y = X^2: two monotone pieces that meet at a fold."""
    branch = ld.CurveBranch(
        phi=lambda x: np.asarray(x, dtype=float) ** 2,
        dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
        domain=(-1.0, 1.0),
    )
    return ld.CurveSingularJoint(ld.uniform_pdf(-1.0, 1.0), (-1.0, 1.0), (branch,))


def _partial_domain_curve():
    """X ~ U[0, 1]; Y = X, or Y = 1 - X^2 on the strict subset [0.2, 0.7]."""
    up = ld.CurveBranch(
        phi=lambda x: np.asarray(x, dtype=float),
        dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        domain=(0.0, 1.0),
        weight=0.6,
    )
    down = ld.CurveBranch(
        phi=lambda x: 1.0 - np.asarray(x, dtype=float) ** 2,
        dphi=lambda x: -2.0 * np.asarray(x, dtype=float),
        domain=(0.2, 0.7),
        weight=0.4,
    )
    return ld.CurveSingularJoint(ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (up, down))


class TestOnCurveMarginalY:
    """``rho_Y(phi_n(x))`` from the node's own preimage against the pushforward
    evaluated at ``y = phi_n(x)``, where every piece is bisected."""

    @pytest.mark.parametrize("name", ["parabola", "tent", "partial-domain"])
    def test_matches_the_pushforward_on_each_branch(self, name, tent_curve):
        dist = {"parabola": _parabola(), "tent": tent_curve,
                "partial-domain": _partial_domain_curve()}[name]
        on_curve = dist.on_curve_marginal_y
        rho_y = ld.pushforward_density_fn(dist)
        for n, branch in enumerate(dist.branches):
            lo, hi = branch.domain
            x = np.linspace(lo, hi, 400)  # an even count misses the fold at 0
            want = rho_y(branch.phi(x))
            np.testing.assert_allclose(on_curve(n, x), want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("spec", CURVE_SPECS)
    def test_bit_equal_on_the_cli_curves(self, spec):
        dist = named_curve(spec)
        lo, hi = dist.support_x
        x = np.concatenate([np.linspace(lo, hi, 1001)[1:],
                            np.random.default_rng(1111).uniform(lo, hi, 10_000)])
        got = dist.on_curve_marginal_y(0, x)
        assert got.tobytes() == ld.pushforward_density_fn(dist)(dist.branches[0].phi(x)).tobytes()

    def test_keeps_the_shape_of_x(self, tent_curve):
        x = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert tent_curve.on_curve_marginal_y(1, x) == pytest.approx(np.ones((2, 2)), abs=1e-12)

    def test_supplied_marginal_is_used(self):
        dist = named_curve("curve-normal-double")
        dist = ld.CurveSingularJoint(dist.marginal_x, dist.support_x, dist.branches,
                                     marginal_y=lambda y: np.full_like(y, 0.25))
        assert dist.on_curve_marginal_y(0, np.array([0.3, -1.0])).tolist() == [0.25, 0.25]

    def test_fold_is_nan(self):
        # x = 0 is a preimage at the fold; x = 0.5 keeps rho_Y(0.25) = 1
        got = _parabola().on_curve_marginal_y(0, np.array([0.5, 0.0]))
        assert got[0] == 1.0 and np.isnan(got[1])

    def test_lift_batch_through_a_fold_keeps_every_other_point(self):
        dist = _parabola()
        x = np.linspace(-1.0, 1.0, 401)  # an odd count holds the fold at 0
        y = dist.branches[0].phi(x)
        batch = dist.lift(x, y)
        assert x[200] == 0.0 and np.isnan(batch[200])
        alone = np.array([dist.lift(x[i], y[i]) for i in range(x.size)])
        assert np.delete(batch, 200).tobytes() == np.delete(alone, 200).tobytes()


class TestPiecesOncePerLaw:
    def test_every_use_shares_one_search_per_branch(self, tent_curve, monkeypatch):
        calls = []

        def counting(branch):
            calls.append(branch)
            return monotone_pieces(branch)

        monkeypatch.setattr("liftdep.distributions.monotone_pieces", counting)
        dist = tent_curve
        ld.mi_curve(dist)
        ld.lift_grid(dist, np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
        for point in ((0.2, 0.3), (0.5, 0.5), (0.9, 0.1)):
            ld.sibuya_omega_at(dist, point)
        ld.pushforward_density_fn(dist)(np.linspace(0.1, 0.9, 5))
        ld.pushforward_density_fn(dist)(0.4)
        assert calls == list(dist.branches)

    def test_a_non_monotone_piece_raises_on_every_use(self):
        branch = ld.CurveBranch(
            phi=lambda x: np.asarray(x, dtype=float) ** 2,
            dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
            domain=(-1.0, 1.0),
            breakpoints=(0.5,),  # wrong: dphi flips sign at 0, inside (-1, 0.5)
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(-1.0, 1.0), (-1.0, 1.0), (branch,))
        for _ in range(2):
            with pytest.raises(ld.NonMonotonePiece):
                ld.pushforward_density_fn(dist)(0.25)


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

    @pytest.mark.parametrize("n", [2.5, None, "3"])
    def test_n_must_be_an_integer(self, dep_pmf, n):
        # each raised TypeError
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            ld.sample(dep_pmf, n, seed=0)
        assert ld.sample(dep_pmf, np.int64(3), seed=0).shape == (3, 2)


IDENTITY_ON_THE_LINE = """
import math
import numpy as np
import liftdep as ld
line = (-math.inf, math.inf)
branch = ld.CurveBranch(phi=lambda x: np.asarray(x, float),
                        dphi=lambda x: np.ones_like(np.asarray(x, float)), domain=line)
law = ld.CurveSingularJoint(ld.standard_normal_pdf, line, (branch,))
print(ld.sibuya_omega_at(law, (0.5, 0.5)))
"""


class TestInfiniteCurveEnds:
    """A curve law needs finite ends in increasing order: the monotone pieces,
    the preimage bisection and the tabulated X quantiles all work on them."""

    @staticmethod
    def square(domain):
        return ld.CurveBranch(phi=lambda x: np.asarray(x, dtype=float) ** 2,
                              dphi=lambda x: 2.0 * np.asarray(x, dtype=float), domain=domain)

    @pytest.mark.parametrize("domain,message", [
        ((-math.inf, math.inf), "lower end of branch domain must be finite, got -inf"),
        ((0.0, math.inf), "upper end of branch domain must be finite, got inf"),
        ((math.nan, 1.0), "lower end of branch domain must be finite, got nan"),
    ], ids=["line", "half-line", "nan"])
    def test_branch_domain_names_its_end(self, domain, message):
        # Y = X^2 on the line used to raise "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=message):
            self.square(domain)

    @pytest.mark.parametrize("support,message", [
        ((0.0, math.inf), "upper end of support_x must be finite, got inf"),
        ((-math.inf, math.inf), "lower end of support_x must be finite, got -inf"),
        ((1.0, 0.0), r"support_x must be a nonempty interval, got \(1.0, 0.0\)"),
        ((0.5, 0.5), r"support_x must be a nonempty interval, got \(0.5, 0.5\)"),
    ], ids=["half-line", "line", "reversed", "empty"])
    def test_support_names_its_end(self, support, message):
        # ld.sample used to return inf or NaN rows for the infinite supports;
        # mi_curve of the identity on U(0, 1) gave +0.798 over (1, 0), its MI
        # with the sign flipped, and 0.0 over (0.5, 0.5), both "converged"
        with pytest.raises(ValueError, match=message):
            ld.CurveSingularJoint(ld.standard_normal_pdf, support, (self.square((0.0, 1.0)),))

    def test_sibuya_on_the_line_raises_instead_of_hanging(self):
        done = run_fresh(IDENTITY_ON_THE_LINE)
        assert done.returncode == 1
        assert done.stderr.rstrip().endswith(
            "ValueError: the lower end of branch domain must be finite, got -inf"
        )

    @pytest.mark.parametrize("lo,hi", [(-math.inf, math.inf), (0.0, math.inf), (math.nan, 1.0)])
    def test_bisection_refuses_a_non_finite_bracket(self, lo, hi):
        # at (-inf, inf) every midpoint is NaN and the bracket never closed
        done = run_fresh(
            "from liftdep.distributions import bisect_roots\n"
            f"bisect_roots(lambda x: x, 0.5, float('{lo}'), float('{hi}'))\n"
        )
        assert done.returncode == 1
        assert done.stderr.rstrip().endswith("ValueError: bisect_roots needs finite bracket ends")
        # the fresh process returned, so this one may make the same call
        with pytest.raises(ValueError, match="bisect_roots needs finite bracket ends"):
            bisect_roots(lambda x: x, 0.5, lo, hi)


class TestConditionalLaw:
    """The members that declare the law of Y given X, and the marginal CDFs
    that come with them."""

    @pytest.mark.parametrize("x", [-37.5, -20.0, -7.5, -1.0, 0.0, 0.5, 3.0, 8.0])
    def test_normal_cdf_matches_mpmath(self, x):
        """Relative in the lower tail, within about x^2 ulps: the rounding of
        ``x / sqrt 2`` is amplified by ``d log erfc(z) / d log z ~ 2 z^2``."""
        with mpmath.workdps(40):
            want = float(mpmath.ncdf(x))
        assert ld.standard_normal_cdf(x) == pytest.approx(want, rel=2e-16 * max(1.0, x * x), abs=0)

    @pytest.mark.parametrize("x", [-1e300, -1e10, -20.0, -1.0, 0.0, 2.0, 1e10])
    def test_cauchy_cdf_matches_mpmath(self, x):
        with mpmath.workdps(340):
            want = float(mpmath.mpf(1) / 2 + mpmath.atan(x) / mpmath.pi)
        assert ld.CircularCauchy().cdf_x(x) == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("dist", [ld.BivariateNormal(0.6), ld.CircularCauchy()])
    def test_marginal_cdfs_are_exact_at_infinity(self, dist):
        assert dist.cdf_x(-math.inf) == 0.0 and dist.cdf_y(math.inf) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.floats(-0.95, 0.95).map(ld.BivariateNormal), st.just(ld.CircularCauchy())),
        st.floats(-30.0, 30.0),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
    )
    def test_conditional_cdf_is_a_cdf_in_y(self, dist, x, ys):
        """In [0, 1], nondecreasing in y, exactly 0 and 1 at -inf and inf, and
        centrally symmetric: C(-y | -x) = 1 - C(y | x)."""
        y = np.sort(np.concatenate([[-math.inf], ys, [math.inf]]))
        c = dist.conditional_cdf_y(np.full_like(y, x), y)
        assert ((c >= 0.0) & (c <= 1.0)).all()
        assert (np.diff(c) >= 0.0).all()
        assert c[0] == 0.0 and c[-1] == 1.0
        mirror = dist.conditional_cdf_y(np.full_like(y, -x), -y)
        np.testing.assert_allclose(mirror, 1.0 - c, rtol=0.0, atol=4e-16)

    @settings(max_examples=25, deadline=None)
    @given(
        st.one_of(st.floats(-0.95, 0.95).map(ld.BivariateNormal), st.just(ld.CircularCauchy())),
        st.floats(-6.0, 6.0),
    )
    def test_conditional_cdf_integrates_to_the_marginal_cdf(self, dist, y):
        """int rho_X(s) C(y | s) ds over the line is H(y), by scipy's quad."""
        total = oracles.quad_1d(
            lambda s: float(dist.marginal_x(s)) * float(dist.conditional_cdf_y(s, y)),
            -math.inf, math.inf, epsabs=1e-13, epsrel=1e-12, limit=400,
        )
        assert total == pytest.approx(float(dist.cdf_y(y)), abs=1e-9)


class TestUniformPdf:
    @pytest.mark.parametrize(
        "lo,hi", [(0.0, 0.0), (1.0, 0.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)]
    )
    def test_interval_must_be_finite_and_nonempty(self, lo, hi):
        # (0, 0) raised ZeroDivisionError; the others gave a density 0 everywhere
        with pytest.raises(ValueError, match=r"uniform \[lo, hi\]"):
            ld.uniform_pdf(lo, hi)


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

    def test_tabulated_quantiles_reject_an_unbounded_axis(self):
        cont = ld.as_continuous(ld.CircularCauchy())
        with pytest.raises(ValueError, match="x axis"):
            cont.quantile_x([0.5])
        with pytest.raises(ValueError, match="y axis"):
            cont.quantile_y([0.5])
        with pytest.raises(ValueError, match="unbounded"):
            ld.region_summary(cont)
        strip = ld.ContinuousJoint(
            cont.joint_density, ld.uniform_pdf(-1.0, 1.0), cont.marginal_y,
            (-1.0, 1.0, -np.inf, np.inf),
        )
        assert float(strip.quantile_x([0.5])[0]) == pytest.approx(0.0, abs=1e-3)

    def test_a_law_owns_read_only_copies_of_its_arrays(self):
        # writing to the caller's arrays left a decreasing support and a pmf
        # summing to 5.6 inside a validated law
        x, p = np.array([0.0, 1.0]), np.array([[0.4, 0.1], [0.1, 0.4]])
        dist = ld.DiscreteJoint(x, x.copy(), p)
        x[:] = [1.0, 0.0]
        p[0, 0] = 5.0
        assert dist.x_support.tolist() == [0.0, 1.0]
        assert dist.pmf.tolist() == [[0.4, 0.1], [0.1, 0.4]]
        assert ld.lift_at(dist, (1.0, 0.0)) == pytest.approx(0.4, rel=1e-15)
        for array in (dist.x_support, dist.y_support, dist.pmf):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7.0

    def test_pmf_shape_must_match_the_supports(self):
        with pytest.raises(ValueError, match="pmf shape must be"):
            ld.DiscreteJoint([0.0, 1.0], [0.0, 1.0], [[0.5, 0.5]])

    @pytest.mark.parametrize("x_support,y_support", [([1.0, 0.0], [0.0]), ([0.0, 1.0], [0.0, 0.0])])
    def test_supports_must_increase(self, x_support, y_support):
        pmf = np.full((len(x_support), len(y_support)), 1.0 / (len(x_support) * len(y_support)))
        with pytest.raises(ValueError, match="supports must be strictly increasing"):
            ld.DiscreteJoint(x_support, y_support, pmf)

    @pytest.mark.parametrize("kwargs,message", [
        ({"weight": 1.5}, r"branch weight must lie in \[0, 1\]"),
        ({"weight": -0.1}, r"branch weight must lie in \[0, 1\]"),
        ({"breakpoints": (1.5,)}, "breakpoints must lie inside the branch domain"),
    ], ids=["above-one", "negative", "breakpoint-outside"])
    def test_branch_weight_and_breakpoints_are_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ld.CurveBranch(phi=np.asarray, dphi=np.ones_like, domain=(0.0, 1.0), **kwargs)

    def test_a_curve_needs_a_branch(self):
        with pytest.raises(ValueError, match="at least one branch is required"):
            ld.CurveSingularJoint(ld.uniform_pdf(), (0.0, 1.0), ())

    @pytest.mark.parametrize("pdf,message", [
        (lambda x: -np.ones_like(x), "pdf evaluator returned negative values"),
        (np.zeros_like, "pdf has zero mass on the support"),
    ], ids=["negative", "zero"])
    def test_tabulated_quantiles_need_a_density(self, pdf, message):
        with pytest.raises(ValueError, match=message):
            ld.sample(ld.IndependentProduct(pdf, ld.standard_normal_pdf), 5, seed=0)

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
        res = adaptive_quad_2d(cont.joint_density, cont.integration_box, tol=1e-5)
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

    def test_pmf_header_needs_y_labels(self):
        with pytest.raises(ValueError, match="pmf csv needs a header"):
            ld.read_pmf_csv(io.StringIO("x,a,b\n0,0.5,0.5\n"))

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
