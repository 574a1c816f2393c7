"""Ball densities and counts, exponent fits, and the Weierstrass curve."""

import io
import json
import math
import warnings

import mpmath
import numpy as np
import pytest

import liftdep as ld
from liftdep.codec import write_json
from liftdep.scaling import ball_mass_counts, geometric_radii


class TestBallDensity:
    def test_single_point_at_center(self):
        density = ld.ball_density_profile([[0.0, 0.0]], (0.0, 0.0), [1.0]).densities[0]
        assert density == pytest.approx(1 / math.pi, abs=1e-15)

    def test_empty_ball(self):
        pts = [[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]]
        assert ld.ball_density_profile(pts, (0.0, 0.0), [1.0]).densities[0] == 0.0

    def test_uniform_square_interior(self):
        rng = np.random.default_rng(42)
        pts = rng.random((10**6, 2))
        val = ld.ball_density_profile(pts, (0.5, 0.5), [0.1]).densities[0]
        assert val == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize(
        "points,message",
        [
            (np.zeros(8), r"points must have shape \(n, 2\)"),
            (np.zeros((3, 4)), r"points must have shape \(n, 2\)"),
            ([[math.nan, math.nan], [0.0, 0.0]], "points must be finite"),
            ([[0.0, math.inf], [0.0, 0.0]], "points must be finite"),
            (np.empty((0, 2)), "points must be nonempty"),
        ],
        ids=["flat", "3x4", "nan-row", "inf", "empty"],
    )
    def test_points_must_be_nonempty_finite_pairs(self, points, message):
        # a flat array of 8 values was 4 points, a NaN row counted in n (the
        # nan-row case gave 1/(2 pi) instead of 1/pi), and the profile of no
        # points gave 0/0 densities with a RuntimeWarning
        with pytest.raises(ValueError, match=message):
            ld.ball_density_profile(points, (0.0, 0.0), [1.0, 0.5])
        with pytest.raises(ValueError, match=message):
            ld.ball_density_profile(points, (0.0, 0.0), [1.0]).densities[0]

    def test_the_profile_owns_its_radii(self):
        radii = np.array([1.0, 0.5])
        profile = ld.ball_density_profile([[0.0, 0.0], [0.7, 0.0]], (0.0, 0.0), radii)
        radii[:] = [9.0, 8.0]
        assert profile.radii.tolist() == [1.0, 0.5]
        assert profile.densities == pytest.approx([1.0 / math.pi, 2.0 / math.pi], rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ld.ball_density_profile([[0.0, 0.0]], (0.0, 0.0), [0.0]).densities[0]
        with pytest.raises(ValueError):
            ld.ball_density_profile(np.empty((0, 2)), (0.0, 0.0), [1.0]).densities[0]
        # a NaN eps gave a NaN density, a non-finite center coordinate 0.0
        for center, eps in [((0, 0), math.nan), ((math.nan, 0), 1.0), ((0, math.inf), 1.0)]:
            with pytest.raises(ValueError):
                ld.ball_density_profile([[0.0, 0.0]], center, [eps]).densities[0]


class TestBallMassCounts:
    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.normal(0, 3, 5000), rng.normal(1, 0.2, 5000)])
        for _ in range(20):
            center = rng.normal(0, 2, 2)
            eps = float(rng.uniform(0.05, 2.0))
            brute = int(
                np.count_nonzero(
                    (pts[:, 0] - center[0]) ** 2 + (pts[:, 1] - center[1]) ** 2 <= eps * eps
                )
            )
            assert ball_mass_counts(pts, center, [eps])[0] == brute

    def test_large_radius_matches_brute_force(self):
        rng = np.random.default_rng(4)
        pts = rng.random((2000, 2))
        brute = int(np.count_nonzero(np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5) <= 0.3))
        assert ball_mass_counts(pts, (0.5, 0.5), [0.3])[0] == brute

    def test_many_radii_match_brute_force(self):
        rng = np.random.default_rng(5)
        pts = rng.random((3000, 2))
        radii = np.array([0.3, 0.1, 0.03])
        counts = ball_mass_counts(pts, (0.4, 0.6), radii)
        for eps, count in zip(radii, counts):
            d2 = (pts[:, 0] - 0.4) ** 2 + (pts[:, 1] - 0.6) ** 2
            assert int(np.count_nonzero(d2 <= eps * eps)) == count

    @pytest.mark.parametrize("center,radii", [
        ((0.5, 0.5), [0.3, math.nan, 0.1]),
        ((0.5, 0.5), [math.nan]),
        ((math.nan, 0.5), [0.3, 0.2, 0.1]),
    ], ids=["nan-rung", "nan-only", "nan-center"])
    def test_profile_refuses_nan(self, center, radii):
        # every point was counted inside the NaN rung, and the ladder passed
        # as strictly decreasing, since every comparison with NaN is False
        pts = np.random.default_rng(0).random((100, 2))
        with pytest.raises(ValueError):
            ld.ball_density_profile(pts, center, radii)

    @pytest.mark.parametrize("center", [(0.5, 0.5, 9.0), (0.5,), [[0.5, 0.5]], 0.5],
                             ids=["three", "one", "row", "scalar"])
    def test_center_must_be_a_pair(self, center):
        # a third coordinate was dropped (density 0.985), one raised IndexError
        pts = np.random.default_rng(7).random((1000, 2))
        with pytest.raises(ValueError, match="center must be a pair of numbers"):
            ld.ball_density_profile(pts, center, [0.2]).densities[0]
        with pytest.raises(ValueError, match="center must be a pair of numbers"):
            ld.scaling_exponent(pts, center, eps_max=0.5, eps_min=0.1, k=6)


class TestScalingExponent:
    def test_geometric_schedule(self):
        radii = geometric_radii(0.2, 0.02, 5)
        assert radii[0] == pytest.approx(0.2)
        assert radii[-1] == pytest.approx(0.02)
        ratios = radii[1:] / radii[:-1]
        np.testing.assert_allclose(ratios, ratios[0])
        assert np.all(np.diff(radii) < 0)

    def test_uniform_square_slope_two(self):
        rng = np.random.default_rng(1)
        pts = rng.random((200_000, 2))
        est = ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.2, eps_min=0.02, k=8)
        assert est.s_hat == pytest.approx(2.0, abs=0.15)
        assert est.fit_r2 > 0.99

    def test_line_slope_one(self):
        rng = np.random.default_rng(2)
        x = rng.random(200_000)
        pts = np.column_stack([x, x])
        est = ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.1, eps_min=0.01, k=8)
        assert est.s_hat == pytest.approx(1.0, abs=0.15)

    def test_low_count_radii_are_dropped(self):
        rng = np.random.default_rng(6)
        pts = rng.random((5000, 2))
        est = ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.3, eps_min=0.0003, k=10)
        assert len(est.radii_used) < 10
        assert min(est.radii_used) > 0.0003

    def test_insufficient_radii(self):
        pts = np.tile([[5.0, 5.0]], (100, 1))
        with pytest.raises(ld.InsufficientRadii):
            ld.scaling_exponent(pts, (0.0, 0.0), eps_max=0.1, eps_min=0.01, k=6)

    @pytest.mark.parametrize("k", [5.5, 6.0, "6", None])
    def test_k_must_be_an_integer(self, k):
        # k = 5.5 made 6 rungs down to 0.0836, below eps_min = 0.1
        pts = np.random.default_rng(7).random((100_000, 2))
        with pytest.raises(ValueError, match="k must be an integer >= 4"):
            ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.5, eps_min=0.1, k=k)

    def test_a_numpy_integer_k_is_an_integer(self):
        pts = np.random.default_rng(7).random((100_000, 2))
        est = ld.scaling_exponent(pts, np.array([0.5, 0.5]), eps_max=0.5, eps_min=0.1, k=np.int64(6))
        assert est == ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.5, eps_min=0.1, k=6)
        assert est.radii_used[-1] == 0.1

    def test_parameter_validation(self):
        pts = np.random.default_rng(0).random((100, 2))
        with pytest.raises(ValueError):
            ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.01, eps_min=0.1, k=6)
        with pytest.raises(ValueError):
            ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.1, eps_min=0.01, k=3)
        # an infinite eps_max made NaN radii and an SVD failure in the fit
        with pytest.raises(ValueError, match="eps_max < inf"):
            ld.scaling_exponent(pts, (0.5, 0.5), eps_max=math.inf, eps_min=0.01, k=6)
        # a NaN center counted no point and raised InsufficientRadii
        with pytest.raises(ValueError, match="center coordinates must be finite"):
            ld.scaling_exponent(pts, (0.5, math.nan), eps_max=0.5, eps_min=0.1, k=6)

    def test_exponent_range_for_ac_marginal_dists(self):
        # absolutely continuous marginals keep the local exponent in [1, 2];
        # allow Monte-Carlo slack around the theoretical band
        rng = np.random.default_rng(9)
        n = 200_000
        clouds = {
            "bvn": ld.sample(ld.BivariateNormal(0.6), n, seed=9),
            "line": np.column_stack([rng.random(n)] * 2),
            "weierstrass": None,
        }
        x = rng.random(n) * 0.5
        w = ld.weierstrass_eval(ld.WeierstrassCurve(), x)
        clouds["weierstrass"] = np.column_stack([x, w])
        centers = {
            "bvn": (0.0, 0.0),
            "line": (0.5, 0.5),
            "weierstrass": (0.3, float(ld.weierstrass_eval(ld.WeierstrassCurve(), 0.3))),
        }
        for name, pts in clouds.items():
            est = ld.scaling_exponent(pts, centers[name], eps_max=0.2, eps_min=0.02, k=8)
            assert 0.85 <= est.s_hat <= 2.15, name


class TestLemmaConsistency:
    def test_ball_density_converges_to_joint_density(self):
        # empirical rho_eps at a fixed interior center approaches the true
        # density as eps shrinks along the schedule
        dist = ld.BivariateNormal(0.6)
        pts = ld.sample(dist, 10**6, seed=42)
        target = dist.joint_density(0.0, 0.0)
        radii = geometric_radii(0.4, 0.05, 6)
        counts = ball_mass_counts(pts, (0.0, 0.0), radii)
        rho_min = (counts[-1] / pts.shape[0]) / (math.pi * radii[-1] ** 2)
        assert rho_min == pytest.approx(target, rel=0.05)

    def test_curve_prefactor_recovers_marginal(self):
        # eps * rho_eps * pi * sqrt(1 + phi'^2) / 2 -> rho_X on the curve
        branch = ld.CurveBranch(
            phi=lambda x: 2.0 * np.asarray(x, dtype=float),
            dphi=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
            domain=(0.0, 1.0),
        )
        dist = ld.CurveSingularJoint(ld.uniform_pdf(), (0.0, 1.0), (branch,))
        pts = ld.sample(dist, 10**6, seed=42)
        x0 = 0.3
        eps = 0.02
        rho_eps = ld.ball_density_profile(pts, (x0, 2 * x0), [eps]).densities[0]
        estimate = eps * rho_eps * math.pi * math.sqrt(5.0) / 2.0
        assert estimate == pytest.approx(1.0, rel=0.10)


class TestWeierstrass:
    def test_at_zero_geometric_sum(self):
        curve = ld.WeierstrassCurve(n_terms=30)
        assert ld.weierstrass_eval(curve, 0.0) == pytest.approx(1 - 2.0**-30, abs=1e-15)

    def test_at_half(self):
        curve = ld.WeierstrassCurve(n_terms=30)
        assert ld.weierstrass_eval(curve, 0.5) == pytest.approx(-(1 - 2.0**-30), abs=1e-12)

    @pytest.mark.parametrize("x", [0.25, 0.17])
    def test_against_high_precision_oracle(self, x):
        # 60-term reference sum at 50 digits bounds both truncation and
        # floating-point error of the 30-term evaluator
        mpmath.mp.dps = 50
        xm = mpmath.mpf(x)
        reference = mpmath.fsum(
            mpmath.cos(2 * mpmath.pi * mpmath.mpf(3) ** n * xm) / mpmath.mpf(2) ** n
            for n in range(1, 61)
        )
        curve = ld.WeierstrassCurve(n_terms=30)
        assert abs(ld.weierstrass_eval(curve, x) - float(reference)) < 2.0**-30 + 1e-8

    def test_truncation_tail_bound(self):
        rng = np.random.default_rng(13)
        xs = rng.random(50) * 0.5
        w10 = ld.weierstrass_eval(ld.WeierstrassCurve(10), xs)
        w20 = ld.weierstrass_eval(ld.WeierstrassCurve(20), xs)
        assert np.max(np.abs(w10 - w20)) <= 2.0**-10

    def test_grid_endpoints(self):
        curve = ld.WeierstrassCurve(n_terms=30)
        grid = ld.weierstrass_grid(curve, 2)
        np.testing.assert_allclose(grid[:, 0], [0.0, 0.5])
        np.testing.assert_allclose(grid[:, 1], [1 - 2.0**-30, -(1 - 2.0**-30)], atol=1e-12)

    def test_grid_midpoint_consistency(self):
        curve = ld.WeierstrassCurve(n_terms=30)
        grid = ld.weierstrass_grid(curve, 3)
        assert grid[1, 0] == 0.25
        assert grid[1, 1] == pytest.approx(ld.weierstrass_eval(curve, 0.25), abs=1e-15)

    def test_grid_bounded_by_one(self):
        curve = ld.WeierstrassCurve(n_terms=30)
        grid = ld.weierstrass_grid(curve, 10_000)
        assert np.max(np.abs(grid[:, 1])) <= 1.0

    def test_phase_overflow_raises_without_warnings(self):
        # 2 pi 3^n x overflows from n = 646 at x = 1/2
        assert math.isfinite(ld.weierstrass_eval(ld.WeierstrassCurve(n_terms=645), 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_terms=700"):
                ld.weierstrass_eval(ld.WeierstrassCurve(n_terms=700), np.array([0.0, 0.5]))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [0.25, math.nan]],
                             ids=["nan", "inf", "-inf", "array"])
    def test_a_non_finite_x_is_named(self, x):
        # the phase check blamed n_terms: "n_terms=30: the phase ... is not finite"
        with pytest.raises(ValueError, match="x must be finite"):
            ld.weierstrass_eval(ld.WeierstrassCurve(), x)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ld.WeierstrassCurve(n_terms=0)
        # 2.5 summed 3 terms against an error bound of 2^-2.5
        for n_terms in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="n_terms must be an integer >= 1"):
                ld.WeierstrassCurve(n_terms=n_terms)
        assert ld.weierstrass_eval(ld.WeierstrassCurve(np.int64(3)), 0.25) == ld.weierstrass_eval(
            ld.WeierstrassCurve(3), 0.25
        )
        with pytest.raises(ValueError):
            ld.weierstrass_grid(ld.WeierstrassCurve(), 1)

    @pytest.mark.parametrize("n_points", [2.5, None, "3"])
    def test_n_points_must_be_an_integer(self, n_points):
        # each raised TypeError
        with pytest.raises(ValueError, match="n_points must be an integer >= 2"):
            ld.weierstrass_grid(ld.WeierstrassCurve(), n_points)
        assert ld.weierstrass_grid(ld.WeierstrassCurve(), np.int64(3)).shape == (3, 2)


class TestScalingIo:
    def test_profile_csv(self):
        rng = np.random.default_rng(21)
        pts = rng.random((1000, 2))
        profile = ld.ball_density_profile(pts, (0.5, 0.5), [0.2, 0.1, 0.05])
        buf = io.StringIO()
        profile.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "eps,count,rho_eps"
        assert len(lines) == 4
        eps0, count0, rho0 = lines[1].split(",")
        assert float(eps0) == 0.2
        assert int(count0) == profile.counts[0]

    def test_profile_mass_monotone(self):
        rng = np.random.default_rng(22)
        pts = rng.random((5000, 2))
        profile = ld.ball_density_profile(pts, (0.5, 0.5), geometric_radii(0.3, 0.02, 8))
        assert np.all(np.diff(profile.counts) <= 0)
        assert np.all(profile.densities >= 0)

    def test_estimate_json(self):
        rng = np.random.default_rng(23)
        pts = rng.random((50_000, 2))
        est = ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.2, eps_min=0.05, k=5)
        buf = io.StringIO()
        write_json(buf, est.to_dict())
        payload = json.loads(buf.getvalue())
        assert set(payload) == {"center", "s_hat", "fit_r2", "radii_used"}
        assert payload["center"] == [0.5, 0.5]
        assert 0.0 <= payload["fit_r2"] <= 1.0
