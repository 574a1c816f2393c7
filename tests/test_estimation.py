"""Plug-in estimators and the targeting procedure."""

import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liftdep as ld
from liftdep import codec
from liftdep.codec import write_json
from liftdep.estimation import KDE_CHUNK, _kernel_rows
from liftdep.lift import RegionLabel

import oracles


def table(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return ld.ContingencyTable(
        np.arange(counts.shape[0], dtype=float),
        np.arange(counts.shape[1], dtype=float),
        counts,
    )


class TestContingencyTable:
    def test_from_samples(self):
        pts = np.array([[0, 0], [0, 0], [1, 1], [0, 1]], dtype=float)
        t = ld.ContingencyTable.from_samples(pts)
        np.testing.assert_array_equal(t.counts, [[2, 1], [0, 1]])
        assert t.n == 4

    @pytest.mark.parametrize("shape", [(3, 4), (6,), (2, 3, 2)])
    def test_from_samples_needs_shape_n_by_2(self, shape):
        # a (3, 4) array was counted as 6 pairs
        with pytest.raises(ValueError, match=r"samples must have shape \(n, 2\)"):
            ld.ContingencyTable.from_samples(np.zeros(shape))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_from_samples_needs_finite_values(self, value):
        pts = np.array([[0.0, 0.0], [1.0, value], [1.0, 1.0]])
        with pytest.raises(ValueError, match="samples must be finite"):
            ld.ContingencyTable.from_samples(pts)

    def test_validation(self):
        with pytest.raises(ValueError):
            table([[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            ld.ContingencyTable([0.0], [0.0], np.array([[1.5]]))

    def test_a_table_owns_read_only_copies_of_its_arrays(self):
        # a count set to -7 after construction gave n == -2
        labels, counts = np.array([0.0, 1.0]), np.array([[1, 2], [3, 4]])
        t = ld.ContingencyTable(labels, labels, counts)
        labels[:] = [5.0, 3.0]
        counts[0, 0] = -7
        assert t.n == 10
        assert t.x_labels.tolist() == t.y_labels.tolist() == [0.0, 1.0]
        for array in (t.x_labels, t.y_labels, t.counts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7

    def test_counts_must_match_the_labels(self):
        with pytest.raises(ValueError, match="counts shape must match the label vectors"):
            ld.ContingencyTable([0.0, 1.0], [0.0], np.array([[1, 2]]))

    def test_smoothing_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="smoothing must be nonnegative"):
            ld.empirical_discrete_lift(table([[3, 1], [1, 3]]), smoothing=-0.5)

    @pytest.mark.parametrize("smoothing", [math.inf, math.nan, 1e308])
    def test_smoothing_must_be_finite_with_a_finite_total(self, smoothing):
        """inf and nan are refused by name, and 1e308 because the four
        smoothed cells add up past the largest double, all before any
        division, so no warning is raised first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for estimate in (ld.empirical_pmf, ld.empirical_mi, ld.empirical_discrete_lift):
                with pytest.raises(ValueError, match="smoothing must be nonnegative and finite"):
                    estimate(table([[3, 1], [1, 3]]), smoothing=smoothing)


class TestEmpiricalDiscreteLift:
    def test_diagonal_counts_no_smoothing(self):
        field = ld.empirical_discrete_lift(table([[10, 0], [0, 10]]), smoothing=0.0)
        np.testing.assert_allclose(field.values, [[2.0, 0.0], [0.0, 2.0]])
        assert field.labels[0, 1] == RegionLabel.ZERO

    def test_flat_counts(self):
        field = ld.empirical_discrete_lift(table([[5, 5], [5, 5]]), smoothing=0.0)
        np.testing.assert_allclose(field.values, 1.0)

    def test_smoothing_pipeline_hand_oracle(self):
        # counts [[1,0],[0,0]] + 0.5 per cell -> pmf [[1.5,.5],[.5,.5]]/3
        field = ld.empirical_discrete_lift(table([[1, 0], [0, 0]]), smoothing=0.5)
        smoothed = (np.array([[1.0, 0.0], [0.0, 0.0]]) + 0.5) / 3.0
        expected = oracles.brute_lift_table(smoothed)
        np.testing.assert_allclose(field.values, expected)

    def test_uses_estimated_tolerance(self):
        field = ld.empirical_discrete_lift(table([[5, 5], [5, 5]]))
        assert field.tol == ld.ESTIMATED_TOL

    def test_the_field_owns_its_grids(self):
        counts = table([[5, 5], [5, 5]])
        labels = counts.x_labels.copy(), counts.y_labels.copy()
        field = ld.empirical_discrete_lift(counts)
        field.grid_x[:] = field.grid_y[:] = 7.0
        np.testing.assert_array_equal(counts.x_labels, labels[0])
        np.testing.assert_array_equal(counts.y_labels, labels[1])


class TestEmpiricalMi:
    def test_diagonal(self):
        assert ld.empirical_mi(table([[10, 0], [0, 10]])).value == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_flat(self):
        assert ld.empirical_mi(table([[5, 5], [5, 5]])).value == pytest.approx(0.0, abs=1e-12)

    def test_hand_oracle_fixture(self):
        assert ld.empirical_mi(table([[4, 1], [1, 4]])).value == pytest.approx(
            0.19274475702175753, abs=1e-12
        )


class TestKernelLift:
    def test_bvn_lift_at_origin(self):
        pts = ld.sample(ld.BivariateNormal(0.6), 10**5, seed=0)
        grid = np.linspace(-1, 1, 5)
        est = ld.kernel_lift(pts, grid, grid)
        i = j = 2  # the (0, 0) grid point
        assert est.field.values[i, j] == pytest.approx(1.25, abs=0.1)
        assert est.n == 10**5

    def test_independent_normals_flat_center(self):
        dist = ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf)
        pts = ld.sample(dist, 10**5, seed=1)
        grid = np.linspace(-1, 1, 9)
        est = ld.kernel_lift(pts, grid, grid)
        assert np.all(est.field.values >= 0.9)
        assert np.all(est.field.values <= 1.1)

    def test_same_bits_on_any_worker_count(self, monkeypatch):
        """The chunks' sums are computed on codec._WORKERS threads and added
        in sample order, so the thread count moves no bit."""
        pts = ld.sample(ld.BivariateNormal(0.6), 5 * KDE_CHUNK + 11, seed=3)
        grid = np.linspace(-4.0, 4.0, 23)
        fields = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(codec, "_WORKERS", workers)
            fields.append(ld.kernel_lift(pts, grid, grid[:17]).field)
        for field in fields[1:]:
            np.testing.assert_array_equal(field.values.view(np.uint64),
                                          fields[0].values.view(np.uint64))
            assert (field.labels == fields[0].labels).all()

    @pytest.mark.parametrize("h", [1e-300, 5e-324])
    def test_bandwidths_whose_kernel_rows_overflow_raise_no_warning(self, monkeypatch, h):
        """z / h overflows for these bandwidths, and exp(0) / h too at
        5e-324; _kernel_rows handles both, in the pool's threads as well.
        No grid point is a sample, so every kernel value is flushed to 0
        and every cell is Undefined, as the unsilenced code gave."""
        monkeypatch.setattr(codec, "_WORKERS", 2)
        pts = ld.sample(ld.BivariateNormal(0.6), 2 * KDE_CHUNK + 5, seed=7)
        grid = np.linspace(-4.0, 4.0, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = ld.kernel_lift(pts, grid, grid, bandwidth_rule=(h, h)).field
        with np.errstate(all="ignore"):
            want = ld.kernel_lift(pts, grid, grid, bandwidth_rule=(h, h)).field
        np.testing.assert_array_equal(field.values.view(np.uint64), want.values.view(np.uint64))
        assert (field.labels == want.labels).all()
        assert np.isnan(field.values).all() and (field.labels == RegionLabel.UNDEFINED).all()

    def test_silverman_bandwidths(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal(1000)
        h = ld.silverman_bandwidth(xs)
        assert h == pytest.approx(1.06 * np.std(xs, ddof=1) * 1000 ** (-0.2), rel=1e-12)

    @pytest.mark.parametrize("data", [[], [1.0], [0.0, math.nan], [0.0, 1.0, math.inf]])
    def test_silverman_needs_two_finite_values(self, data):
        # one value gave NaN with a RuntimeWarning, a NaN gave NaN silently
        with pytest.raises(ValueError, match="two values, all finite"):
            ld.silverman_bandwidth(data)

    def test_fixed_bandwidths(self):
        pts = ld.sample(ld.BivariateNormal(0.0), 500, seed=3)
        est = ld.kernel_lift(pts, np.linspace(-1, 1, 3), np.linspace(-1, 1, 3), (0.25, 0.5))
        assert est.bandwidth_x == 0.25 and est.bandwidth_y == 0.5

    @pytest.mark.parametrize("bandwidths", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)])
    def test_fixed_bandwidths_must_be_positive_and_finite(self, bandwidths):
        # a NaN bandwidth used to give an all-Undefined field
        pts = ld.sample(ld.BivariateNormal(0.0), 500, seed=3)
        grid = np.linspace(-1, 1, 3)
        with pytest.raises(ValueError, match="positive and finite"):
            ld.kernel_lift(pts, grid, grid, bandwidths)

    @pytest.mark.parametrize("bandwidths", [(0.5,), (0.5, 0.5, 0.5), (), 0.5, None])
    def test_fixed_bandwidths_must_be_a_pair(self, bandwidths):
        # one number raised IndexError or TypeError, and a third was dropped
        pts = ld.sample(ld.BivariateNormal(0.0), 500, seed=3)
        grid = np.linspace(-1, 1, 3)
        with pytest.raises(ValueError, match="must be a pair"):
            ld.kernel_lift(pts, grid, grid, bandwidths)

    @pytest.mark.parametrize(
        "grid", [[-1.0, math.nan, 1.0], [1.0, 0.0, -1.0], [0.0, 0.0], [], [[-1.0, 0.0], [0.5, 1.0]]]
    )
    def test_grid_must_be_a_nonempty_increasing_grid_without_nan(self, grid):
        # a NaN or decreasing grid used to give NaN or mirrored cells, no error,
        # and a 2D one a field of the wrong shape
        pts = ld.sample(ld.BivariateNormal(0.0), 500, seed=3)
        with pytest.raises(ValueError, match="grids must"):
            ld.kernel_lift(pts, grid, np.linspace(-1, 1, 3))
        with pytest.raises(ValueError, match="grids must"):
            ld.kernel_lift(pts, np.linspace(-1, 1, 3), grid)

    @pytest.mark.parametrize(
        "row,col,value,bandwidths",
        [(5, 0, math.nan, "silverman"), (5, 0, math.nan, (0.5, 0.5)),
         (7, 1, math.inf, (0.5, 0.5)), (0, 1, -math.inf, (0.5, 0.5))],
    )
    def test_non_finite_samples_are_rejected(self, row, col, value, bandwidths):
        # a NaN sample used to give an all-NaN field, and an infinite one with
        # fixed bandwidths was counted in n but added no kernel mass
        pts = ld.sample(ld.BivariateNormal(0.6), 500, seed=3)
        pts[row, col] = value
        grid = np.linspace(-1, 1, 3)
        with pytest.raises(ValueError, match="finite"):
            ld.kernel_lift(pts, grid, grid, bandwidths)

    @pytest.mark.parametrize("shape", [(30, 4), (120,), (40, 1), (2, 30, 2)])
    def test_samples_must_have_shape_n_by_2(self, shape):
        # the values were re-paired by reshape(-1, 2): (30, 4) ran with n = 60
        pts = np.random.default_rng(5).standard_normal(shape)
        grid = np.linspace(-1, 1, 3)
        with pytest.raises(ValueError, match=r"samples must have shape \(n, 2\)"):
            ld.kernel_lift(pts, grid, grid)

    def test_min_sample_size(self):
        pts = ld.sample(ld.BivariateNormal(0.0), 19, seed=4)
        with pytest.raises(ld.MinSampleSize):
            ld.kernel_lift(pts, np.linspace(-1, 1, 3), np.linspace(-1, 1, 3))

    def test_unknown_bandwidth_rule(self):
        pts = ld.sample(ld.BivariateNormal(0.0), 50, seed=4)
        with pytest.raises(ValueError, match="unknown bandwidth rule 'scott'"):
            ld.kernel_lift(pts, np.linspace(-1, 1, 3), np.linspace(-1, 1, 3), "scott")

    def test_degenerate_sample(self):
        pts = np.column_stack([np.ones(50), np.arange(50.0)])
        with pytest.raises(ld.DegenerateSample):
            ld.kernel_lift(pts, np.linspace(-1, 1, 3), np.linspace(-1, 1, 3))


TINY = np.finfo(float).tiny  # 2^-1022


def flushed_reference(grid, data, h):
    """The unflushed kernel rows, each value below 2^-1022 replaced by +0.0,
    and the messages of the warnings computing them raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = ld.standard_normal_pdf((grid[:, None] - data) / h) / h
    return np.where(ref >= TINY, ref, 0.0), {str(w.message) for w in caught}


def assert_kernel_rows_flush_only_below_tiny(grid, data, h):
    want, ref_warnings = flushed_reference(grid, data, h)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _kernel_rows(grid, data, h)
    assert {str(w.message) for w in caught} <= ref_warnings
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    return got


class TestKernelRows:
    """``_kernel_rows`` is the unflushed formula, bit for bit, wherever that
    value is at least 2^-1022, and +0.0 elsewhere."""

    @settings(max_examples=300, deadline=None)
    @given(
        log10_h=st.floats(-3.0, 3.0),
        centre=st.floats(-1e3, 1e3),
        grid_offsets=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6, unique=True),
        data_offsets=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=60),
    )
    @example(log10_h=-300.0, centre=0.0, grid_offsets=[0.0, 10.0], data_offsets=[0.0, 37.6, 50.0])
    @example(log10_h=-300.0, centre=1.0, grid_offsets=[0.0], data_offsets=[0.0, 30.0])
    @example(log10_h=-16.0, centre=0.0, grid_offsets=[-30.0, 0.0], data_offsets=[25.0, 29.0])
    def test_equals_the_formula_where_normal(self, log10_h, centre, grid_offsets, data_offsets):
        h = 10.0**log10_h
        grid = centre + np.sort(grid_offsets) * h
        data = centre + np.array(data_offsets) * h
        assert_kernel_rows_flush_only_below_tiny(grid, data, h)

    @pytest.mark.parametrize("h", [5e-324, 1e-310, 1e-300, 1e-100, 3e-16, 1.5e-16, 1e-16,
                                   1e-3, 0.0193, 1.0, 3.0, 1e3, 1e100, 1e300])
    def test_a_dense_sweep_out_to_60_bandwidths(self, h):
        # every distance from 0 to 60 bandwidths in steps of 0.003, around
        # both grid points; the cut sits near 37.6 bandwidths for h = 1
        data = np.linspace(-60.0, 60.0, 40001) * h
        assert_kernel_rows_flush_only_below_tiny(np.array([-h, 0.0]), data, h)

    def test_an_overflowed_z_is_zero_not_nan(self):
        # z = +-inf gives the exponent -inf, which a float mask would make NaN
        grid = np.array([-1e308, 0.0, 1e308])
        data = np.array([-1e308, 0.0, 1e308, 1.0])
        got = assert_kernel_rows_flush_only_below_tiny(grid, data, 1e-300)
        assert not np.isnan(got).any() and (got == 0).sum() == 9


@pytest.fixture(scope="module")
def bvn_sample():
    return ld.sample(ld.BivariateNormal(0.6), 10**5, seed=1)


class TestKernelLiftOracle:
    def test_every_cell_matches_the_direct_oracle(self, bvn_sample):
        grid = np.linspace(-4.0, 4.0, 41)
        est = ld.kernel_lift(bvn_sample, grid, grid)
        want, _ = oracles.kernel_lift_direct(
            bvn_sample, grid, grid, est.bandwidth_x, est.bandwidth_y
        )
        assert np.isfinite(want).all()
        np.testing.assert_allclose(est.field.values, want, rtol=1e-9, atol=0.0)

    def test_a_cell_with_no_normal_marginal_kernel_value_is_undefined(self, bvn_sample):
        """Far-tail rule: a kernel value below 2^-1022 counts as 0, so a row or
        column where every sample's kernel value is below it has a zero
        marginal estimate and Undefined cells. The unflushed oracle gives
        those cells a ratio of subnormal estimates instead. Elsewhere, where
        the joint estimate is far above what the flushed values could add,
        the oracle and the estimate agree."""
        grid = np.linspace(-12.0, 12.0, 61)
        est = ld.kernel_lift(bvn_sample, grid, grid)
        hx, hy = est.bandwidth_x, est.bandwidth_y
        want, joint = oracles.kernel_lift_direct(bvn_sample, grid, grid, hx, hy)
        normal_x = oracles.gaussian_kernel_rows(grid, bvn_sample[:, 0], hx).max(axis=1) >= TINY
        normal_y = oracles.gaussian_kernel_rows(grid, bvn_sample[:, 1], hy).max(axis=1) >= TINY
        far = ~(normal_x[:, None] & normal_y)
        assert far.any() and not np.isnan(want[far]).all()  # the oracle defines some of them
        assert (est.field.labels[far] == RegionLabel.UNDEFINED).all()
        assert np.isnan(est.field.values[far]).all()
        # a flushed kernel value is below 2^-1022, so each term it drops from
        # a mean is below 2^-1022 times the largest kernel value (~4): a
        # joint mean above 1e-290 moves by far less than 1e-9 relative
        near = ~far & (joint >= 1e-290)
        assert near.sum() > 1000
        np.testing.assert_allclose(est.field.values[near], want[near], rtol=1e-9, atol=0.0)

    def test_marginals_whose_product_underflows_still_define_the_cell(self, bvn_sample):
        """Both marginal estimates positive, their product below 2^-1022: at
        (-8, -8) it is 3.15e-298 * 4.08e-297, which is 0 in doubles. The cell
        takes the oracle's label (Zero here, since its joint estimate is 0),
        not Undefined."""
        grid = np.linspace(-12.0, 12.0, 61)
        est = ld.kernel_lift(bvn_sample, grid, grid)
        hx, hy = est.bandwidth_x, est.bandwidth_y
        want, _ = oracles.kernel_lift_direct(bvn_sample, grid, grid, hx, hy)
        kx = oracles.gaussian_kernel_rows(grid, bvn_sample[:, 0], hx)
        ky = oracles.gaussian_kernel_rows(grid, bvn_sample[:, 1], hy)
        both = (kx.max(axis=1) >= TINY)[:, None] & (ky.max(axis=1) >= TINY)
        under = both & (np.outer(kx.mean(axis=1), ky.mean(axis=1)) < TINY)
        assert under.sum() > 50
        labels = [oracles.lift_label(v, ld.ESTIMATED_TOL) for v in want[under]]
        assert [label.value for label in est.field.labels[under]] == labels
        assert not np.isnan(est.field.values[both]).any()


class TestEstimatorConsistency:
    PMF3 = np.array(
        [
            [0.15, 0.05, 0.05],
            [0.05, 0.20, 0.05],
            [0.05, 0.05, 0.35],
        ]
    )

    def test_empirical_lift_and_mi_converge(self):
        dist = ld.DiscreteJoint(np.arange(3.0), np.arange(3.0), self.PMF3)
        pts = ld.sample(dist, 10**5, seed=42)
        t = ld.ContingencyTable.from_samples(pts)
        field_hat = ld.empirical_discrete_lift(t, smoothing=0.0)
        field = ld.lift_grid(dist, dist.x_support, dist.y_support)
        assert np.max(np.abs(field_hat.values - field.values)) < 0.05
        mi_hat = ld.empirical_mi(t).value
        assert abs(mi_hat - ld.mi_discrete(dist).value) < 0.01

    def test_kernel_lift_error_shrinks_with_n(self):
        # mean absolute error against the analytic lift on a central subgrid
        # drops as n grows 1e3 -> 1e4 -> 1e5, majority vote over 5 seeds
        dist = ld.BivariateNormal(0.6)
        grid = np.linspace(-1, 1, 11)
        analytic = ld.lift_grid(dist, grid, grid).values
        wins = 0
        for seed in range(5):
            errs = []
            for n in (10**3, 10**4, 10**5):
                pts = ld.sample(dist, n, seed=seed)
                est = ld.kernel_lift(pts, grid, grid)
                errs.append(float(np.mean(np.abs(est.field.values - analytic))))
            if errs[0] > errs[1] > errs[2]:
                wins += 1
        assert wins >= 3


class TestTargeting:
    def test_fixture_targets_second_profile(self, dep_pmf):
        result = ld.target_profile(dep_pmf, 1.0)
        assert result.x_opt == 1.0
        assert result.lift_at_opt == pytest.approx(1.6, abs=1e-12)
        assert result.baseline_rate == pytest.approx(0.5)
        assert result.boosted_rate == pytest.approx(0.8)
        assert result.expected_extra_per_n == pytest.approx(0.3)

    def test_identity_boosted_equals_baseline_times_lift(self, dep_pmf):
        result = ld.target_profile(dep_pmf, 0.0)
        assert result.boosted_rate == pytest.approx(
            result.baseline_rate * result.lift_at_opt, abs=1e-9
        )

    def test_independent_targeting_is_useless(self, indep_pmf):
        result = ld.target_profile(indep_pmf, 1.0)
        assert result.lift_at_opt == pytest.approx(1.0)
        assert result.expected_extra_per_n == pytest.approx(0.0)

    def test_continuous_positive_correlation_prefers_high_profile(self):
        result = ld.target_profile(
            ld.BivariateNormal(0.6), (1.0, 2.0), np.linspace(-3, 3, 61)
        )
        assert result.x_opt > 0
        # oracle: P(Y in [1,2] | X = x) / P(Y in [1,2]) via scipy quadrature
        base = oracles.quad_1d(oracles.normal_pdf, 1.0, 2.0)
        assert result.baseline_rate == pytest.approx(base, abs=1e-8)

        def cond_rate(x):
            s = math.sqrt(1 - 0.36)
            return oracles.normal_cdf((2 - 0.6 * x) / s) - oracles.normal_cdf((1 - 0.6 * x) / s)

        xs = np.linspace(-3, 3, 61)
        best = xs[int(np.argmax([cond_rate(x) for x in xs]))]
        assert result.x_opt == pytest.approx(best)
        assert result.boosted_rate == pytest.approx(cond_rate(best), abs=1e-6)

    BVN_RATE_CASES = [
        *(
            pytest.param(0.6, False, target, id=f"target{i}")
            for i, target in enumerate(
                [(1.0, 2.0), (10.0, 11.0), (-11.0, -10.0), (2.0, math.inf), (-math.inf, -3.0)]
            )
        ),
        *(
            pytest.param(r, True, target, id=f"view-{r}-{target}")
            for r in (0.6, 0.99, 0.999)
            for target in [(1.0, 2.0), (-2.0, -1.5), (3.0, 7.9)]
        ),
    ]

    @pytest.mark.parametrize("r,view,target", BVN_RATE_CASES)
    def test_bvn_rates_match_the_mpmath_oracle(self, r, view, target):
        """The law's conditional route: one vectorized C(hi | x) - C(lo | x),
        each difference on the side of the median where it does not cancel:
        (10, 11), outside the [-8, 8] box and a difference of two numbers
        within 1e-23 of 1, is still 1e-12 relative. Its ``as_continuous``
        view takes the generic route, one heap of strip integrals, and is
        within 1e-12 absolute for targets inside the box."""
        xs = np.linspace(-3.0, 3.0, 61)
        dist = ld.BivariateNormal(r)
        profiles, rates, baseline = (ld.as_continuous(dist) if view else dist).target_rates(
            target, xs
        )
        np.testing.assert_array_equal(profiles, xs)
        want = [oracles.bvn_conditional_rate_mp(r, x, *target) for x in xs]
        want_baseline = oracles.bvn_conditional_rate_mp(0.0, 0.0, *target)
        if view:
            np.testing.assert_allclose(rates, want, rtol=0.0, atol=1e-12)
            assert baseline == pytest.approx(want_baseline, rel=0.0, abs=1e-12)
        else:
            np.testing.assert_allclose(rates, want, rtol=1e-12, atol=0.0)
            assert baseline == pytest.approx(want_baseline, rel=1e-12)

    def test_generic_rates_are_one_heap_of_strips(self, monkeypatch):
        """A law without a conditional CDF integrates the strips of all 201
        default grid points in one vector-valued heap: two 1D quadratures,
        the baseline and the strips, not one per grid point."""
        from liftdep import distributions as dm

        calls, quad_1d = [], dm.adaptive_quad_1d

        def counted(*args, **kwargs):
            calls.append(quad_1d(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(dm, "adaptive_quad_1d", counted)
        profiles, rates, _ = ld.as_continuous(ld.BivariateNormal(0.9)).target_rates(
            (1.0, 2.0), None
        )
        assert profiles.size == 201
        assert len(calls) == 2
        assert np.shape(calls[1].value) == (201,) and calls[1].converged
        np.testing.assert_array_equal(rates, calls[1].value / dm.standard_normal_pdf(profiles))

    def test_circular_cauchy_half_line_target(self):
        # P(Y >= 1) = 1/4 and P(Y >= 1 | X = x) = (1 - 1/sqrt(2 + x^2)) / 2,
        # largest at the grid ends; ties go to the smaller x
        result = ld.target_profile(ld.CircularCauchy(), (1.0, math.inf), np.linspace(-3, 3, 61))
        assert result.baseline_rate == pytest.approx(1.0 - oracles.cauchy_cdf(1.0), abs=1e-10)
        assert result.x_opt == -3.0
        assert result.boosted_rate == pytest.approx((1 - 1 / math.sqrt(11.0)) / 2, abs=1e-10)

    def test_default_grid_needs_a_bounded_x_axis(self):
        with pytest.raises(ValueError, match="x axis"):
            ld.target_profile(ld.CircularCauchy(), (1.0, 2.0))

    def test_table_input(self):
        result = ld.target_profile(table([[8, 2], [2, 8]]), 1.0)
        assert result.x_opt == 1.0
        assert result.boosted_rate == pytest.approx(0.8)

    def test_zero_mass_target(self, dep_pmf):
        with pytest.raises(ld.TargetHasZeroMass):
            ld.target_profile(dep_pmf, 7.0)
        dist = ld.DiscreteJoint([0.0, 1.0], [0.0, 1.0], [[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(ld.TargetHasZeroMass):
            ld.target_profile(dist, 1.0)

    @pytest.mark.parametrize(
        "grid", [[], [math.nan, 1.0], [0.0, math.nan], [[0.0, 1.0], [2.0, 3.0]], 0.5]
    )
    def test_profile_grid_must_be_nonempty_and_free_of_nan(self, grid):
        # a grid that is not 1D raised IndexError
        with pytest.raises(ValueError, match="profile grid"):
            ld.target_profile(ld.BivariateNormal(0.6), (1.0, 2.0), grid)

    def test_continuous_target_must_be_a_pair(self):
        # one number raised TypeError
        with pytest.raises(ValueError, match="target interval must be a pair of numbers, got 1.0"):
            ld.target_profile(ld.BivariateNormal(0.6), 1.0)

    def test_discrete_target_must_be_one_label(self, dep_pmf):
        # a pair raised TypeError
        with pytest.raises(ValueError, match=r"target label must be one number, got \(0.0, 1.0\)"):
            ld.target_profile(dep_pmf, (0.0, 1.0))

    @pytest.mark.parametrize("label", [None, object(), "1"], ids=["None", "object", "str"])
    def test_discrete_target_must_be_a_real_number(self, dep_pmf, label):
        # None and object() raised TypeError, and "1" was read as 1.0
        with pytest.raises(ValueError, match="target label must be one number, got "):
            ld.target_profile(dep_pmf, label)

    def test_numpy_scalar_labels_are_numbers(self, dep_pmf):
        expected = ld.target_profile(dep_pmf, 1.0)
        assert ld.target_profile(dep_pmf, 1) == expected
        assert ld.target_profile(dep_pmf, np.float64(1.0)) == expected
        assert ld.target_profile(dep_pmf, np.int64(1)) == expected

    def test_numpy_pair_target_matches_the_tuple(self):
        # a numpy pair passed the rates and then raised TypeError
        grid = np.linspace(-3, 3, 31)
        result = ld.target_profile(ld.BivariateNormal(0.6), np.array([1.0, 2.0]), grid)
        assert result == ld.target_profile(ld.BivariateNormal(0.6), (1.0, 2.0), grid)
        assert result.target_y == (1.0, 2.0)

    @pytest.mark.parametrize("target", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)])
    def test_target_interval_must_increase(self, target):
        with pytest.raises(ValueError, match="lo < hi"):
            ld.target_profile(ld.BivariateNormal(0.6), target)

    @pytest.mark.parametrize("view", [False, True], ids=["conditional", "generic"])
    def test_zero_mass_target_interval(self, view):
        dist = ld.BivariateNormal(0.6)
        with pytest.raises(ld.TargetHasZeroMass, match="carries no mass"):
            ld.target_profile(ld.as_continuous(dist) if view else dist, (100.0, 101.0))

    def test_no_profile_with_positive_marginal_density(self):
        with pytest.raises(ld.TargetHasZeroMass, match="no grid profile has positive"):
            ld.target_profile(ld.BivariateNormal(0.6), (0.0, 1.0), [1e4])

    def test_generic_route_skips_profiles_without_density(self):
        """X ~ U(0, 1) independent of Y ~ N(0, 1): no rate at x = -0.5, where
        rho_X = 0, and P(0 <= Y <= 1) at x = 0.5."""
        dist = ld.IndependentProduct(ld.uniform_pdf(0.0, 1.0), ld.standard_normal_pdf)
        want = float(ld.standard_normal_cdf(1.0)) - 0.5
        profiles, rates, baseline = dist.target_rates((0.0, 1.0), [-0.5, 0.5])
        assert rates[0] == -np.inf
        assert rates[1] == pytest.approx(want, rel=1e-9)
        assert baseline == pytest.approx(want, rel=1e-9)
        assert ld.target_profile(dist, (0.0, 1.0), [-0.5, 0.5]).x_opt == 0.5

    def test_tie_breaks_to_smallest_profile(self):
        dist = ld.DiscreteJoint(
            [0.0, 1.0, 2.0],
            [0.0, 1.0],
            [[0.2, 0.2], [0.2, 0.2], [0.1, 0.1]],
        )
        result = ld.target_profile(dist, 1.0)
        assert result.x_opt == 0.0

    def test_brute_force_argmax_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            counts = rng.integers(0, 30, size=(nx, ny))
            if counts.sum() == 0:
                counts[0, 0] = 1
            t = ld.ContingencyTable(
                np.arange(nx, dtype=float), np.arange(ny, dtype=float), counts
            )
            pmf = counts / counts.sum()
            col = int(rng.integers(0, ny))
            if pmf[:, col].sum() == 0:
                continue
            result = ld.target_profile(t, float(col))
            px = pmf.sum(axis=1)
            rates = [
                pmf[i, col] / px[i] if px[i] > 0 else -np.inf for i in range(nx)
            ]
            assert result.boosted_rate == pytest.approx(max(rates), abs=1e-12)
            assert result.x_opt == float(int(np.argmax(rates)))

    def test_result_json(self, dep_pmf):
        buf = io.StringIO()
        write_json(buf, ld.target_profile(dep_pmf, 1.0).to_dict())
        payload = json.loads(buf.getvalue())
        assert set(payload) == {
            "target_y",
            "x_opt",
            "lift_at_opt",
            "baseline_rate",
            "boosted_rate",
            "expected_extra_per_n",
        }
        buf2 = io.StringIO()
        write_json(
            buf2,
            ld.target_profile(ld.BivariateNormal(0.6), (1.0, 2.0), np.linspace(-3, 3, 31)).to_dict(),
        )
        assert json.loads(buf2.getvalue())["target_y"] == [1.0, 2.0]
