"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion, including measured values and wall time.

Criterion C6a checks the bivariate-normal lift pattern against the closed
form. For 0 < r < 1 the Lift region {L > 1} lies between the branches of a
hyperbola with asymptotes |y - x| / |y + x| = sqrt((1 - r) / (1 + r)): a double
wedge around y = x that widens towards the corners, not a band of constant
width. C6a therefore asserts that every cell label of the r = 0.6 field on the
201x201 grid over [-4,4]^2 equals the label of the independent closed form,
and that at least 95% of the Lift-region probability mass lies in the band
|y - x| < 2. The share of Lift *cells* in that band (0.9243) is fixed by the
wedge geometry and is printed only as a diagnostic.
"""

import json
import math
import time

import numpy as np
import pytest

import liftdep as ld
from liftdep.cli import main
from liftdep.lift import RegionLabel
from liftdep.scaling import geometric_radii

import oracles

MI_CURVE_LIMIT = math.log(2.0 * math.sqrt(math.e) / math.sqrt(math.pi))


def _report(name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s)")


def test_c01_bvn_closed_form_mi(capsys):
    t0 = time.perf_counter()
    code = main(["mi", "--dist", "bvn", "--r", "0.6"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    payload = json.loads(out)
    ok = (
        code == 0
        and payload["method"] == "ClosedForm"
        and abs(payload["value"] - 0.223144) <= 1e-6
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report("C01 bvn closed-form MI", ok, f"value={payload['value']:.9f}", elapsed)
    assert ok


def test_c02_quadrature_matches_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.0, 0.3, 0.6, 0.9):
        quad = ld.mi_continuous(ld.BivariateNormal(r)).value
        worst = max(worst, abs(quad - ld.mi_bvn_closed_form(r).value))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 30.0
    _report("C02 quadrature vs closed form", ok, f"worst |diff|={worst:.2e}", elapsed)
    assert ok


def test_c03_circular_cauchy_mi():
    t0 = time.perf_counter()
    report = ld.mi_continuous(ld.CircularCauchy())
    elapsed = time.perf_counter() - t0
    ok = abs(report.value - 0.223) <= 5e-3 and elapsed < 60.0
    _report(
        "C03 circular cauchy MI",
        ok,
        f"value={report.value:.6f} err_est={report.abs_error_estimate:.1e}",
        elapsed,
    )
    assert ok


def test_c04_singular_limit_mi(normal_identity_curve):
    t0 = time.perf_counter()
    report = ld.mi_curve(normal_identity_curve)  # Y marginal derived, not supplied
    elapsed = time.perf_counter() - t0
    ok = abs(report.value - MI_CURVE_LIMIT) <= 1e-4 and elapsed < 5.0
    _report(
        "C04 singular-limit MI",
        ok,
        f"value={report.value:.7f} target={MI_CURVE_LIMIT:.7f}",
        elapsed,
    )
    assert ok


def test_c05_counterexample_schedule():
    t0 = time.perf_counter()
    report = ld.convergence_counterexample([0.9, 0.99, 0.999])
    elapsed = time.perf_counter() - t0
    mis = [row[1] for row in report.rows]
    ok = (
        all(b > a for a, b in zip(mis[:-1], mis[1:]))
        and all(mi > MI_CURVE_LIMIT for mi in mis)
        and all(row[2] for row in report.rows)
        and elapsed < 1.0
    )
    _report(
        "C05 convergence counterexample",
        ok,
        f"mis={[round(m, 4) for m in mis]} limit={report.limit_mi:.6f}",
        elapsed,
    )
    assert ok


def test_c06a_bvn_band_pattern():
    t0 = time.perf_counter()
    r = 0.6
    grid = np.linspace(-4.0, 4.0, 201)
    field = ld.lift_grid(ld.BivariateNormal(r), grid, grid)
    got = np.array([[lab.value for lab in row] for row in field.labels])
    dens = np.array([[oracles.bvn_pdf(r, x, y) for y in grid] for x in grid])
    phi = np.array([oracles.normal_pdf(x) for x in grid])
    want = np.array(
        [[oracles.lift_label(v, 1e-9) for v in row] for row in dens / np.outer(phi, phi)]
    )
    mismatches = int(np.sum(got != want))
    # the grid step is 0.04, so |y - x| < 2 is |i - j| < 50; a float test on
    # the coordinates would leave the Lift cells on the edge to rounding
    i, j = np.indices(got.shape)
    band = np.abs(i - j) < 50
    lift_cells = got == RegionLabel.LIFT.value
    mass_frac = float(dens[lift_cells & band].sum() / dens[lift_cells].sum())
    cell_frac = float(np.mean(band[lift_cells]))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and mass_frac >= 0.95 and elapsed < 30.0
    _report(
        "C06a bvn lift band",
        ok,
        f"label mismatches vs closed form = {mismatches}/{got.size} (need 0); "
        f"Lift mass in |y-x|<2 = {mass_frac:.4f} (need >=0.95); "
        f"Lift cells in band = {cell_frac:.4f} (wedge geometry, diagnostic)",
        elapsed,
    )
    assert ok


def test_c06b_cauchy_corner_cells():
    t0 = time.perf_counter()
    grid = np.linspace(-4.0, 4.0, 201)
    field = ld.lift_grid(ld.CircularCauchy(), grid, grid)
    corners = [(0, 0), (0, 200), (200, 0), (200, 200)]
    corner_ok = all(field.labels[i, j] == RegionLabel.LIFT for i, j in corners)
    elapsed = time.perf_counter() - t0
    ok = corner_ok and elapsed < 30.0
    vals = [float(field.values[i, j]) for i, j in corners]
    _report("C06b cauchy corner lift", ok, f"corner L={[round(v, 3) for v in vals]}", elapsed)
    assert ok


def test_c07_property_suite(dep_pmf, indep_pmf):
    t0 = time.perf_counter()
    failures = []

    # conditional-CDF identity on 12 probes
    probes = [
        (r, x, b)
        for r in (0.3, 0.6, 0.9)
        for (x, b) in ((-1.0, 0.0), (0.5, 1.5), (2.0, -0.5), (0.0, 1.0))
    ]
    assert len(probes) == 12
    for r, x, b in probes:
        dist = ld.BivariateNormal(r)
        val = oracles.quad_1d(
            lambda y: ld.lift_at(dist, (x, y)) * oracles.normal_pdf(y), -8.0, b
        )
        expected = oracles.normal_cdf((b - r * x) / math.sqrt(1 - r * r))
        if abs(val - expected) > 1e-4:
            failures.append(f"cond-cdf ({r},{x},{b}): {val - expected:.2e}")

    # independence <=> all-ones lift, on 5 + 5 fixtures
    rng = np.random.default_rng(123)
    indep_fixtures = [indep_pmf]
    for shape in ((3, 3), (2, 4), (5, 2)):
        px = oracles.random_pmf(rng, shape[0], 1).ravel()
        py = oracles.random_pmf(rng, shape[1], 1).ravel()
        indep_fixtures.append(
            ld.DiscreteJoint(
                np.arange(shape[0], dtype=float),
                np.arange(shape[1], dtype=float),
                np.outer(px, py),
            )
        )
    indep_fixtures.append(
        ld.IndependentProduct(ld.standard_normal_pdf, ld.standard_normal_pdf)
    )
    grid = np.linspace(-2, 2, 21)
    for k, fix in enumerate(indep_fixtures):
        if isinstance(fix, ld.DiscreteJoint):
            # outer products of random floats carry ulp-level rounding in
            # the marginal sums; the analytic Neutral tolerance governs
            values = ld.lift_grid(fix, fix.x_support, fix.y_support).values
            if not np.all(np.abs(values - 1.0) <= 1e-9):
                failures.append(f"independent fixture {k} not all ones")
        else:
            # the named product family evaluates the same product twice, so
            # the ratio is exactly one
            values = ld.lift_grid(fix, grid, grid).values
            if not np.all(values == 1.0):
                failures.append(f"independent fixture {k} not all ones")

    dep_fixtures = [
        dep_pmf,
        ld.DiscreteJoint([0.0, 1.0], [0.0, 1.0], [[0.5, 0.0], [0.0, 0.5]]),
        ld.BivariateNormal(0.6),
        ld.BivariateNormal(-0.5),
        ld.CircularCauchy(),
    ]
    for k, fix in enumerate(dep_fixtures):
        if isinstance(fix, ld.DiscreteJoint):
            values = ld.lift_grid(fix, fix.x_support, fix.y_support).values
        else:
            values = ld.lift_grid(fix, grid, grid).values
        defined = values[~np.isnan(values)]
        if np.all(np.abs(defined - 1.0) <= 1e-9):
            failures.append(f"dependent fixture {k} looks independent")

    # converse on an exactly-neutral field: product structure holds
    fix = indep_fixtures[1]
    for rows, cols in [((0, 2), (0, 1)), ((1, 3), (0, 3)), ((0, 1), (1, 2))]:
        rect = fix.pmf[rows[0] : rows[1], cols[0] : cols[1]].sum()
        prod = fix.p_x[rows[0] : rows[1]].sum() * fix.p_y[cols[0] : cols[1]].sum()
        if abs(rect - prod) > 1e-6:
            failures.append("converse rectangle mismatch")

    # under dependence both region masses sit strictly inside (0, 1)
    for k, fix in enumerate(dep_fixtures):
        summary = ld.region_summary(fix)
        if not (0.0 < summary.mass_lift < 1.0 and 0.0 < summary.mass_inhibit < 1.0):
            failures.append(f"region masses fixture {k}: {summary}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report("C07 property suite", ok, f"failures={failures or 'none'}", elapsed)
    assert ok


def test_c08_line_integral_consistency(normal_identity_curve, uniform_identity_curve):
    t0 = time.perf_counter()
    square_branch = ld.CurveBranch(
        phi=lambda x: np.asarray(x, dtype=float) ** 2,
        dphi=lambda x: 2.0 * np.asarray(x, dtype=float),
        domain=(0.0, 1.0),
    )
    square_curve = ld.CurveSingularJoint(ld.uniform_pdf(), (0.0, 1.0), (square_branch,))

    fixtures = [
        (normal_identity_curve, (-1.0, 0.5), lambda a, b: oracles.normal_cdf(b) - oracles.normal_cdf(a)),
        (uniform_identity_curve, (0.2, 0.9), lambda a, b: b - a),
        (square_curve, (0.3, 0.8), lambda a, b: b - a),
    ]
    worst = 0.0
    for dist, (a, b), mu_x in fixtures:
        rho_y = ld.pushforward_density_fn(dist)
        branch = dist.branches[0]

        def integrand(x, dist=dist, branch=branch, rho_y=rho_y):
            phi = float(branch.phi(x))
            slope = float(branch.dphi(x))
            lift = ld.lift_at(dist, (x, phi))
            return (
                lift
                * float(dist.marginal_x(x))
                * float(rho_y(phi))
                * math.sqrt(1.0 + slope * slope)
            )

        lhs = (math.pi / 2.0) * oracles.quad_1d(integrand, a, b)
        worst = max(worst, abs(lhs - mu_x(a, b)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _report("C08 line-integral identity", ok, f"worst |diff|={worst:.2e}", elapsed)
    assert ok


def test_c09_scaling_exponents():
    t0 = time.perf_counter()
    n = 10**6

    uniform_sq = ld.IndependentProduct(
        ld.uniform_pdf(0.0, 1.0), ld.uniform_pdf(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)
    )
    pts = ld.sample(uniform_sq, n, seed=42)
    est_sq = ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.2, eps_min=0.02, k=10)

    line = ld.CurveSingularJoint(
        ld.uniform_pdf(0.0, 1.0),
        (0.0, 1.0),
        (
            ld.CurveBranch(
                phi=lambda x: np.asarray(x, dtype=float),
                dphi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                domain=(0.0, 1.0),
            ),
        ),
    )
    pts = ld.sample(line, n, seed=42)
    est_line = ld.scaling_exponent(pts, (0.5, 0.5), eps_max=0.1, eps_min=0.01, k=10)

    curve = ld.WeierstrassCurve(n_terms=30)
    rng = np.random.default_rng(42)
    x = rng.random(n) * 0.5
    pts = np.column_stack([x, ld.weierstrass_eval(curve, x)])
    x0 = 0.3
    center = (x0, float(ld.weierstrass_eval(curve, x0)))
    est_w = ld.scaling_exponent(pts, center, eps_max=0.1, eps_min=0.005, k=10)

    elapsed = time.perf_counter() - t0
    ok = (
        abs(est_sq.s_hat - 2.0) <= 0.1
        and abs(est_line.s_hat - 1.0) <= 0.1
        and 1.0 < est_w.s_hat < 2.0
        and elapsed < 120.0
    )
    _report(
        "C09 scaling exponents",
        ok,
        f"square={est_sq.s_hat:.3f} line={est_line.s_hat:.3f} "
        f"weierstrass={est_w.s_hat:.3f} (reference dim {ld.WEIERSTRASS_DIMENSION:.3f}, "
        f"advisory |diff|={abs(est_w.s_hat - ld.WEIERSTRASS_DIMENSION):.3f})",
        elapsed,
    )
    assert ok


def test_c10_discrete_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_lift = worst_mi = 0.0
    for _ in range(100):
        nx = int(rng.integers(1, 7))
        ny = int(rng.integers(1, 7))
        pmf = oracles.random_pmf(rng, nx, ny, zero_fraction=float(rng.random() * 0.4))
        dist = ld.DiscreteJoint(np.arange(nx, dtype=float), np.arange(ny, dtype=float), pmf)
        field = ld.lift_grid(dist, dist.x_support, dist.y_support)
        expected = oracles.brute_lift_table(pmf)
        for i in range(nx):
            for j in range(ny):
                if expected[i][j] is None:
                    assert field.labels[i, j] == RegionLabel.UNDEFINED
                else:
                    worst_lift = max(worst_lift, abs(field.values[i, j] - expected[i][j]))
        worst_mi = max(worst_mi, abs(ld.mi_discrete(dist).value - oracles.brute_mi(pmf)))
    elapsed = time.perf_counter() - t0
    ok = worst_lift <= 1e-12 and worst_mi <= 1e-12 and elapsed < 5.0
    _report(
        "C10 discrete oracles",
        ok,
        f"worst lift diff={worst_lift:.2e}, worst MI diff={worst_mi:.2e} over 100 pmfs",
        elapsed,
    )
    assert ok


def test_c11_estimator_consistency():
    t0 = time.perf_counter()
    pmf3 = np.array(
        [
            [0.15, 0.05, 0.05],
            [0.05, 0.20, 0.05],
            [0.05, 0.05, 0.35],
        ]
    )
    dist = ld.DiscreteJoint(np.arange(3.0), np.arange(3.0), pmf3)
    pts = ld.sample(dist, 10**5, seed=42)
    tab = ld.ContingencyTable.from_samples(pts)
    lift_err = float(
        np.max(
            np.abs(
                ld.empirical_discrete_lift(tab, smoothing=0.0).values
                - ld.lift_grid(dist, dist.x_support, dist.y_support).values
            )
        )
    )
    mi_err = abs(ld.empirical_mi(tab).value - ld.mi_discrete(dist).value)

    bvn_pts = ld.sample(ld.BivariateNormal(0.6), 10**5, seed=42)
    grid = np.linspace(-1, 1, 5)
    est = ld.kernel_lift(bvn_pts, grid, grid)
    kernel_err = abs(est.field.values[2, 2] - 1.25)

    elapsed = time.perf_counter() - t0
    ok = lift_err <= 0.05 and mi_err <= 0.01 and kernel_err <= 0.1 and elapsed < 60.0
    _report(
        "C11 estimator consistency",
        ok,
        f"lift max-abs={lift_err:.4f}, MI diff={mi_err:.5f} nats, "
        f"kernel@origin diff={kernel_err:.4f}",
        elapsed,
    )
    assert ok


def test_c12_targeting(dep_pmf):
    t0 = time.perf_counter()
    result = ld.target_profile(dep_pmf, 1.0)
    fixture_ok = (
        result.x_opt == 1.0
        and result.boosted_rate == pytest.approx(0.8, abs=1e-12)
        and result.baseline_rate == pytest.approx(0.5, abs=1e-12)
        and result.lift_at_opt == pytest.approx(1.6, abs=1e-12)
        and result.boosted_rate == pytest.approx(result.baseline_rate * result.lift_at_opt)
    )

    rng = np.random.default_rng(99)
    brute_ok = True
    checked = 0
    while checked < 50:
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        counts = rng.integers(0, 40, size=(nx, ny))
        if counts.sum() == 0:
            continue
        col = int(rng.integers(0, ny))
        if counts[:, col].sum() == 0:
            continue
        tab = ld.ContingencyTable(
            np.arange(nx, dtype=float), np.arange(ny, dtype=float), counts
        )
        res = ld.target_profile(tab, float(col))
        pmf = counts / counts.sum()
        px = pmf.sum(axis=1)
        rates = [pmf[i, col] / px[i] if px[i] > 0 else -np.inf for i in range(nx)]
        if abs(res.boosted_rate - max(rates)) > 1e-12:
            brute_ok = False
        checked += 1

    elapsed = time.perf_counter() - t0
    ok = fixture_ok and brute_ok and elapsed < 5.0
    _report(
        "C12 targeting",
        ok,
        f"fixture x_opt={result.x_opt} boosted={result.boosted_rate}; "
        f"brute-force agreement on {checked} tables: {brute_ok}",
        elapsed,
    )
    assert ok
