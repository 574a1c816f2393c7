"""Command-line surface: one subcommand per library operation.

Every subcommand reads flat long-form flags, writes CSV or JSON to ``--out``
(``-`` for stdout), and is deterministic: identical argv and seed produce
byte-identical output. Exit codes: 0 success, 1 domain error (the stable
error name is printed on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import distributions as dm
from . import estimation as est
from . import information as info
from . import lift as lf
from . import scaling as sc
from .errors import LiftDepError

CURVE_SPECS = (
    "curve-normal-identity",
    "curve-uniform-identity",
    "curve-normal-double",
    "curve-uniform-square",
)
DIST_CHOICES = ("bvn", "cauchy-circular", "indep-normal") + CURVE_SPECS


def _make_curve(spec: str) -> dm.CurveSingularJoint:
    """One branch ``y = phi(x)`` over the whole X support."""
    normal = (dm.standard_normal_pdf, (-8.0, 8.0))
    uniform = (dm.uniform_pdf(0.0, 1.0), (0.0, 1.0))
    marginal_x, support, phi, dphi = {
        "curve-normal-identity": (*normal, lambda x: x, np.ones_like),
        "curve-uniform-identity": (*uniform, lambda x: x, np.ones_like),
        "curve-normal-double": (*normal, lambda x: 2.0 * x, lambda x: np.full_like(x, 2.0)),
        "curve-uniform-square": (*uniform, lambda x: x**2, lambda x: 2.0 * x),
    }[spec]
    branch = dm.CurveBranch(
        phi=lambda x: phi(np.asarray(x, dtype=float)),
        dphi=lambda x: dphi(np.asarray(x, dtype=float)),
        domain=support,
    )
    return dm.CurveSingularJoint(marginal_x=marginal_x, support_x=support, branches=(branch,))


def _build_dist(args, parser):
    has_file = getattr(args, "pmf_file", None) is not None
    has_named = getattr(args, "dist", None) is not None
    if has_file and has_named:
        parser.error("--dist and --pmf-file are mutually exclusive")
    if not has_file and not has_named:
        parser.error("one of --dist or --pmf-file is required")
    if has_file:
        with open(args.pmf_file, newline="") as f:
            return dm.read_pmf_csv(f)
    spec = args.dist
    if spec == "bvn":
        if args.r is None:
            parser.error("--dist bvn requires --r")
        return dm.BivariateNormal(args.r)
    if spec == "cauchy-circular":
        return dm.CircularCauchy()
    if spec == "indep-normal":
        return dm.IndependentProduct(dm.standard_normal_pdf, dm.standard_normal_pdf)
    return _make_curve(spec)


def _grids(args):
    if args.nx < 2 or args.ny < 2:
        raise ValueError("grid counts must be >= 2")
    return (
        np.linspace(args.xmin, args.xmax, args.nx),
        np.linspace(args.ymin, args.ymax, args.ny),
    )


@contextlib.contextmanager
def _out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as f:
            yield f


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_lift_grid(args, f, parser):
    if args.tol <= 0:
        parser.error("--tol must be positive")
    dist = _build_dist(args, parser)
    if isinstance(dist, dm.DiscreteJoint) and args.grid_default:
        field = lf.discrete_lift(dist, tol=args.tol)
    else:
        gx, gy = _grids(args)
        field = lf.lift_grid(dist, gx, gy, tol=args.tol)
    field.to_csv(f)


def _cmd_mi(args, f, parser):
    dist = _build_dist(args, parser)
    if isinstance(dist, dm.DiscreteJoint):
        report = info.mi_discrete(dist)
    elif isinstance(dist, dm.CurveSingularJoint):
        report = info.mi_curve(dist)
    elif isinstance(dist, dm.BivariateNormal) and args.method == "auto":
        report = info.mi_bvn_closed_form(dist.r)
    else:
        report = info.mi_continuous(dist, budget=args.budget)
    report.to_json(f)


def _cmd_regions(args, f, parser):
    if args.tol <= 0:
        parser.error("--tol must be positive")
    dist = _build_dist(args, parser)
    dm.write_json(f, lf.region_summary(dist, tol=args.tol).to_dict())


def _cmd_sibuya(args, f, parser):
    dist = _build_dist(args, parser)
    points = [(float(x), float(y)) for x, y in args.point]
    omega = [lf.sibuya_omega_at(dist, point) for point in points]
    dm.write_csv(f, ("x", "y", "omega"), *zip(*points), omega)


def _cmd_target(args, f, parser):
    dist = _build_dist(args, parser)
    if isinstance(dist, dm.DiscreteJoint):
        if args.target_y is None:
            parser.error("discrete targeting requires --target-y")
        result = est.target_profile(dist, args.target_y)
    else:
        if args.target_lo is None or args.target_hi is None:
            parser.error("continuous targeting requires --target-lo and --target-hi")
        x_grid = np.linspace(args.xmin, args.xmax, args.nx)
        result = est.target_profile(dist, (args.target_lo, args.target_hi), x_grid)
    result.to_json(f)


def _cmd_scaling(args, f, parser):
    with open(args.samples_file, newline="") as sf:
        points = dm.read_samples_csv(sf)
    estimate = sc.scaling_exponent(
        points,
        (args.center_x, args.center_y),
        eps_max=args.eps_max,
        eps_min=args.eps_min,
        k=args.k,
    )
    estimate.to_json(f)


def _cmd_weierstrass(args, f, parser):
    curve = sc.WeierstrassCurve(n_terms=args.n_terms)
    dm.write_csv(f, ("x", "w"), *sc.weierstrass_grid(curve, args.n_points).T)


def _cmd_counterexample(args, f, parser):
    schedule = [float(tok) for tok in args.r_schedule.split(",") if tok.strip()]
    info.convergence_counterexample(schedule).to_csv(f)


def _cmd_estimate_lift(args, f, parser):
    with open(args.samples_file, newline="") as sf:
        points = dm.read_samples_csv(sf)
    if args.estimator == "empirical":
        table = est.ContingencyTable.from_samples(points)
        field = est.empirical_discrete_lift(table, smoothing=args.smoothing)
    else:
        gx, gy = _grids(args)
        if (args.bandwidth_x is None) != (args.bandwidth_y is None):
            parser.error("--bandwidth-x and --bandwidth-y must be given together")
        rule = (
            "silverman"
            if args.bandwidth_x is None
            else (args.bandwidth_x, args.bandwidth_y)
        )
        field = est.kernel_lift(points, gx, gy, bandwidth_rule=rule).field
    field.to_csv(f)


def _cmd_sample(args, f, parser):
    dist = _build_dist(args, parser)
    dm.write_samples_csv(f, dm.sample(dist, args.n, args.seed))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_dist_flags(p):
    p.add_argument("--dist", choices=DIST_CHOICES, help="named distribution spec")
    p.add_argument("--r", type=float, help="correlation for --dist bvn")
    p.add_argument("--pmf-file", help="CSV pmf table instead of a named family")


def _add_grid_flags(p, default_n=201):
    p.add_argument("--xmin", type=float, default=-4.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--nx", type=int, default=default_n)
    p.add_argument("--ymin", type=float, default=-4.0)
    p.add_argument("--ymax", type=float, default=4.0)
    p.add_argument("--ny", type=int, default=default_n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftdep",
        description="Local lift dependence analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--seed", type=int, default=42)
        return p

    p = new("lift-grid", _cmd_lift_grid, "evaluate the lift on a grid (CSV)")
    _add_dist_flags(p)
    _add_grid_flags(p)
    p.add_argument("--tol", type=float, default=lf.ANALYTIC_TOL)
    p.add_argument(
        "--grid-default",
        action="store_true",
        help="for pmf input, use the support grid instead of --xmin/--xmax/...",
    )

    p = new("mi", _cmd_mi, "mutual information (JSON)")
    _add_dist_flags(p)
    p.add_argument("--method", choices=("auto", "quadrature"), default="auto")
    p.add_argument("--budget", type=int, default=2**22)

    p = new("regions", _cmd_regions, "lift/inhibition region masses (JSON)")
    _add_dist_flags(p)
    p.add_argument("--tol", type=float, default=lf.ANALYTIC_TOL)

    p = new("sibuya", _cmd_sibuya, "Sibuya dependence ratio at points (CSV)")
    _add_dist_flags(p)
    p.add_argument(
        "--point",
        nargs=2,
        action="append",
        required=True,
        metavar=("X", "Y"),
        help="evaluation point; repeatable",
    )

    p = new("target", _cmd_target, "best profile for a target response (JSON)")
    _add_dist_flags(p)
    p.add_argument("--target-y", type=float, help="discrete target label")
    p.add_argument("--target-lo", type=float, help="continuous target lower edge")
    p.add_argument("--target-hi", type=float, help="continuous target upper edge")
    p.add_argument("--xmin", type=float, default=-3.0)
    p.add_argument("--xmax", type=float, default=3.0)
    p.add_argument("--nx", type=int, default=201)

    p = new("scaling", _cmd_scaling, "local scaling exponent from samples (JSON)")
    p.add_argument("--samples-file", required=True)
    p.add_argument("--center-x", type=float, required=True)
    p.add_argument("--center-y", type=float, required=True)
    p.add_argument("--eps-max", type=float, default=0.1)
    p.add_argument("--eps-min", type=float, default=0.01)
    p.add_argument("--k", type=int, default=10)

    p = new("weierstrass", _cmd_weierstrass, "Weierstrass graph data (CSV)")
    p.add_argument("--n-points", type=int, required=True)
    p.add_argument("--n-terms", type=int, default=30)

    p = new("counterexample", _cmd_counterexample, "MI convergence counterexample (CSV)")
    p.add_argument(
        "--r-schedule",
        default="0.9,0.99,0.999",
        help="comma-separated increasing correlations",
    )

    p = new("estimate-lift", _cmd_estimate_lift, "empirical or kernel lift from samples (CSV)")
    p.add_argument("--samples-file", required=True)
    p.add_argument("--estimator", choices=("empirical", "kernel"), default="kernel")
    p.add_argument("--smoothing", type=float, default=0.5)
    _add_grid_flags(p, default_n=101)
    p.add_argument("--bandwidth-x", type=float)
    p.add_argument("--bandwidth-y", type=float)

    p = new("sample", _cmd_sample, "draw sample pairs (CSV)")
    _add_dist_flags(p)
    p.add_argument("--n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        with _out(args.out) as f:
            args.fn(args, f, parser)
    except SystemExit as exc:  # parser.error from inside a subcommand
        return int(exc.code) if exc.code is not None else 0
    except LiftDepError as exc:
        print(f"error: {exc.name}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
