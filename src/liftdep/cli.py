"""Command-line surface: one subcommand per library operation.

Every subcommand reads flat long-form flags, writes CSV or JSON to ``--out``
(``-`` for stdout), and is deterministic: identical argv and seed produce
byte-identical output. Exit codes: 0 success, 1 domain error (the stable
error name is printed on stderr), 2 usage error. A handler decides every
usage error from argv alone, then reads its files and builds the law, then
computes, so a usage error never depends on an input file.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import re
import stat
import sys

import numpy as np

from .errors import LiftDepError

# Each handler imports the modules it uses, so a process loads only those of
# its subcommand; building the parser loads none of them.

CURVE_SPECS = (
    "curve-normal-identity",
    "curve-uniform-identity",
    "curve-normal-double",
    "curve-uniform-square",
)
DIST_CHOICES = ("bvn", "cauchy-circular", "indep-normal") + CURVE_SPECS
GRID_FLAGS = ("xmin", "xmax", "nx", "ymin", "ymax", "ny")


def _check_law(args, parser):
    """The usage rules of the law flags; ``main`` applies them before the handler's."""
    if args.pmf_file is not None and args.dist is not None:
        parser.error("--dist and --pmf-file are mutually exclusive")
    if args.pmf_file is None and args.dist is None:
        parser.error("one of --dist or --pmf-file is required")
    if args.dist == "bvn" and args.r is None:
        parser.error("--dist bvn requires --r")
    if args.dist != "bvn" and args.r is not None:
        parser.error("--r needs --dist bvn")


def _build_dist(args):
    from . import distributions as dm

    if args.pmf_file is not None:
        with open(args.pmf_file, newline="") as f:
            return dm.read_pmf_csv(f)
    if args.dist == "bvn":
        return dm.BivariateNormal(args.r)
    if args.dist == "cauchy-circular":
        return dm.CircularCauchy()
    if args.dist == "indep-normal":
        return dm.IndependentProduct(dm.standard_normal_pdf, dm.standard_normal_pdf)
    return dm.named_curve(args.dist)


def _given(args, names):
    """The first flag of ``names`` (argument names) given on the command line,
    or None. A flag that some route of a subcommand does not read defaults to
    None, and that route refuses it instead of ignoring it."""
    return next((f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None), None)


def _default(value, default):
    return default if value is None else value


def _axis(lo: float, hi: float, n: int, name: str) -> np.ndarray:
    """``n`` evenly spaced points from ``lo`` to ``hi``. ValueError unless
    ``hi - lo`` is finite: an infinite or NaN end, or a span past the largest
    double, would make numpy fill the axis with NaN and warn."""
    if not math.isfinite(hi - lo):
        raise ValueError(f"{name} must have finite ends, not NaN, and a finite span: {lo}, {hi}")
    return np.linspace(lo, hi, n)


def _grids(args, default_n: int):
    """The axes of the grid flags; one not given is -4 or 4, or ``default_n``
    points."""
    nx, ny = _default(args.nx, default_n), _default(args.ny, default_n)
    if nx < 2 or ny < 2:
        raise ValueError("grid counts must be >= 2")
    return (_axis(_default(args.xmin, -4.0), _default(args.xmax, 4.0), nx, "grids"),
            _axis(_default(args.ymin, -4.0), _default(args.ymax, 4.0), ny, "grids"))


def _tol(args, parser) -> float:
    from .lift import ANALYTIC_TOL

    tol = _default(args.tol, ANALYTIC_TOL)
    if not 0 < tol < math.inf:
        parser.error("--tol must be positive and finite")
    return tol


@contextlib.contextmanager
def _out(path: str):
    """The output stream: stdout for ``-``. A regular file (or a new path) is
    written to a sibling temporary file, with the permissions a plain ``open``
    would give, that replaces it only when the command succeeds, so a failing
    command leaves the file as it was. Anything else, such as a device or a
    FIFO, is opened directly."""
    if path == "-":
        yield sys.stdout
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", newline="") as f:
            yield f
        return
    directory, name = os.path.split(target)
    for n in itertools.count():
        tmp = os.path.join(directory, f".{name}.{os.getpid()}.{n}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        if mode is not None:
            os.chmod(fd, stat.S_IMODE(mode))
        with open(fd, "w", newline="") as f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_lift_grid(args, f, parser):
    from . import lift as lf

    tol = _tol(args, parser)
    flag = _given(args, GRID_FLAGS) if args.grid_default else None
    if flag:
        parser.error(f"{flag} conflicts with --grid-default")
    if args.grid_default and args.pmf_file is None:
        parser.error("--grid-default needs --pmf-file")
    dist = _build_dist(args)
    gx, gy = (dist.x_support, dist.y_support) if args.grid_default else _grids(args, 201)
    lf.lift_grid(dist, gx, gy, tol=tol).to_csv(f)


def _cmd_mi(args, f, parser):
    from . import codec
    from . import information as info
    from .quadrature import DEFAULT_BUDGET_2D

    closed_form = args.dist == "bvn" and args.method == "auto"
    continuous = args.dist is not None and args.dist not in CURVE_SPECS
    if args.budget is not None and args.budget <= 0:
        parser.error("--budget must be positive")
    if closed_form and args.budget is not None:
        parser.error("--budget with --dist bvn needs --method quadrature")
    if not continuous and (args.method == "quadrature" or args.budget is not None):
        parser.error("--method quadrature and --budget need a continuous --dist")
    dist = _build_dist(args)
    if closed_form:
        report = info.mi_bvn_closed_form(dist.r)
    elif continuous:
        report = info.mi_continuous(dist, budget=_default(args.budget, DEFAULT_BUDGET_2D))
    elif args.pmf_file is not None:
        report = info.mi_discrete(dist)
    else:
        report = info.mi_curve(dist)
    codec.write_json(f, report.to_dict())


def _cmd_regions(args, f, parser):
    from . import codec
    from . import lift as lf

    tol = _tol(args, parser)
    dist = _build_dist(args)
    codec.write_json(f, lf.region_summary(dist, tol=tol).to_dict())


def _cmd_sibuya(args, f, parser):
    from . import codec
    from . import lift as lf

    dist = _build_dist(args)
    omega = [lf.sibuya_omega_at(dist, point) for point in args.point]
    codec.write_csv(f, ("x", "y", "omega"), *zip(*args.point), omega)


def _cmd_target(args, f, parser):
    from . import codec
    from . import estimation as est

    if args.pmf_file is not None:
        flag = _given(args, ("target_lo", "target_hi", "xmin", "xmax", "nx"))
        if flag:
            parser.error(f"{flag} needs a continuous --dist")
        if args.target_y is None:
            parser.error("discrete targeting requires --target-y")
        target, x_grid = args.target_y, None
    else:
        if args.target_y is not None:
            parser.error("--target-y needs --pmf-file")
        if args.target_lo is None or args.target_hi is None:
            parser.error("continuous targeting requires --target-lo and --target-hi")
        target = (args.target_lo, args.target_hi)
        x_grid = _axis(_default(args.xmin, -3.0), _default(args.xmax, 3.0),
                       _default(args.nx, 201), "the profile grid")
    codec.write_json(f, est.target_profile(_build_dist(args), target, x_grid).to_dict())


def _cmd_scaling(args, f, parser):
    from . import codec
    from . import scaling as sc

    with open(args.samples_file, newline="") as sf:
        points = codec.read_samples_csv(sf)
    estimate = sc.scaling_exponent(
        points,
        (args.center_x, args.center_y),
        eps_max=args.eps_max,
        eps_min=args.eps_min,
        k=args.k,
    )
    codec.write_json(f, estimate.to_dict())


def _cmd_weierstrass(args, f, parser):
    from . import codec
    from . import scaling as sc

    curve = sc.WeierstrassCurve(n_terms=args.n_terms)
    codec.write_csv(f, ("x", "w"), *sc.weierstrass_grid(curve, args.n_points).T)


def _cmd_counterexample(args, f, parser):
    from . import information as info

    info.convergence_counterexample(args.r_schedule).to_csv(f)


def _cmd_estimate_lift(args, f, parser):
    from . import codec
    from . import estimation as est

    if args.estimator == "empirical":
        flag = _given(args, (*GRID_FLAGS, "bandwidth_x", "bandwidth_y"))
        if flag:
            parser.error(f"{flag} needs --estimator kernel")
    elif args.smoothing is not None:
        parser.error("--smoothing needs --estimator empirical")
    elif (args.bandwidth_x is None) != (args.bandwidth_y is None):
        parser.error("--bandwidth-x and --bandwidth-y must be given together")
    with open(args.samples_file, newline="") as sf:
        points = codec.read_samples_csv(sf)
    if args.estimator == "empirical":
        table = est.ContingencyTable.from_samples(points)
        field = est.empirical_discrete_lift(table, smoothing=_default(args.smoothing, 0.5))
    else:
        gx, gy = _grids(args, 101)
        rule = "silverman" if args.bandwidth_x is None else (args.bandwidth_x, args.bandwidth_y)
        field = est.kernel_lift(points, gx, gy, bandwidth_rule=rule).field
    field.to_csv(f)


def _cmd_sample(args, f, parser):
    from . import distributions as dm

    dm.write_samples_csv(f, dm.sample(_build_dist(args), args.n, args.seed))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _number(kind):
    """The argparse type of every ``kind`` flag: ``kind`` read as a CSV cell
    is (``codec._csv_float``: ASCII, no underscores), with argparse's wording."""

    def parse(text: str):
        from . import codec

        try:
            return codec._csv_float(text, "", kind)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None

    return parse


_float, _int = _number(float), _number(int)


def _floats(text: str) -> list[float]:
    """A comma-separated list of floats; blank entries are skipped."""
    return [_float(tok) for tok in text.split(",") if tok.strip()]


def _add_dist_flags(p):
    p.add_argument("--dist", choices=DIST_CHOICES, help="named distribution spec")
    p.add_argument("--r", type=_float, help="correlation for --dist bvn")
    p.add_argument("--pmf-file", help="CSV pmf table instead of a named family")


def _add_grid_flags(p):
    for axis in "xy":
        p.add_argument(f"--{axis}min", type=_float)
        p.add_argument(f"--{axis}max", type=_float)
        p.add_argument(f"--n{axis}", type=_int)


def build_parser() -> argparse.ArgumentParser:
    # A token that starts "-" and a digit, ".5", "inf" or "nan" (any case) is
    # a value, as _float reads it, not an option: argparse's own rule takes
    # only "-1" and "-1.5", so "--xmin -1e3" would lack its argument.
    negative = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
    parser = argparse.ArgumentParser(
        prog="liftdep",
        description="Local lift dependence analysis toolkit",
    )
    parser._negative_number_matcher = negative
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = negative
        p.set_defaults(fn=fn, parser=p)  # a handler's usage errors print its own usage
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        return p

    p = new("lift-grid", _cmd_lift_grid, "evaluate the lift on a grid (CSV)")
    _add_dist_flags(p)
    _add_grid_flags(p)
    p.add_argument("--tol", type=_float)
    p.add_argument(
        "--grid-default",
        action="store_true",
        help="with --pmf-file, use the support grid instead of --xmin/--xmax/...",
    )

    p = new("mi", _cmd_mi, "mutual information (JSON)")
    _add_dist_flags(p)
    p.add_argument("--method", choices=("auto", "quadrature"), default="auto")
    p.add_argument(
        "--budget",
        type=_int,
        help="quadrature evaluation budget (default 2**22); it counts the evaluations "
        "of the folded box, a quadrant for cauchy-circular and a half for bvn",
    )

    p = new("regions", _cmd_regions, "lift/inhibition region masses (JSON)")
    _add_dist_flags(p)
    p.add_argument("--tol", type=_float)

    p = new("sibuya", _cmd_sibuya, "Sibuya dependence ratio at points (CSV)")
    _add_dist_flags(p)
    p.add_argument(
        "--point",
        nargs=2,
        type=_float,
        action="append",
        required=True,
        metavar=("X", "Y"),
        help="evaluation point; repeatable",
    )

    p = new("target", _cmd_target, "best profile for a target response (JSON)")
    _add_dist_flags(p)
    p.add_argument("--target-y", type=_float, help="discrete target label")
    p.add_argument("--target-lo", type=_float, help="continuous target lower edge")
    p.add_argument("--target-hi", type=_float, help="continuous target upper edge")
    p.add_argument("--xmin", type=_float)
    p.add_argument("--xmax", type=_float)
    p.add_argument("--nx", type=_int)

    p = new("scaling", _cmd_scaling, "local scaling exponent from samples (JSON)")
    p.add_argument("--samples-file", required=True)
    p.add_argument("--center-x", type=_float, required=True)
    p.add_argument("--center-y", type=_float, required=True)
    p.add_argument("--eps-max", type=_float, default=0.1)
    p.add_argument("--eps-min", type=_float, default=0.01)
    p.add_argument("--k", type=_int, default=10)

    p = new("weierstrass", _cmd_weierstrass, "Weierstrass graph data (CSV)")
    p.add_argument("--n-points", type=_int, required=True)
    p.add_argument("--n-terms", type=_int, default=30)

    p = new("counterexample", _cmd_counterexample, "MI convergence counterexample (CSV)")
    p.add_argument(
        "--r-schedule",
        default="0.9,0.99,0.999",
        type=_floats,
        help="comma-separated increasing correlations",
    )

    p = new("estimate-lift", _cmd_estimate_lift, "empirical or kernel lift from samples (CSV)")
    p.add_argument("--samples-file", required=True)
    p.add_argument("--estimator", choices=("empirical", "kernel"), default="kernel")
    p.add_argument("--smoothing", type=_float)
    _add_grid_flags(p)
    p.add_argument("--bandwidth-x", type=_float)
    p.add_argument("--bandwidth-y", type=_float)

    p = new("sample", _cmd_sample, "draw sample pairs (CSV)")
    _add_dist_flags(p)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--seed", type=_int, default=42)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "pmf_file"):  # a subcommand that takes a law
            _check_law(args, args.parser)
        with _out(args.out) as f:
            args.fn(args, f, args.parser)
    except SystemExit as exc:  # --help, or parser.error while parsing or in a subcommand
        return int(exc.code) if exc.code is not None else 0
    except (LiftDepError, ValueError, OSError, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError; name the builtin
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
