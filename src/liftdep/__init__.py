"""Local lift dependence analysis.

Pointwise lift fields, mutual information, Sibuya's dependence ratio, local
scaling exponents on singular supports, plug-in estimators, and lift-based
targeting, for discrete, absolutely continuous, and curve-singular joint
distributions of two real random variables.

Importing the package loads none of its modules: the first access to any
public name loads them all and binds every public name here (PEP 562), so
``liftdep.BivariateNormal`` and ``from liftdep import *`` work as if the
names were imported eagerly, while a process that imports only the modules
it needs (the command line does) pays for no other.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "distributions": (
        "BivariateNormal",
        "CircularCauchy",
        "ContinuousFamily",
        "ContinuousJoint",
        "CurveBranch",
        "CurveSingularJoint",
        "DiscreteJoint",
        "IndependentProduct",
        "JointDistribution",
        "as_continuous",
        "pushforward_density_fn",
        "read_pmf_csv",
        "read_samples_csv",
        "sample",
        "standard_normal_cdf",
        "standard_normal_pdf",
        "standard_normal_quantile",
        "uniform_pdf",
        "write_pmf_csv",
        "write_samples_csv",
    ),
    "errors": (
        "CurveSingularHasNoDensity",
        "DegenerateCorrelation",
        "DegenerateSample",
        "DerivativeVanishes",
        "InsufficientRadii",
        "LiftDepError",
        "MinSampleSize",
        "NonMonotonePiece",
        "NotSampleable",
        "OutOfSupport",
        "QuadratureNotConverged",
        "TargetHasZeroMass",
        "UndefinedAtPoint",
    ),
    "estimation": (
        "ContingencyTable",
        "KernelLiftEstimate",
        "TargetingResult",
        "empirical_discrete_lift",
        "empirical_mi",
        "empirical_pmf",
        "kernel_lift",
        "silverman_bandwidth",
        "target_profile",
    ),
    "information": (
        "ConvergenceReport",
        "MiMethod",
        "MiReport",
        "convergence_counterexample",
        "mi_bvn_closed_form",
        "mi_continuous",
        "mi_curve",
        "mi_discrete",
    ),
    "lift": (
        "ANALYTIC_TOL",
        "ESTIMATED_TOL",
        "LiftField",
        "RegionLabel",
        "RegionSummary",
        "lift_at",
        "lift_grid",
        "region_summary",
        "sibuya_omega_at",
    ),
    "scaling": (
        "WEIERSTRASS_DIMENSION",
        "BallDensityProfile",
        "ScalingEstimate",
        "WeierstrassCurve",
        "ball_density_profile",
        "scaling_exponent",
        "weierstrass_eval",
        "weierstrass_grid",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    # Any other name, a submodule's included, must raise: `from . import x`
    # inside a submodule then imports x instead of loading the namespace in
    # a circle. A first public name loads every module, as the eager package
    # did, so code that looks the modules up in sys.modules finds them all.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        loaded = importlib.import_module(f"{__name__}.{module}")
        globals().update((n, getattr(loaded, n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
