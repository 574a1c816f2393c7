"""Local lift dependence analysis.

Pointwise lift fields, mutual information, Sibuya's dependence ratio, local
scaling exponents on singular supports, plug-in estimators, and lift-based
targeting, for discrete, absolutely continuous, and curve-singular joint
distributions of two real random variables.
"""

from .distributions import (
    BivariateNormal,
    CircularCauchy,
    ContinuousFamily,
    ContinuousJoint,
    CurveBranch,
    CurveSingularJoint,
    DiscreteJoint,
    IndependentProduct,
    JointDistribution,
    NamedFamily,
    as_continuous,
    bvn_density,
    circular_cauchy_density,
    density_at,
    derive_pushforward_density,
    pushforward_density_fn,
    read_pmf_csv,
    read_samples_csv,
    sample,
    standard_normal_cdf,
    standard_normal_pdf,
    standard_normal_quantile,
    uniform_pdf,
    write_pmf_csv,
    write_samples_csv,
)
from .errors import (
    CurveSingularHasNoDensity,
    DegenerateCorrelation,
    DegenerateSample,
    DerivativeVanishes,
    InsufficientRadii,
    LiftDepError,
    MinSampleSize,
    NonMonotonePiece,
    NotSampleable,
    OutOfSupport,
    QuadratureNotConverged,
    TargetHasZeroMass,
    UndefinedAtPoint,
)
from .estimation import (
    ContingencyTable,
    KernelLiftEstimate,
    TargetingResult,
    empirical_discrete_lift,
    empirical_mi,
    empirical_pmf,
    kernel_lift,
    silverman_bandwidth,
    target_profile,
)
from .information import (
    ConvergenceReport,
    MiMethod,
    MiReport,
    convergence_counterexample,
    mi_bvn_closed_form,
    mi_continuous,
    mi_curve,
    mi_discrete,
)
from .lift import (
    ANALYTIC_TOL,
    ESTIMATED_TOL,
    LiftField,
    RegionLabel,
    RegionSummary,
    continuous_lift_at,
    curve_lift_at,
    discrete_lift,
    lift_at,
    lift_grid,
    region_summary,
    sibuya_omega_at,
)
from .scaling import (
    WEIERSTRASS_DIMENSION,
    BallDensityProfile,
    ScalingEstimate,
    WeierstrassCurve,
    ball_density,
    ball_density_profile,
    scaling_exponent,
    weierstrass_eval,
    weierstrass_grid,
)

__version__ = "0.1.0"
