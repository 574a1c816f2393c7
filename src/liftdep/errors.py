"""Semantic exception hierarchy.

Public functions raise ValueError for malformed arguments and a LiftDepError
subclass for a domain condition of the law or the computation; the subclass
name is the stable, machine-readable identifier the CLI prints on stderr.
"""


class LiftDepError(Exception):
    """Base error for the liftdep library."""


class CurveSingularHasNoDensity(LiftDepError):
    """A curve-singular joint has no density w.r.t. area measure."""


class OutOfSupport(LiftDepError):
    """A discrete label is not present in the distribution's support."""


class DegenerateCorrelation(LiftDepError):
    """Bivariate-normal correlation with |r| >= 1."""


class NonMonotonePiece(LiftDepError):
    """The derivative changes sign inside a declared monotone piece."""


class DerivativeVanishes(LiftDepError):
    """|phi'(x*)| is numerically zero at a preimage of y."""


class UndefinedAtPoint(LiftDepError):
    """The requested pointwise quantity is undefined at this point."""


class QuadratureNotConverged(LiftDepError):
    """Adaptive quadrature exhausted its budget above the error target."""


class InsufficientRadii(LiftDepError):
    """Fewer than the minimum number of radii survived the count filter."""


class DegenerateSample(LiftDepError):
    """A sample axis has zero variance; no bandwidth can be formed."""


class MinSampleSize(LiftDepError):
    """Sample is smaller than the estimator's minimum size."""


class TargetHasZeroMass(LiftDepError):
    """The targeting event has zero marginal probability."""


class NotSampleable(LiftDepError):
    """No sampler is defined for this distribution class."""
