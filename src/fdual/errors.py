"""Semantic exception hierarchy.

Hard contract violations raise; solver outcomes such as non-convergence,
unboundedness or infeasibility are reported as status flags on the result
objects instead (see ``primal.SolveReport``), so a caller never has to
catch an exception to learn that an optimum is infinite.
"""


class FdualError(Exception):
    """Base class for every error raised by this package."""


class SpaceMismatch(FdualError):
    """Two objects live on different outcome spaces."""


class NegativeWeight(FdualError, ValueError):
    """A weight vector contains a negative entry."""


class AllZero(FdualError, ValueError):
    """A weight vector is identically zero."""


class NotNormalized(FdualError, ValueError):
    """Probability masses do not sum to one beyond the repairable tolerance."""


class BadMinMass(FdualError, ValueError):
    """Minimum-mass parameter outside [0, 1/n)."""


class UnknownGenerator(FdualError, KeyError):
    """Requested divergence generator name is not in the catalog."""


class BallViolation(FdualError, ValueError):
    """Coefficient vector lies outside the admissible norm ball."""


class DimensionMismatch(FdualError, ValueError):
    """Vector/matrix dimensions are inconsistent."""


class UnsupportedNorm(FdualError, ValueError):
    """Ball projection requested for a norm exponent outside {1, 2, inf}."""


class Unbounded(FdualError):
    """A one-dimensional auxiliary problem has no minimizer in the search box."""


class SupportViolation(FdualError):
    """Data distribution is not dominated by a family member."""


class TooManyFeatures(FdualError, ValueError):
    """Brute-force oracle only supports up to two features."""


class UnknownSuite(FdualError, KeyError):
    """Requested verification suite name does not exist."""


class ParseError(FdualError, ValueError):
    """Instance or report document is malformed; message carries the field."""


class ValidationError(FdualError, ValueError):
    """Well-formed document with semantically invalid content."""
