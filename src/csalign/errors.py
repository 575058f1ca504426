"""Semantic exception hierarchy shared across the package.

Every error raised by validation or numeric preconditions derives from
:class:`CsAlignError`, so callers can catch one base class at API
boundaries (the CLI maps them to exit code 3).
"""


class CsAlignError(ValueError):
    """Base class for all validation errors raised by this package."""


class ShapeMismatch(CsAlignError):
    """Two inputs that must agree in shape do not."""


class ZeroNormRow(CsAlignError):
    """An embedding row has (numerically) zero Euclidean norm."""


class NonFiniteSimilarity(CsAlignError):
    """A similarity matrix contains NaN or infinity."""


class NonFiniteSample(CsAlignError):
    """A sample matrix passed to MMD or CORAL contains NaN or infinity, or
    finite values whose kernel scale or covariances leave float range."""


class NotAPmf(CsAlignError):
    """A vector fails PMF validation (negative entry or bad row sum)."""


class LengthMismatch(CsAlignError):
    """Distributions passed together do not share a common support size."""


class TooFewDistributions(CsAlignError):
    """A multi-distribution divergence needs at least two inputs."""


class NegativeEntry(CsAlignError):
    """A sequence that must be non-negative contains a negative value."""


class DegenerateBandwidth(CsAlignError):
    """The median-heuristic bandwidth collapsed to zero."""


class TooFewSamples(CsAlignError):
    """A covariance-based statistic needs at least two samples."""


class BadK(CsAlignError):
    """Precision@K called with K outside [1, gallery size]."""


class NoRelevantItems(CsAlignError):
    """A retrieval query has no relevant gallery item."""


class NonFinitePerturbation(CsAlignError):
    """A finite-difference probe produced a non-finite loss value."""


class ConfigError(CsAlignError):
    """A configuration file or CLI argument could not be interpreted."""
