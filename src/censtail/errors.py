"""Exception hierarchy shared across the package."""


class CensTailError(Exception):
    """Base class for all errors raised by this package."""


class EmptySample(CensTailError):
    """A sample with zero observations was supplied."""


class NonPositiveObservation(CensTailError):
    """An observation was zero, negative, or non-finite.

    Every estimator takes logarithms of observation ratios, so such values
    are hard errors rather than silently dropped rows.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class InvalidIndicator(CensTailError):
    """A censoring indicator outside {0, 1} was supplied."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ParseError(CensTailError):
    """A CSV row could not be parsed."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class InvalidK(CensTailError):
    """The number of top order statistics k is outside its valid range."""


class DegenerateP(CensTailError):
    """All of the k largest observations are censored (p-hat is zero)."""


class ZeroSurvivalAtThreshold(CensTailError):
    """The Kaplan-Meier survival at the threshold order statistic is zero."""


class TooFewPoints(CensTailError):
    """A curve diagnostic needs at least two defined points."""


class UnknownKernel(CensTailError):
    """No built-in kernel with the requested name exists."""


class InvalidSpec(CensTailError):
    """Moment-specification parameters violate their constraints."""


class KernelAxiomViolation(CensTailError):
    """A user-supplied kernel failed the kernel axiom checks."""


class DomainError(CensTailError):
    """A model parameter or quantile argument is outside its domain."""


class ConfigError(CensTailError, ValueError):
    """A request or configuration is invalid.

    ``field`` names the offending entry using dotted-path notation, e.g.
    ``model.loss.gamma1``, or an argument, e.g. ``estimators``.  It is a
    ValueError too, as :func:`~censtail.estimate_path` documents.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class SimulationError(CensTailError):
    """A simulation replication failed; no partial results are returned."""
