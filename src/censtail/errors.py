"""Exception hierarchy shared across the package.

Every class below the three bases is of exactly one of two kinds:

- :class:`UsageError`: the request itself is invalid, whatever the data (an
  unknown estimator or kernel, a bad configuration field, parameters
  outside their domain).  ``censtail`` exits 1 on it.
- :class:`DataError`: a valid request cannot be carried out on the data it
  was given (a malformed or empty sample, a k past the sample size, a
  degenerate estimate, a failed replication).  ``censtail`` exits 2 on it,
  and on any ``OSError`` from an input, configuration or output path.
"""


class CensTailError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(CensTailError):
    """The request is invalid, whatever the data."""


class DataError(CensTailError):
    """A valid request cannot be carried out on the given data.

    ``row`` is the 1-based line of the input the error was found on, where
    there is one.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptySample(DataError):
    """A sample with zero observations was supplied."""


class NonPositiveObservation(DataError):
    """An observation was zero, negative, or non-finite.

    Every estimator takes logarithms of observation ratios, so such values
    are hard errors rather than silently dropped rows.
    """


class InvalidIndicator(DataError):
    """A censoring indicator outside {0, 1} was supplied."""


class ParseError(DataError):
    """A CSV row could not be parsed."""


class InvalidK(DataError):
    """The number of top order statistics k is outside its valid range."""


class DegenerateP(DataError):
    """All of the k largest observations are censored (p-hat is zero)."""


class ZeroSurvivalAtThreshold(DataError):
    """The Kaplan-Meier survival at the threshold order statistic is zero."""


class TooFewPoints(DataError):
    """A curve diagnostic needs at least two defined points."""


class SimulationError(DataError):
    """A simulation replication failed; no partial results are returned."""


class UnknownKernel(UsageError):
    """No built-in kernel with the requested name exists."""


class InvalidSpec(UsageError):
    """Moment-specification parameters violate their constraints."""


class KernelAxiomViolation(UsageError):
    """A user-supplied kernel failed the kernel axiom checks."""


class DomainError(UsageError):
    """A model parameter or quantile argument is outside its domain."""


class ConfigError(UsageError, ValueError):
    """A request or configuration is invalid.

    ``field`` names the offending entry using dotted-path notation, e.g.
    ``model.loss.gamma1``, or an argument, e.g. ``estimators``.  It is a
    ValueError too, as :func:`~censtail.estimate_path` documents.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
