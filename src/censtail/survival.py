"""Product-limit survival estimators as step curves.

The Kaplan-Meier and Nelson-Aalen estimators of the underlying (uncensored)
distribution, read off the tail engine of :mod:`censtail.estimators` with
the whole sample as its view; an unsorted sample gives the curves of its
sorted copy.  Both are :class:`StepCurve` objects and differ only in their
jump values and in the evaluation convention at a jump point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import _top_view, _view_survival
from .samples import _finite_positive, _freeze, _tie_blocks


@dataclass(frozen=True)
class StepCurve:
    """Nonincreasing step function on (0, inf) starting at 1.

    Parameters
    ----------
    jump_points : ndarray
        Ascending positive reals where the curve steps down.
    values_after : ndarray
        Curve value on the interval following each jump, in [0, 1].
    include_at_jump : bool
        Evaluation convention at a jump point z: True means the value at z
        already includes the step at z (right-continuous, used by
        Kaplan-Meier, whose product runs over observations <= z); False
        means it does not (left-continuous, used by Nelson-Aalen, whose
        product runs over observations strictly below z).
    """

    jump_points: np.ndarray
    values_after: np.ndarray
    include_at_jump: bool

    def __post_init__(self):
        jumps = np.asarray(self.jump_points, dtype=float)
        values = np.asarray(self.values_after, dtype=float)
        if jumps.shape != values.shape or jumps.ndim != 1:
            raise ValueError("jump_points and values_after must be 1-d, equal length")
        if not (_finite_positive(jumps) and np.all(np.diff(jumps) > 0)):
            raise ValueError("jump_points must be strictly ascending finite positives")
        if not (np.all((values >= 0) & (values <= 1)) and np.all(np.diff(values) <= 0)):
            raise ValueError("values_after must be nonincreasing within [0, 1]")
        object.__setattr__(self, "jump_points", _freeze(jumps))
        object.__setattr__(self, "values_after", _freeze(values))

    def survival(self, z):
        """Curve value at z (scalar or array) under the curve's convention."""
        side = "right" if self.include_at_jump else "left"
        idx = np.searchsorted(self.jump_points, np.asarray(z, dtype=float), side=side)
        out = np.concatenate(([1.0], self.values_after))[idx]
        if np.ndim(z) == 0:
            return float(out)
        return out


def _curve(sample, km):
    """The Kaplan-Meier curve if ``km``, else the Nelson-Aalen curve.

    :func:`~censtail.estimators._view_survival` gives it up to a factor,
    fixed by a censored row at 0, below the sample, where the curve is 1.
    Steps are at the tie blocks holding an uncensored observation, not where
    the values change: the blocked sums are not flat to the bit across
    blocks.
    """
    z, delta = _top_view(sample, 0)
    z, delta = np.append(0.0, z), np.append(0, delta)
    start, end = blocks = _tie_blocks(z)
    values = _view_survival(delta / np.arange(z.size, 0, -1), blocks, km)
    if km:  # the value at a block includes the block's own factors
        values = values[end - 1] / values[0]
    else:  # the value after a block is the next block's, or the empty sum's
        values = np.append(values, 1.0)[end] / values[0]
    steps = delta[start] == 1  # uncensored rows lead their tie block
    return StepCurve(z[start][steps], values[steps], include_at_jump=km)


def kaplan_meier_curve(sample):
    """Kaplan-Meier product-limit estimator of the survival function.

    The product runs over observations at or below the evaluation point
    (right-continuous).  The curve reaches exactly zero when and only when
    the largest observation is uncensored.
    """
    return _curve(sample, True)


def nelson_aalen_curve(sample):
    """Nelson-Aalen estimator of the survival function.

    Each uncensored observation at rank i contributes a factor
    exp(-1 / (n - i + 1)), and the product runs over observations strictly
    below the evaluation point, so the curve is left-continuous and
    strictly positive everywhere; in particular it is safe as a
    denominator, unlike Kaplan-Meier.
    """
    return _curve(sample, False)


def kaplan_meier_survival(sample, x):
    """Kaplan-Meier survival at a single point.

    Builds the curve (O(n) sorted, O(n log n) unsorted) and evaluates once;
    construct :func:`kaplan_meier_curve` directly for repeated evaluation.
    """
    return kaplan_meier_curve(sample).survival(float(x))


def nelson_aalen_survival(sample, z):
    """Nelson-Aalen survival at a single point (strictly positive).

    Builds the curve (O(n) sorted, O(n log n) unsorted) and evaluates once;
    construct :func:`nelson_aalen_curve` directly for repeated evaluation.
    """
    return nelson_aalen_curve(sample).survival(float(z))
