"""Product-limit survival estimators as step curves.

Two step curves are derived from a sorted censored sample: the
Kaplan-Meier and Nelson-Aalen estimators of the underlying (uncensored)
distribution.  Both are represented by the same :class:`StepCurve`
container and differ only in their jump values and in the evaluation
convention at a jump point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .samples import _freeze


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
        if jumps.size and (np.any(jumps <= 0) or np.any(np.diff(jumps) <= 0)):
            raise ValueError("jump_points must be strictly ascending positives")
        if np.any(values < 0) or np.any(values > 1) or np.any(np.diff(values) > 0):
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


def _tie_blocks(z):
    """Start and one-past-end index of each tie block of the sorted values z."""
    start = np.flatnonzero(np.concatenate(([True], z[1:] != z[:-1])))
    return start, np.append(start[1:], z.size)


def _km_after_blocks(sample, end):
    """Kaplan-Meier survival just after each tie block: the product of the
    factors (n - i) / (n - i + 1) over the uncensored ranks i up to the block."""
    n = sample.n
    positions = np.arange(n)
    ratio = (n - 1.0 - positions) / (n - positions)
    factors = np.where(sample.delta == 1, ratio, 1.0)
    return np.cumprod(factors)[end - 1]


def _na_after_blocks(sample, end):
    """Nelson-Aalen survival just after each tie block: exp of minus the
    hazards 1 / (n - i + 1) summed over the uncensored ranks i up to the block."""
    n = sample.n
    hazard = sample.delta / (n - np.arange(n))
    return np.exp(-np.cumsum(hazard)[end - 1])


def _drop_flat_steps(jumps, values):
    before = np.concatenate(([1.0], values[:-1]))
    keep = values < before
    return jumps[keep], values[keep]


def kaplan_meier_curve(sample):
    """Kaplan-Meier product-limit estimator of the survival function.

    The product runs over observations at or below the evaluation point
    (right-continuous).  The curve reaches exactly zero when and only when
    the largest observation is uncensored.
    """
    start, end = _tie_blocks(sample.z)
    jumps, values = _drop_flat_steps(sample.z[start], _km_after_blocks(sample, end))
    return StepCurve(jumps, values, include_at_jump=True)


def nelson_aalen_curve(sample):
    """Nelson-Aalen estimator of the survival function.

    Each uncensored observation at rank i contributes a factor
    exp(-1 / (n - i + 1)), and the product runs over observations strictly
    below the evaluation point, so the curve is left-continuous and
    strictly positive everywhere; in particular it is safe as a
    denominator, unlike Kaplan-Meier.
    """
    start, end = _tie_blocks(sample.z)
    jumps, values = _drop_flat_steps(sample.z[start], _na_after_blocks(sample, end))
    return StepCurve(jumps, values, include_at_jump=False)


def kaplan_meier_survival(sample, x):
    """Kaplan-Meier survival at a single point.

    Builds the curve (O(n)) and evaluates once; construct
    :func:`kaplan_meier_curve` directly for repeated evaluation.
    """
    return kaplan_meier_curve(sample).survival(float(x))


def nelson_aalen_survival(sample, z):
    """Nelson-Aalen survival at a single point (strictly positive).

    Builds the curve (O(n)) and evaluates once; construct
    :func:`nelson_aalen_curve` directly for repeated evaluation.
    """
    return nelson_aalen_curve(sample).survival(float(z))
