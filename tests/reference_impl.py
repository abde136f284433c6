"""Slow reference implementations, kept only as test oracles.

``_TailArrays`` is the per-estimator implementation the engine in
:mod:`censtail.estimators` replaced: one method per estimator, each
re-slicing the order statistics at its own k, with survival read off fully
built reference step curves.

``reference_km_curve`` and ``reference_na_curve`` build the Kaplan-Meier
and Nelson-Aalen curves of a sorted sample from the bottom, by a cumulative
product and a cumulative sum over the ranks.  They are the reference for
the curves of :mod:`censtail.survival`, which come from the tail engine's
sums from the top, and the survival oracle of ``_TailArrays`` and of the
engine's tests, which would otherwise compare the engine with itself.

``KERNEL_FORMULAS`` holds K, g' and g'' of each built-in kernel as
hand-expanded formulas on the support, the reference for the coefficient
table in :mod:`censtail.kernels`.

``blocked_suffix_sums`` is the blocked suffix-sum algorithm of
``censtail.estimators._suffix_sums`` for every length, the reference for
its one-block shortcut.

``whole_sample`` draws the sample of ``censtail.sample_censored`` whole,
the reference for the block samplers in :mod:`censtail.models`.

``empirical_H``, ``empirical_H1`` and ``survival_before`` give the
empirical distribution of the observed values, the empirical
sub-distribution of the uncensored ones and a curve's left limit: the
pieces of the hazard-integral form of the Nelson-Aalen estimator, from
which the integral-form oracles of the estimators are built.
"""

import numpy as np

from censtail.errors import DegenerateP, ZeroSurvivalAtThreshold
from censtail.samples import CensoredSample, _tie_blocks
from censtail.survival import StepCurve

KERNEL_FORMULAS = {
    "indicator": dict(
        k=lambda s: np.ones_like(s),
        g_prime=lambda s: np.ones_like(s),
        g_second=lambda s: np.zeros_like(s),
    ),
    "biweight": dict(
        k=lambda s: 1.875 * (1.0 - s**2) ** 2,
        g_prime=lambda s: 1.875 * (1.0 - s**2) * (1.0 - 5.0 * s**2),
        g_second=lambda s: 1.875 * (20.0 * s**3 - 12.0 * s),
    ),
    "triweight": dict(
        k=lambda s: 2.1875 * (1.0 - s**2) ** 3,
        g_prime=lambda s: 2.1875 * (1.0 - s**2) ** 2 * (1.0 - 7.0 * s**2),
        g_second=lambda s: 2.1875 * (-18.0 * s + 60.0 * s**3 - 42.0 * s**5),
    ),
}


class _TailArrays:
    """Per-sample precomputation shared by every estimator.

    Holds the logs of the order statistics and the Kaplan-Meier and
    Nelson-Aalen survival values evaluated at each order statistic
    (tie-aware, following each curve's own convention at a jump point).
    """

    def __init__(self, sample):
        self.n = sample.n
        self.z = sample.z
        self.delta = sample.delta.astype(float)
        self.logz = np.log(sample.z)
        self.na_at = reference_na_curve(sample).survival(sample.z)
        self.km_at = reference_km_curve(sample).survival(sample.z)

    def hill(self, k):
        n = self.n
        return float(np.mean(self.logz[n - k:]) - self.logz[n - k - 1])

    def p_hat(self, k):
        return float(np.mean(self.delta[self.n - k:]))

    def efg(self, k):
        p = self.p_hat(k)
        if p == 0.0:
            raise DegenerateP(f"all {k} top observations are censored")
        return self.hill(k) / p

    def worms(self, k):
        n = self.n
        threshold_survival = self.km_at[n - k - 1]
        if threshold_survival == 0.0:
            raise ZeroSurvivalAtThreshold(
                "Kaplan-Meier survival vanishes at the threshold order statistic"
            )
        weights = self.km_at[n - k - 1:n - 1]
        log_spacings = np.diff(self.logz[n - k - 1:])
        return float(np.sum(weights * log_spacings) / threshold_survival)

    def mns(self, k):
        n = self.n
        d = self.delta[n - k:][::-1]
        ratios = self.na_at[n - k:][::-1] / self.na_at[n - k - 1]
        logs = self.logz[n - k:][::-1] - self.logz[n - k - 1]
        i = np.arange(1, k + 1, dtype=float)
        return float(np.sum((d / i) * ratios * logs))

    def kernel(self, k, kern):
        n = self.n
        d = self.delta[n - k:][::-1]
        ratios = self.na_at[n - k:][::-1] / self.na_at[n - k - 1]
        logs = self.logz[n - k:][::-1] - self.logz[n - k - 1]
        i = np.arange(1, k + 1, dtype=float)
        return float(np.sum((d / i) * ratios * kern.g_prime(ratios) * logs))


def _drop_flat_steps(jumps, values):
    before = np.concatenate(([1.0], values[:-1]))
    keep = values < before
    return jumps[keep], values[keep]


def reference_km_curve(sample):
    """Kaplan-Meier curve of a sorted sample, from the bottom: just after
    each tie block, the product of the factors (n - i) / (n - i + 1) over
    the uncensored ranks i up to the block."""
    n = sample.n
    start, end = _tie_blocks(sample.z)
    positions = np.arange(n)
    factors = np.where(sample.delta == 1, (n - 1.0 - positions) / (n - positions), 1.0)
    jumps, values = _drop_flat_steps(sample.z[start], np.cumprod(factors)[end - 1])
    return StepCurve(jumps, values, include_at_jump=True)


def reference_na_curve(sample):
    """Nelson-Aalen curve of a sorted sample, from the bottom: just after
    each tie block, exp of minus the hazards 1 / (n - i + 1) summed over
    the uncensored ranks i up to the block."""
    n = sample.n
    start, end = _tie_blocks(sample.z)
    hazard = sample.delta / (n - np.arange(n))
    jumps, values = _drop_flat_steps(sample.z[start], np.exp(-np.cumsum(hazard)[end - 1]))
    return StepCurve(jumps, values, include_at_jump=False)


def blocked_suffix_sums(x, block=256):
    """Sums of x[..., i:] for every i, plus a trailing 0, along the last
    axis: reversed, zero-padded to whole blocks, a running sum inside each
    block plus the sum of the totals of the blocks above."""
    *lead, m = x.shape
    count = -(-m // block)
    blocks = np.zeros((*lead, count * block), x.dtype)
    blocks[..., :m] = x[..., ::-1]
    blocks = blocks.reshape(*lead, count, block)
    totals = blocks.sum(axis=-1)
    np.cumsum(blocks, axis=-1, out=blocks)
    blocks[..., 1:, :] += np.cumsum(totals, axis=-1)[..., :-1, None]
    sums = np.zeros((*lead, m + 1), x.dtype)
    sums[..., :m] = blocks.reshape(*lead, count * block)[..., m - 1::-1]
    return sums


def whole_sample(spec, n, rng):
    """All n loss uniforms of the stream, then all n censor uniforms, with a
    draw of exactly 0 taken as 2^-53, each through its quantile at once."""
    gen = rng.generator()
    u_loss = gen.random(n)
    u_loss[u_loss == 0.0] = 2.0**-53
    x = spec.loss.quantile(u_loss)
    if spec.censor is None:
        return CensoredSample(x, np.ones(n, dtype=np.int8))
    u_censor = gen.random(n)
    u_censor[u_censor == 0.0] = 2.0**-53
    c = spec.censor.quantile(u_censor)
    return CensoredSample(np.minimum(x, c), (x <= c).astype(np.int8))


def empirical_H(sample):
    """Empirical distribution of the observed values, as a survival curve:
    the proportion of observations strictly above z.  Its left limit at the
    i-th order statistic is (n - i + 1) / n."""
    n = sample.n
    start, end = _tie_blocks(sample.z)
    return StepCurve(sample.z[start], (n - end) / n, include_at_jump=True)


def empirical_H1(sample):
    """Empirical sub-distribution of the uncensored observations, as one
    minus a survival curve that drops by 1/n at each uncensored value."""
    n = sample.n
    start, end = _tie_blocks(sample.z)
    cum_unc = np.cumsum(sample.delta)[end - 1]
    jumps, values = _drop_flat_steps(sample.z[start], 1.0 - cum_unc / n)
    return StepCurve(jumps, values, include_at_jump=True)


def survival_before(curve, z):
    """Left limit of a step curve at z (scalar or array): its value just
    below z."""
    idx = np.searchsorted(curve.jump_points, np.asarray(z, dtype=float), side="left")
    out = np.concatenate(([1.0], curve.values_after))[idx]
    return float(out) if np.ndim(z) == 0 else out
