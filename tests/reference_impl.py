"""Slow reference implementation of the tail estimators, kept only as a
test oracle for the engine in :mod:`censtail.estimators`.

``_TailArrays`` is the per-estimator implementation the engine replaced,
kept verbatim: one method per estimator, each re-slicing the order
statistics at its own k, with survival read off fully built step curves.
"""

import numpy as np

from censtail.errors import DegenerateP, ZeroSurvivalAtThreshold
from censtail.survival import kaplan_meier_curve, nelson_aalen_curve


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
        self.na_at = nelson_aalen_curve(sample).survival(sample.z)
        self.km_at = kaplan_meier_curve(sample).survival(sample.z)

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

