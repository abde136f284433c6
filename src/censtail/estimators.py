"""Tail-index estimators for right-censored Pareto-type data.

Every estimator is a function of the sorted sample and the number k of top
order statistics entering the tail fit.  The observations above the
threshold order statistic (the (n-k)-th from below) carry the information;
k trades bias (large k) against variance (small k).

Every entry point runs the same engine: one pass over the k grid that reads
the Nelson-Aalen and Kaplan-Meier survival at the order statistics, computed
once per sample.  ``mns`` is the kernel estimator with the indicator kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan

import numpy as np

from .errors import (
    DegenerateP,
    InvalidK,
    KernelAxiomViolation,
    ZeroSurvivalAtThreshold,
)
from .kernels import INDICATOR
from .samples import Table
from .survival import _survival_at_order_stats

ESTIMATOR_NAMES = ("hill", "p_hat", "efg", "worms", "mns")

KERNEL_COLUMN_PREFIX = "kernel_"


def _check_k(k, n, allow_n=False):
    limit = n if allow_n else n - 1
    if not isinstance(k, (int, np.integer)):
        raise InvalidK(f"k must be an integer, got {k!r}")
    if not 1 <= k <= limit:
        raise InvalidK(f"k must satisfy 1 <= k <= {limit} (n = {n}), got {k}")
    return int(k)


def _check_kernel(kernel):
    if not getattr(kernel, "verified", False):
        raise KernelAxiomViolation(
            f"kernel {kernel.name!r} has not passed the axiom checks; "
            "use a built-in kernel or censtail.kernels.custom_kernel"
        )
    return kernel


def _tail_path(sample, k_list, names=(), kernels=()):
    """The tail engine behind every estimator entry point.

    Evaluates the estimators ``names`` and then one kernel estimator per
    entry of ``kernels`` at each already validated k of ``k_list``, and
    returns a float array of shape (len(names) + len(kernels), len(k_list)),
    NaN where a cell is undefined: ``efg`` when the top k are all censored,
    ``worms`` when the Kaplan-Meier survival at the threshold is zero.
    ``mns`` is the indicator-kernel row.  k = n is meaningful for p_hat only.
    """
    n = sample.n
    delta = sample.delta.astype(float)
    logz = np.log(sample.z)
    na_at, km_at = _survival_at_order_stats(sample)
    plain_rows = [(r, name) for r, name in enumerate(names) if name != "mns"]
    kernel_rows = [(r, INDICATOR) for r, name in enumerate(names) if name == "mns"]
    kernel_rows += [(len(names) + r, kern) for r, kern in enumerate(kernels)]
    out = np.full((len(names) + len(kernels), len(k_list)), np.nan)
    for j, k in enumerate(k_list):
        t = n - k - 1  # index of the threshold order statistic Z_{n-k:n}
        hill = np.mean(logz[t + 1:]) - logz[t]
        p = np.mean(delta[t + 1:])
        values = {"hill": hill, "p_hat": p, "efg": hill / p if p else np.nan}
        if km_at[t] != 0.0:
            values["worms"] = np.sum(km_at[t:n - 1] * np.diff(logz[t:])) / km_at[t]
        for r, name in plain_rows:
            out[r, j] = values.get(name, np.nan)
        if kernel_rows:
            # top order statistics from the largest down: i = 1..k
            ratio = na_at[t + 1:][::-1] / na_at[t]
            weighted = (delta[t + 1:][::-1] / np.arange(1, k + 1, dtype=float)) * ratio
            excess = logz[t + 1:][::-1] - logz[t]
            for r, kern in kernel_rows:
                out[r, j] = np.sum(weighted * kern.g_prime(ratio) * excess)
    return out


def _at_k(sample, k, names=(), kernels=()):
    return float(_tail_path(sample, (k,), names, kernels)[0, 0])


def hill(sample, k):
    """Hill estimator of the tail index of the observed sample.

    Average of log(Z_{n-i+1:n} / Z_{n-k:n}) over the k largest order
    statistics; under censoring it targets the tail index of Z, not the one
    of the variable of interest.
    """
    return _at_k(sample, _check_k(k, sample.n), ("hill",))


def p_hat(sample, k):
    """Proportion of uncensored observations among the k largest."""
    return _at_k(sample, _check_k(k, sample.n, allow_n=True), ("p_hat",))


def efg(sample, k):
    """Hill estimator divided by the top-k uncensored proportion.

    Raises
    ------
    DegenerateP
        When every one of the k largest observations is censored.
    """
    k = _check_k(k, sample.n)
    value = _at_k(sample, k, ("efg",))
    if isnan(value):
        raise DegenerateP(f"all {k} top observations are censored")
    return value


def worms(sample, k):
    """Kaplan-Meier weighted sum of consecutive log-spacings.

    Sums F_KM-bar(Z_{n-i:n}) / F_KM-bar(Z_{n-k:n}) * log(Z_{n-i+1:n}/Z_{n-i:n})
    for i = 1..k.  On complete data this telescopes to the Hill estimator.

    Raises
    ------
    ZeroSurvivalAtThreshold
        When the Kaplan-Meier survival at the threshold is exactly zero
        (only possible with ties at an uncensored maximum).
    """
    value = _at_k(sample, _check_k(k, sample.n), ("worms",))
    if isnan(value):
        raise ZeroSurvivalAtThreshold(
            "Kaplan-Meier survival vanishes at the threshold order statistic"
        )
    return value


def mns(sample, k):
    """Nelson-Aalen weighted tail-index estimator.

    Sums (delta_{[n-i+1:n]} / i) * R_i * log(Z_{n-i+1:n}/Z_{n-k:n}) for
    i = 1..k, where R_i is the Nelson-Aalen survival at Z_{n-i+1:n} divided
    by its value at the threshold Z_{n-k:n}.  The Nelson-Aalen survival is
    strictly positive, so there is no division hazard.  This is the kernel
    estimator with the indicator kernel.
    """
    return _at_k(sample, _check_k(k, sample.n), ("mns",))


def kernel_estimator(sample, k, kernel):
    """Kernel-smoothed Nelson-Aalen tail-index estimator.

    Parameters
    ----------
    sample : SortedCensoredSample
    k : int
        Number of top order statistics, 1 <= k <= n-1.
    kernel : Kernel
        Weight function; must satisfy the kernel axioms (built-ins do, and
        :func:`censtail.kernels.custom_kernel` verifies user kernels).

    Returns
    -------
    float
        Sum over i = 1..k of (delta_{[n-i+1:n]} / i) * R_i * g'(R_i) *
        log(Z_{n-i+1:n}/Z_{n-k:n}) with R_i the Nelson-Aalen survival ratio.
        With the indicator kernel this reduces exactly to :func:`mns`,
        because g' is 1 on the whole closed interval [0, 1] of possible
        ratios.
    """
    k = _check_k(k, sample.n)
    return _at_k(sample, k, kernels=(_check_kernel(kernel),))


@dataclass(frozen=True)
class EstimatePath:
    """Estimator values along an ascending grid of k.

    ``estimates`` maps a column name to a tuple aligned with ``k_values``;
    cells where an estimator is undefined (e.g. all top-k observations
    censored for ``efg``) hold None, never NaN.
    """

    k_values: tuple
    estimates: dict

    def __post_init__(self):
        k_values = tuple(int(k) for k in self.k_values)
        if any(k < 1 for k in k_values):
            raise InvalidK("all k values must be >= 1")
        if any(b <= a for a, b in zip(k_values, k_values[1:])):
            raise InvalidK("k values must be strictly ascending")
        estimates = {}
        for name, column in self.estimates.items():
            column = tuple(column)
            if len(column) != len(k_values):
                raise ValueError(f"column {name!r} length mismatch")
            if any(v is not None and isnan(v) for v in column):
                raise ValueError(f"column {name!r} stores NaN; use None")
            estimates[str(name)] = column
        object.__setattr__(self, "k_values", k_values)
        object.__setattr__(self, "estimates", estimates)

    def column(self, name):
        return self.estimates[name]

    def to_table(self):
        """Tabulate as columns k, <estimator>, ... in insertion order."""
        names = list(self.estimates)
        rows = tuple(
            (k, *(self.estimates[name][j] for name in names))
            for j, k in enumerate(self.k_values)
        )
        return Table(("k", *names), rows)


def estimate_path(sample, k_values, estimators=ESTIMATOR_NAMES, kernels=()):
    """Evaluate a set of estimators over a grid of k in one pass.

    Parameters
    ----------
    sample : SortedCensoredSample
    k_values : iterable of int
        Strictly ascending, all within [1, n-1].
    estimators : iterable of str
        Any of "hill", "p_hat", "efg", "worms", "mns".
    kernels : iterable of Kernel
        Each adds a column named ``kernel_<name>``.

    Returns
    -------
    EstimatePath
        Cells where an estimator raises a degeneracy error (DegenerateP,
        ZeroSurvivalAtThreshold) are None; invalid k is a hard error.
    """
    n = sample.n
    k_list = [_check_k(k, n) for k in k_values]
    if any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise InvalidK("k grid must be strictly ascending")
    names = [str(e) for e in estimators]
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ValueError(
                f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}"
            )
    kernels = tuple(_check_kernel(kern) for kern in kernels)
    rows = _tail_path(sample, k_list, names, kernels)
    columns = [*names, *(KERNEL_COLUMN_PREFIX + kern.name for kern in kernels)]
    return EstimatePath(
        tuple(k_list),
        {
            name: tuple(None if isnan(v) else v for v in row)
            for name, row in zip(columns, rows.tolist())
        },
    )
