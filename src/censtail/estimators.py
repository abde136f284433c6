"""Tail-index estimators for right-censored Pareto-type data.

Every estimator is a function of the sorted sample and the number k of top
order statistics entering the tail fit.  The observations above the
threshold order statistic (the (n-k)-th from below) carry the information;
k trades bias (large k) against variance (small k).

Every entry point runs the same engine, :func:`_tail_path`.  Its cost for a
whole k grid is an O(n) selection of the top k_max + 1 order statistics (a
slice, when the sample is already sorted), a sort of that top slice, then
O(k_max) vectorised suffix sums over it, gathered at the threshold of each
k; the Nelson-Aalen and Kaplan-Meier ratios come from the hazards inside
the slice.  The simulator hands its unsorted samples straight to the
engine, so it never sorts a whole sample.  The built-in kernels enter
through the polynomial coefficients of g'; a custom kernel has no such form
and costs O(k) per k of the grid.  ``mns`` is the kernel estimator with the
indicator kernel.
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
from .kernels import INDICATOR, Kernel
from .samples import SortedCensoredSample, Table
from .survival import _tie_blocks

ESTIMATOR_NAMES = ("hill", "p_hat", "efg", "worms", "mns")

KERNEL_COLUMN_PREFIX = "kernel_"


def _check_k(k, n, allow_n=False):
    limit = n if allow_n else n - 1
    if not isinstance(k, (int, np.integer)):
        raise InvalidK(f"k must be an integer, got {k!r}")
    if not 1 <= k <= limit:
        raise InvalidK(f"k must satisfy 1 <= k <= {limit} (n = {n}), got {k}")
    return int(k)


def _repeated(names):
    """The first of ``names`` that an earlier entry already has, or None."""
    return next((name for j, name in enumerate(names) if name in names[:j]), None)


def _check_kernel(kernel):
    if not getattr(kernel, "verified", False):
        raise KernelAxiomViolation(
            f"kernel {kernel.name!r} has not passed the axiom checks; "
            "use a built-in kernel or censtail.kernels.custom_kernel"
        )
    return kernel


_SUM_BLOCK = 256


def _suffix_sums(x):
    """Sums of x[..., i:] for every i, plus a trailing 0, along the last axis.

    The sums run from the last element down in blocks of ``_SUM_BLOCK``
    counted from the top: a running sum inside each block plus the sum of
    the totals of the blocks above.  That keeps the rounding error to about
    the block size plus the block count, not the length, and makes every
    sum the same to the last bit however far down the array reaches.
    """
    *lead, m = x.shape
    count = -(-m // _SUM_BLOCK)
    blocks = np.zeros((*lead, count * _SUM_BLOCK), x.dtype)
    blocks[..., :m] = x[..., ::-1]
    blocks = blocks.reshape(*lead, count, _SUM_BLOCK)
    sums = np.cumsum(blocks, axis=-1)
    sums[..., 1:, :] += np.cumsum(blocks.sum(axis=-1), axis=-1)[..., :-1, None]
    sums = sums.reshape(*lead, count * _SUM_BLOCK)[..., m - 1::-1]
    return np.concatenate((sums, np.zeros((*lead, 1), x.dtype)), axis=-1)


def _top_view(sample, lo):
    """The order statistics from the start of the tie block at sorted
    position ``lo`` up to the maximum, with their indicators: a slice of a
    :class:`SortedCensoredSample`, and for an unsorted sample the values at
    or above the ``lo``-th smallest, found by selection, then sorted.  The
    sort is stable, so the order is exactly the one of
    :func:`~censtail.samples.sort_with_concomitants`."""
    z, delta = sample.z, sample.delta
    if isinstance(sample, SortedCensoredSample):
        start = np.searchsorted(z, z[lo])
        return z[start:], delta[start:]
    top = z >= np.partition(z, lo)[lo]
    z, delta = z[top], delta[top]
    order = np.lexsort((-delta, z))
    return z[order], delta[order]


def _view_survival(z, hazard):
    """Nelson-Aalen and Kaplan-Meier survival at each order statistic of a
    top view, each up to a constant factor.

    ``hazard`` is delta / i with i the rank from the top.  Nelson-Aalen at
    z is exp(-H) with H the hazards of the tie blocks strictly below z, so
    it is proportional to exp of the hazards from z's block upwards;
    Kaplan-Meier multiplies the factors 1 - hazard of the blocks at or
    below z, so it is proportional to exp of minus the log factors above
    z's block.  Both sums run from the top (:func:`_suffix_sums`), which
    makes every value independent of how far down the view reaches.  The
    zero factor of an uncensored maximum is left out of the sums and
    zeroes the top block instead.
    """
    start, end = _tie_blocks(z)
    log_factor = np.append(np.log1p(-hazard[:-1]), 0.0)
    na_sums, km_sums = _suffix_sums(np.stack((hazard, log_factor)))
    km = np.exp(-km_sums[end])
    if hazard[-1]:
        km[-1] = 0.0
    size = end - start
    return np.repeat(np.exp(na_sums[start]), size), np.repeat(km, size)


def _tail_path(sample, k_list, names=(), kernels=()):
    """The tail engine behind every estimator entry point.

    Evaluates the estimators ``names`` and then one kernel estimator per
    entry of ``kernels`` at each already validated k of ``k_list``, and
    returns a float array of shape (len(names) + len(kernels), len(k_list)),
    NaN where a cell is undefined: ``efg`` when the top k are all censored,
    ``worms`` when the Kaplan-Meier survival at the threshold is zero.
    ``mns`` is the indicator-kernel row.  k = n is meaningful for p_hat only.
    ``sample`` is a :class:`SortedCensoredSample` or an unsorted
    :class:`~censtail.samples.CensoredSample`; both give the same values.

    Only the top k_max + 1 order statistics enter (:func:`_top_view`), and
    every cell is read off suffix sums over them at the threshold index t
    of each k.  With D_i = log Z_{i+1} - log Z_i and the sum over i >= t:

    - hill(k) = sum of D_i * (n - 1 - i), divided by k;
    - p_hat(k) = the number of uncensored among the top k, divided by k;
    - efg = hill / p_hat;
    - worms(k) = sum of D_i * KM_i, divided by KM_t;
    - a kernel with g'(R) = sum of c_m R^m adds, for each m, c_m times the
      sum of D_i * S_m(i + 1), divided by NA_t^(m+1), where S_m(j) sums
      (delta_l / (n - l)) * NA_l^(m+1) over l >= j.

    These are the defining sums of log(Z_l / Z_t) rearranged by summation
    by parts, so every term is nonnegative and no two large sums cancel.
    KM and NA enter only as ratios, so :func:`_view_survival` gives them up
    to a factor, from the view alone.  As every sum runs from the top down,
    no cell depends on the rest of the grid: each equals its scalar
    estimator bit for bit.  Kernels without ``g_prime_coefficients`` are
    evaluated one k at a time instead.
    """
    n = sample.n
    k = np.asarray(k_list, dtype=np.int64)
    z, delta = _top_view(sample, max(n - 1 - int(k.max(initial=1)), 0))
    t = z.size - 1 - k  # threshold indices into the view
    logz = np.log(z)
    spacing = np.diff(logz)
    above = np.arange(z.size - 1, 0, -1)  # order statistics above each spacing
    hazard = delta / np.arange(z.size, 0, -1)  # delta / i, i = rank from the top
    wanted = set(names)
    values = {}
    if wanted & {"hill", "efg"}:
        values["hill"] = _suffix_sums(spacing * above)[t] / k
    if wanted & {"p_hat", "efg"}:
        values["p_hat"] = _suffix_sums(delta.astype(np.int64))[t + 1] / k
    if "efg" in wanted:
        p = values["p_hat"]
        values["efg"] = np.divide(values["hill"], p, out=np.full(p.shape, np.nan),
                                  where=p != 0)
    entries = [INDICATOR if name == "mns" else name for name in names] + list(kernels)
    kerns = {e for e in entries if isinstance(e, Kernel)}
    if "worms" in wanted or kerns:
        na, km = _view_survival(z, hazard)
    if "worms" in wanted:
        km_t = km[t]
        values["worms"] = np.divide(_suffix_sums(km[:-1] * spacing)[t], km_t,
                                    out=np.full(km_t.shape, np.nan), where=km_t != 0)
    if kerns:
        values.update(_kernel_rows(kerns, t, hazard, logz, spacing, na))
    rows = [values[e] for e in entries]
    return np.array(rows, dtype=float).reshape(len(rows), k.size)


def _kernel_rows(kernels, t, weight, logz, spacing, na):
    """Kernel estimator values at the threshold indices ``t``, keyed by kernel."""
    rows = {}
    poly = [kern for kern in kernels if kern.g_prime_coefficients is not None]
    powers = sorted({m + 1 for kern in poly
                     for m, c in enumerate(kern.g_prime_coefficients) if c})
    if powers:
        na_pow = [None, na]
        while len(na_pow) <= powers[-1]:
            na_pow.append(na_pow[-1] * na)
        weighted = _suffix_sums(np.stack([weight * na_pow[p] for p in powers]))
        sums = _suffix_sums(spacing * weighted[:, 1:-1])[:, t]
        ratio_sums = {p: s / na_pow[p][t] for p, s in zip(powers, sums)}
        for kern in poly:
            rows[kern] = sum(c * ratio_sums[m + 1]
                             for m, c in enumerate(kern.g_prime_coefficients) if c)
    for kern in kernels:
        if kern.g_prime_coefficients is None:
            row = np.empty(t.size)
            for j, tj in enumerate(t.tolist()):
                ratio = na[tj + 1:] / na[tj]
                excess = logz[tj + 1:] - logz[tj]
                row[j] = np.sum(weight[tj + 1:] * ratio * kern.g_prime(ratio) * excess)
            rows[kern] = row
    return rows


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
    sample : SortedCensoredSample or CensoredSample
        An unsorted sample gives the same values as its sorted copy.
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
    sample : SortedCensoredSample or CensoredSample
        An unsorted sample gives the same values as its sorted copy.
    k_values : iterable of int
        Strictly ascending, all within [1, n-1].
    estimators : iterable of str
        Any of "hill", "p_hat", "efg", "worms", "mns".
    kernels : iterable of Kernel
        Each adds a column named ``kernel_<name>``.  A column name may
        appear only once.

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
    columns = [*names, *(KERNEL_COLUMN_PREFIX + kern.name for kern in kernels)]
    repeat = _repeated(columns)
    if repeat is not None:
        raise ValueError(f"column {repeat!r} is requested twice")
    rows = _tail_path(sample, k_list, names, kernels)
    return EstimatePath(
        tuple(k_list),
        {
            name: tuple(None if isnan(v) else v for v in row)
            for name, row in zip(columns, rows.tolist())
        },
    )
