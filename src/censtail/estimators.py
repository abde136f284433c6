"""Tail-index estimators for right-censored Pareto-type data.

Every estimator is a function of the sorted sample and the number k of top
order statistics entering the tail fit.  The observations above the
threshold order statistic (the (n-k)-th from below) carry the information;
k trades bias (large k) against variance (small k).

Every entry point runs the same engine, :func:`_tail_path`.  Its cost for a
whole k grid is an O(n) selection of the top k_max + 1 order statistics,
:func:`~censtail.samples.top_order_statistics` (a slice, when the sample is
already sorted), a sort of that top slice, then O(k_max) vectorised suffix
sums over it, gathered at the threshold of each k; the Nelson-Aalen and
Kaplan-Meier ratios come from the hazards inside the slice.  The simulator
draws each replication's top already sorted, which the engine takes as it
is, and ``censtail estimate`` reads only the selection (``read_csv(path,
top=k_max + 1)``) and sorts it, so neither sorts a whole sample.  The
built-in kernels enter through the polynomial coefficients of g'; a custom
kernel has no such form and costs O(k) per k of the grid.  ``mns`` is the
kernel estimator with the indicator kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isnan

import numpy as np

from .errors import (
    ConfigError,
    DegenerateP,
    InvalidK,
    KernelAxiomViolation,
    ZeroSurvivalAtThreshold,
)
from .kernels import INDICATOR, Kernel
from .samples import (
    SortedCensoredSample,
    Table,
    _integer,
    _tie_blocks,
    sort_with_concomitants,
    top_order_statistics,
)

ESTIMATOR_NAMES = ("hill", "p_hat", "efg", "worms", "mns")

KERNEL_COLUMN_PREFIX = "kernel_"


def _check_k(k, n, allow_n=False, error=InvalidK, **fields):
    """``k`` as a Python int in [1, n - 1] ([1, n] with ``allow_n``, [1, inf)
    with n None); anything else raises ``error`` with ``fields``."""
    k = _integer(k, "k", error, **fields)
    limit = inf if n is None else n if allow_n else n - 1
    if not 1 <= k <= limit:
        raise error(f"k must be >= 1, got {k}" if n is None else
                    f"k must satisfy 1 <= k <= {limit} (n = {n}), got {k}", **fields)
    return k


def _k_grid(k_values, n, error=InvalidK, **fields):
    """The k grid as a tuple of ints, each checked by :func:`_check_k` and above the
    last.  It is read one k at a time: a grid past n - 1 stops at its first k past it."""
    grid = []
    for k in k_values:
        k = _check_k(k, n, error=error, **fields)
        if grid and k <= grid[-1]:
            raise error(f"k grid must be strictly ascending, got {k} after {grid[-1]}", **fields)
        grid.append(k)
    return tuple(grid)


def _columns(estimators, kernel_names):
    """The output column names of a request: the ``estimators``, then
    ``kernel_<name>`` for each of ``kernel_names``.  An unknown estimator or
    a column asked for twice is a ConfigError on its field."""
    columns = []
    for field, names, prefix in (("estimators", estimators, ""),
                                 ("kernels", kernel_names, KERNEL_COLUMN_PREFIX)):
        for name in names:
            if field == "estimators" and name not in ESTIMATOR_NAMES:
                raise ConfigError(f"unknown estimator {name!r}; choose from "
                                  f"{', '.join(ESTIMATOR_NAMES)}", field=field)
            if prefix + name in columns:
                raise ConfigError(f"column {prefix + name!r} is requested twice",
                                  field=field)
            columns.append(prefix + name)
    return columns


def _check_kernel(kernel, error=KernelAxiomViolation, **fields):
    """``kernel`` if it is a verified :class:`Kernel`; anything else raises
    ``error`` with ``fields``."""
    if not isinstance(kernel, Kernel):
        raise error(f"expected a Kernel, got {kernel!r}; "
                    "make one with censtail.kernels.builtin_kernel or custom_kernel", **fields)
    if not kernel.verified:
        raise error(f"kernel {kernel.name!r} has not passed the axiom checks; "
                    "use a built-in kernel or censtail.kernels.custom_kernel", **fields)
    return kernel


_SUM_BLOCK = 256


def _suffix_sums(x):
    """Sums of x[..., i:] for every i, plus a trailing 0, along the last axis.

    The sums run from the last element down in blocks of ``_SUM_BLOCK``
    counted from the top: a running sum inside each block plus the sum of
    the totals of the blocks above.  That keeps the rounding error to about
    the block size plus the block count, not the length, and makes every
    sum the same to the last bit however far down the array reaches.  A
    last axis of at most one block is one running sum from the top, with
    the same bits: the zero padding of the block and the block totals add
    nothing to it.
    """
    *lead, m = x.shape
    sums = np.zeros((*lead, m + 1), x.dtype)
    if m <= _SUM_BLOCK:
        np.cumsum(x[..., ::-1], axis=-1, out=sums[..., :m][..., ::-1])
        return sums
    count = -(-m // _SUM_BLOCK)
    blocks = np.zeros((*lead, count * _SUM_BLOCK), x.dtype)
    blocks[..., :m] = x[..., ::-1]
    blocks = blocks.reshape(*lead, count, _SUM_BLOCK)
    totals = blocks.sum(axis=-1)
    np.cumsum(blocks, axis=-1, out=blocks)
    blocks[..., 1:, :] += np.cumsum(totals, axis=-1)[..., :-1, None]
    sums[..., :m] = blocks.reshape(*lead, count * _SUM_BLOCK)[..., m - 1::-1]
    return sums


def _top_view(sample, lo):
    """The order statistics from the start of the tie block at sorted
    position ``lo`` up to the maximum, with their indicators:
    :func:`~censtail.samples.top_order_statistics` of the top n - lo, sorted
    by :func:`~censtail.samples.sort_with_concomitants` unless it is
    already a slice of a sorted sample."""
    top = top_order_statistics(sample, sample.n - lo)
    if not isinstance(top, SortedCensoredSample):
        top = sort_with_concomitants(top)
    return top.z, top.delta


def _view_survival(hazard, blocks, km=False):
    """Nelson-Aalen survival at each order statistic of a top view, or
    Kaplan-Meier with ``km``, up to a constant factor.

    ``hazard`` is delta / i with i the rank from the top, and ``blocks`` the
    view's tie blocks, :func:`~censtail.samples._tie_blocks`.  Nelson-Aalen
    at z is exp(-H) with H the hazards of the tie blocks strictly below z,
    so it is proportional to exp of the hazards from z's block upwards;
    Kaplan-Meier multiplies the factors 1 - hazard of the blocks at or below
    z, so it is proportional to exp of minus the log factors above z's
    block.  The sums run from the top (:func:`_suffix_sums`), which makes
    every value independent of how far down the view reaches.  The zero
    factor of an uncensored maximum is left out of the Kaplan-Meier sums and
    zeroes the top block instead.
    """
    start, end = blocks
    if not km:
        return np.repeat(np.exp(_suffix_sums(hazard)[start]), end - start)
    values = np.exp(-_suffix_sums(np.append(np.log1p(-hazard[:-1]), 0.0))[end])
    if hazard[-1]:
        values[-1] = 0.0
    return np.repeat(values, end - start)


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
    KM and NA enter only as ratios, so :func:`_view_survival` gives each up
    to a factor, from the view and its tie blocks alone.  The tie blocks are
    found once; KM is computed only when ``worms`` is requested and NA only
    when ``mns`` or a kernel is, as no other row reads them.  As every sum
    runs from the top down, no cell depends on the rest of the grid: each
    equals its scalar estimator bit for bit.  Kernels without
    ``g_prime_coefficients`` are evaluated one k at a time instead.
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
        blocks = _tie_blocks(z)
    if "worms" in wanted:
        km = _view_survival(hazard, blocks, km=True)
        km_t = km[t]
        values["worms"] = np.divide(_suffix_sums(km[:-1] * spacing)[t], km_t,
                                    out=np.full(km_t.shape, np.nan), where=km_t != 0)
    if kerns:
        values.update(_kernel_rows(kerns, t, hazard, logz, spacing,
                                   _view_survival(hazard, blocks)))
    rows = [values[e] for e in entries]
    return np.array(rows, dtype=float).reshape(len(rows), k.size)


def _kernel_rows(kernels, t, weight, logz, spacing, na):
    """Kernel estimator values at the threshold indices ``t``, keyed by kernel."""
    rows = {}
    poly = [kern for kern in kernels if kern.g_prime_coefficients is not None]
    powers = sorted({m + 1 for kern in poly
                     for m, c in enumerate(kern.g_prime_coefficients) if c})
    if powers:
        # a power of na lives only until the next one, and at t
        weighted = np.empty((len(powers), na.size))
        at_t = []
        na_p, power = na, 1
        for i, p in enumerate(powers):
            while power < p:
                na_p, power = na_p * na, power + 1
            np.multiply(weight, na_p, out=weighted[i])
            at_t.append(na_p[t])
        weighted = _suffix_sums(weighted)[:, 1:-1]
        weighted *= spacing
        sums = _suffix_sums(weighted)[:, t]
        ratio_sums = {p: s / a for p, s, a in zip(powers, sums, at_t)}
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
    """Estimator values along a grid of k: strictly ascending ints >= 1, unbounded above.

    ``estimates`` maps a column name to a tuple aligned with ``k_values``;
    cells where an estimator is undefined (e.g. all top-k observations
    censored for ``efg``) hold None, never NaN.
    """

    k_values: tuple
    estimates: dict

    def __post_init__(self):
        k_values = _k_grid(self.k_values, None)
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
        Strictly ascending ints within [1, n-1], read one k at a time (:func:`_k_grid`).
    estimators : iterable of str
        Any of "hill", "p_hat", "efg", "worms", "mns".
    kernels : iterable of Kernel
        Each adds a column named ``kernel_<name>``.  A column name may
        appear only once: a repeat, like an unknown estimator, is a
        ConfigError, which is a ValueError too.

    Returns
    -------
    EstimatePath
        Cells where an estimator raises a degeneracy error (DegenerateP,
        ZeroSurvivalAtThreshold) are None; invalid k is a hard error.
    """
    k_values = _k_grid(k_values, sample.n)
    names = [str(e) for e in estimators]
    kernels = tuple(_check_kernel(kern) for kern in kernels)
    columns = _columns(names, [kern.name for kern in kernels])
    rows = _tail_path(sample, k_values, names, kernels)
    return EstimatePath(
        k_values,
        {
            name: tuple(None if isnan(v) else v for v in row)
            for name, row in zip(columns, rows.tolist())
        },
    )
