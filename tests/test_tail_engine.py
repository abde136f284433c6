"""Differential tests: the tail engine against the slow per-estimator oracle.

The engine reads every k off suffix sums, so it adds in another order than
the oracle.  Exact (``==``) are p_hat, which sums integers, the pattern of
undefined cells, the error each scalar estimator raises, mns against the
indicator-kernel row, every path cell against its scalar estimator, and the
engine on an unsorted sample against the engine on the sorted one.  Every
other cell agrees with the oracle to ``TOL`` absolute.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censtail import (
    BIWEIGHT,
    INDICATOR,
    TRIWEIGHT,
    CensoredSample,
    custom_kernel,
    efg,
    estimate_path,
    hill,
    kaplan_meier_curve,
    kernel_estimator,
    mns,
    nelson_aalen_curve,
    p_hat,
    sort_with_concomitants,
    worms,
)
from censtail import estimators, survival
from censtail.errors import DegenerateP, ZeroSurvivalAtThreshold
from censtail.estimators import (
    _SUM_BLOCK,
    ESTIMATOR_NAMES,
    _suffix_sums,
    _tail_path,
    _top_view,
    _view_survival,
)
from censtail.samples import _tie_blocks
from reference_impl import (
    _TailArrays,
    blocked_suffix_sums,
    reference_km_curve,
    reference_na_curve,
)

TOL = 1e-12

# biweight's formulas without its polynomial coefficients: evaluated per k
CUSTOM_BIWEIGHT = custom_kernel(
    "custom_biweight",
    k=lambda s: 1.875 * (1.0 - s**2) ** 2,
    g_prime=lambda s: 1.875 * (1.0 - s**2) * (1.0 - 5.0 * s**2),
    g_second=lambda s: 1.875 * (20.0 * s**3 - 12.0 * s),
)
KERNELS = (INDICATOR, BIWEIGHT, TRIWEIGHT, CUSTOM_BIWEIGHT)
COLUMNS = (*ESTIMATOR_NAMES, *("kernel_" + kern.name for kern in KERNELS))
SCALARS = {"hill": hill, "p_hat": p_hat, "efg": efg, "worms": worms, "mns": mns}
SAMPLE_COUNT = 240


def _samples():
    """Random sorted samples: every other one tie-heavy (rounded values),
    some with a tied uncensored maximum, some with an all-censored top."""
    rng = np.random.default_rng(2505)
    for i in range(SAMPLE_COUNT):
        n = int(rng.choice([2, 3, 4, 6, 9, 15, 30, 60, 100]))
        z = rng.pareto(rng.uniform(0.5, 3.0), n) + 1.0
        delta = (rng.random(n) >= rng.uniform(0.0, 0.8)).astype(int)
        tie_heavy = i % 2 == 1
        if tie_heavy:
            z = np.round(z, int(rng.integers(0, 2)))
        order = np.argsort(z, kind="stable")
        top = order[-int(rng.integers(1, max(2, n // 2) + 1)):]
        if i % 6 in (1, 2):  # tied, uncensored maximum
            z[top] = z.max()
            delta[top] = 1
        elif i % 6 == 3:  # all-censored top
            delta[top] = 0
        yield tie_heavy, sort_with_concomitants(CensoredSample(z, delta))


def _reference(ref, column, k):
    """Oracle value, or the error type it raises."""
    try:
        if column.startswith("kernel_"):
            return ref.kernel(k, KERNELS[COLUMNS.index(column) - len(ESTIMATOR_NAMES)])
        return getattr(ref, column)(k)
    except (DegenerateP, ZeroSurvivalAtThreshold) as exc:
        return type(exc)


def _scalar(column, sample, k):
    """Scalar estimator value, or the error type it raises."""
    try:
        if column.startswith("kernel_"):
            kern = KERNELS[COLUMNS.index(column) - len(ESTIMATOR_NAMES)]
            return kernel_estimator(sample, k, kern)
        return SCALARS[column](sample, k)
    except (DegenerateP, ZeroSurvivalAtThreshold) as exc:
        return type(exc)


def _assert_cell(column, k, got, expected):
    if isinstance(expected, type):
        assert got is None, (column, k)
    elif column == "p_hat":
        assert got == expected, (column, k)
    else:
        assert abs(got - expected) <= TOL, (column, k, got, expected)


def _scalar_ks(n, undefined_ks, rng):
    """A few k per sample for the scalar estimators: both ends, the first
    and last undefined k, and two random ones."""
    if n <= 6:
        return range(1, n)
    ends = (min(undefined_ks), max(undefined_ks)) if undefined_ks else ()
    return sorted({1, n - 1, *ends, *rng.integers(1, n, size=2).tolist()})


def test_engine_matches_reference():
    rng = np.random.default_rng(7)
    seen = {"tie_heavy": 0, DegenerateP: 0, ZeroSurvivalAtThreshold: 0, "cells": 0}
    for tie_heavy, sample in _samples():
        n = sample.n
        seen["tie_heavy"] += tie_heavy
        ref = _TailArrays(sample)
        ks = list(range(1, n))
        rows = _tail_path(sample, ks, ESTIMATOR_NAMES, KERNELS)
        path = estimate_path(sample, ks, ESTIMATOR_NAMES, KERNELS)
        undefined_ks = set()
        for row, column in zip(rows, COLUMNS):
            for j, k in enumerate(ks):
                expected = _reference(ref, column, k)
                got = path.column(column)[j]
                assert (got is None) == math.isnan(row[j]) and (got is None or got == row[j])
                if isinstance(expected, type):
                    seen[expected] += 1
                    undefined_ks.add(k)
                _assert_cell(column, k, got, expected)
                seen["cells"] += 1
        assert np.array_equal(rows[ESTIMATOR_NAMES.index("mns")], rows[len(ESTIMATOR_NAMES)])

        for k in _scalar_ks(n, undefined_ks, rng):
            j = k - 1
            for column in COLUMNS:
                expected = _reference(ref, column, k)
                got = _scalar(column, sample, k)
                if isinstance(expected, type):
                    assert got is expected, (column, k)
                    assert path.column(column)[j] is None
                else:
                    assert got == path.column(column)[j], (column, k)
        assert p_hat(sample, n) == ref.p_hat(n)
        assert _tail_path(sample, [n], ("p_hat",))[0, 0] == ref.p_hat(n)

    assert seen["tie_heavy"] >= SAMPLE_COUNT // 2
    assert seen[DegenerateP] > 0 and seen[ZeroSurvivalAtThreshold] > 0
    assert seen["cells"] > 10_000


def _unsorted_samples():
    """Random unsorted samples, each with an ascending grid: every other one
    tie-heavy; some with a tie block of mixed indicators straddling the
    lowest threshold n - k_max - 1, a tied uncensored maximum or an
    all-censored top; k_max is often n - 1, and n is sometimes 2."""
    rng = np.random.default_rng(4242)
    for i in range(SAMPLE_COUNT):
        n = int(rng.choice([2, 3, 5, 8, 20, 50, 120, 400]))
        z = rng.pareto(rng.uniform(0.5, 3.0), n) + 1.0
        delta = (rng.random(n) >= rng.uniform(0.0, 0.8)).astype(int)
        if i % 2 == 1:
            z = np.round(z, int(rng.integers(0, 2)))
        k_max = n - 1 if i % 5 == 0 else int(rng.integers(1, n))
        order = np.argsort(z, kind="stable")
        lo = n - 1 - k_max
        if i % 8 in (2, 3, 5):  # straddling the lowest threshold, mixed indicators
            below, above = int(rng.integers(0, 4)), int(rng.integers(1, 4))
            block = order[max(lo - below, 0):lo + above + 1]
            z[block] = z[order[lo]]
            delta[block] = np.arange(block.size) % 2
        elif i % 8 == 4:  # tied, uncensored maximum
            top = order[-int(rng.integers(1, max(2, n // 3) + 1)):]
            z[top] = z.max()
            delta[top] = 1
        elif i % 8 == 6:  # all-censored top
            delta[order[-int(rng.integers(1, k_max + 1)):]] = 0
        ks = sorted({k_max, *rng.integers(1, k_max + 1, size=3).tolist()})
        yield CensoredSample(z, delta), ks


def test_unsorted_sample_gives_the_sorted_path():
    seen = {"straddling": 0, "k = n - 1": 0, "n = 2": 0, DegenerateP: 0,
            ZeroSurvivalAtThreshold: 0}
    for raw, ks in _unsorted_samples():
        sample = sort_with_concomitants(raw)
        n = sample.n
        rows = _tail_path(sample, ks, ESTIMATOR_NAMES, KERNELS)
        assert np.array_equal(_tail_path(raw, ks, ESTIMATOR_NAMES, KERNELS), rows,
                              equal_nan=True)
        assert _tail_path(raw, [n], ("p_hat",))[0, 0] == p_hat(sample, n)
        ref = _TailArrays(sample)
        for row, column in zip(rows, COLUMNS):
            for j, k in enumerate(ks):
                expected = _reference(ref, column, k)
                if isinstance(expected, type):
                    seen[expected] += 1
                _assert_cell(column, k, None if math.isnan(row[j]) else row[j], expected)
        for column, cell in zip(COLUMNS, rows[:, 0]):
            scalar = _scalar(column, sample, ks[0])
            assert isinstance(scalar, type) if math.isnan(cell) else scalar == cell, column
        lo = n - 1 - ks[-1]
        tied = sample.z == sample.z[lo]
        seen["straddling"] += bool(lo > 0 and tied[lo - 1] and tied[lo + 1]
                                   and 0 < sample.delta[tied].sum() < tied.sum())
        seen["k = n - 1"] += ks[-1] == n - 1
        seen["n = 2"] += n == 2
    assert all(seen.values()), seen


def test_view_survival_matches_curve_ratios():
    """The view's Nelson-Aalen and Kaplan-Meier values, as ratios between
    any two of its order statistics, are the ratios of the full reference
    curves."""
    for _, sample in _samples():
        n = sample.n
        na_curve = reference_na_curve(sample).survival(sample.z)
        km_curve = reference_km_curve(sample).survival(sample.z)
        for lo in sorted({0, n // 2, n - 1}):
            z, delta = _top_view(sample, n - lo)
            start = n - z.size
            assert start <= lo and z[0] == sample.z[lo]
            assert start == 0 or sample.z[start - 1] < z[0]
            hazard, blocks = delta / np.arange(z.size, 0, -1), _tie_blocks(z)
            na, km = _view_survival(hazard, blocks), _view_survival(hazard, blocks, km=True)
            want_na = na_curve[start:]
            assert np.allclose(na[None, :] / na[:, None], want_na[None, :] / want_na[:, None],
                               rtol=1e-13, atol=0)
            want_km = km_curve[start:]
            assert np.array_equal(km == 0, want_km == 0)
            positive = km > 0
            ratio = km[None, positive] / km[positive, None]
            want = want_km[None, positive] / want_km[positive, None]
            assert np.allclose(ratio, want, rtol=1e-13, atol=0)


def test_each_curve_sums_only_its_own_row(monkeypatch):
    """Kaplan-Meier, Nelson-Aalen and a worms-only path each sum 1-d rows
    only, and find the tie blocks once."""
    shapes, blocks = [], []

    def suffix_sums(x):
        shapes.append(x.shape)
        return _suffix_sums(x)

    def tie_blocks(z):
        blocks.append(z.size)
        return _tie_blocks(z)

    monkeypatch.setattr(estimators, "_suffix_sums", suffix_sums)
    for module in (estimators, survival):
        monkeypatch.setattr(module, "_tie_blocks", tie_blocks)
    rng = np.random.default_rng(27)
    n = 3 * _SUM_BLOCK
    sample = CensoredSample(np.round(rng.pareto(1.0, n) + 1.0, 1),
                            (rng.random(n) < 0.6).astype(int))
    for call in (kaplan_meier_curve, nelson_aalen_curve,
                 lambda s: estimate_path(s, range(1, n), ("worms",))):
        shapes.clear()
        blocks.clear()
        call(sample)
        assert len(blocks) == 1, call
        assert shapes and all(len(shape) == 1 for shape in shapes), (call, shapes)


def test_large_tie_heavy_sample_matches_reference():
    """n = 2e5 with heavy ties: the suffix sums run over 2e4 order
    statistics, where a cancelling formulation would lose digits."""
    rng = np.random.default_rng(11)
    n = 200_000
    z = np.round(rng.pareto(1.5, n) + 1.0, 2)
    delta = (rng.random(n) < 0.7).astype(int)
    sample = sort_with_concomitants(CensoredSample(z, delta))
    ks = list(range(400, n // 10 + 1, 400))
    assert len(ks) == 50
    columns = (*ESTIMATOR_NAMES, "kernel_biweight", "kernel_triweight")
    path = estimate_path(sample, ks, ESTIMATOR_NAMES, (BIWEIGHT, TRIWEIGHT))
    ref = _TailArrays(sample)
    for column in columns:
        for j, k in enumerate(ks):
            _assert_cell(column, k, path.column(column)[j], _reference(ref, column, k))


def test_edge_cases():
    sample = sort_with_concomitants(
        CensoredSample(np.array([3.0, 1.0, 2.0, 2.0, 5.0]), np.array([1, 0, 1, 0, 0]))
    )
    ref = _TailArrays(sample)
    for k in (sample.n, sample.n - 1):
        assert p_hat(sample, k) == ref.p_hat(k)
    assert p_hat(sample, 5) == 2 / 5 and p_hat(sample, 4) == 2 / 4
    assert _tail_path(sample, [4, 5], ("p_hat",)).tolist() == [[0.5, 0.4]]

    pair = sort_with_concomitants(CensoredSample(np.array([2.0, 1.0]), np.array([0, 1])))
    assert p_hat(pair, 2) == 0.5 and p_hat(pair, 1) == 0.0
    assert hill(pair, 1) == math.log(2.0)
    with pytest.raises(DegenerateP):
        efg(pair, 1)
    rows = _tail_path(pair, [1], ESTIMATOR_NAMES, KERNELS)
    assert math.isnan(rows[ESTIMATOR_NAMES.index("efg"), 0])
    assert rows[ESTIMATOR_NAMES.index("mns"), 0] == 0.0  # the top one is censored

    empty = estimate_path(sample, [], ESTIMATOR_NAMES, KERNELS)
    assert empty.k_values == () and set(empty.estimates.values()) == {()}


def test_suffix_sums():
    x = np.arange(1, 601, dtype=float)
    sums = _suffix_sums(np.stack([x, 2 * x]))
    expected = np.concatenate((np.cumsum(x[::-1])[::-1], [0.0]))
    assert np.array_equal(sums, np.stack([expected, 2 * expected]))
    # a suffix sum does not depend on how far down the array reaches
    assert np.array_equal(_suffix_sums(x[37:]), sums[0, 37:])
    assert _suffix_sums(np.array([3], dtype=np.int64)).tolist() == [3, 0]


@pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["float64", "int64"])
@pytest.mark.parametrize("lead", [(), (2,), (3,)], ids=["1d", "2-rows", "3-rows"])
def test_suffix_sums_match_the_blocked_algorithm(lead, dtype):
    """Bit for bit, one block (the running-sum shortcut) or more, for every
    length from 0 to three blocks and one, 256 and 257 among them."""
    rng = np.random.default_rng(256)
    for m in range(3 * _SUM_BLOCK + 2):
        if dtype is np.int64:
            x = rng.integers(-2**40, 2**40, (*lead, m))
        else:  # magnitudes apart, so that the order of the additions shows
            x = rng.standard_normal((*lead, m)) * 10.0 ** rng.integers(-8, 9, (*lead, m))
        got, want = _suffix_sums(x), blocked_suffix_sums(x, _SUM_BLOCK)
        assert got.dtype == want.dtype and got.shape == want.shape == (*lead, m + 1)
        assert got.tobytes() == want.tobytes(), m


@pytest.mark.parametrize("kernel", (INDICATOR, BIWEIGHT, TRIWEIGHT), ids=lambda k: k.name)
def test_builtin_coefficients_match_g_prime(kernel):
    s = np.linspace(0.0, 1.0, 1001)
    poly = np.polynomial.polynomial.polyval(s, kernel.g_prime_coefficients)
    assert np.allclose(poly, kernel.g_prime(s), rtol=0, atol=1e-13)
    assert CUSTOM_BIWEIGHT.g_prime_coefficients is None


@st.composite
def _sorted_samples(draw):
    n = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    z = rng.pareto(draw(st.floats(0.5, 3.0)), n) + 1.0
    if draw(st.booleans()):
        z = np.round(z, draw(st.integers(0, 1)))
    delta = (rng.random(n) >= draw(st.floats(0.0, 0.9))).astype(int)
    return z, delta


@settings(max_examples=60, deadline=None)
@given(_sorted_samples(), st.floats(1e-3, 1e3))
def test_scale_invariance_and_scalar_agreement(data, scale):
    z, delta = data
    sample = sort_with_concomitants(CensoredSample(z, delta))
    scaled = sort_with_concomitants(CensoredSample(z * scale, delta))
    ks = list(range(1, sample.n))
    path = estimate_path(sample, ks, ESTIMATOR_NAMES, KERNELS)
    scaled_path = estimate_path(scaled, ks, ESTIMATOR_NAMES, KERNELS)
    for column in COLUMNS:
        for j, k in enumerate(ks):
            got = path.column(column)[j]
            other = scaled_path.column(column)[j]
            assert (got is None) == (other is None)
            if got is not None:
                assert abs(got - other) <= 1e-10, (column, k)
            scalar = _scalar(column, sample, k)
            assert scalar == got if got is not None else isinstance(scalar, type)


@settings(max_examples=60, deadline=None)
@given(_sorted_samples(), st.data())
def test_permutation_invariance_and_p_hat_range(sample_data, data):
    z, delta = sample_data
    order = np.array(data.draw(st.permutations(range(z.size))))
    sample = sort_with_concomitants(CensoredSample(z, delta))
    shuffled = CensoredSample(z[order], delta[order])
    again = sort_with_concomitants(shuffled)
    assert np.array_equal(again.z, sample.z)
    assert np.array_equal(again.delta, sample.delta)
    ks = list(range(1, sample.n))
    path = _tail_path(sample, ks, ESTIMATOR_NAMES, KERNELS)
    assert np.array_equal(_tail_path(shuffled, ks, ESTIMATOR_NAMES, KERNELS), path,
                          equal_nan=True)
    proportions = [*path[ESTIMATOR_NAMES.index("p_hat")], p_hat(sample, sample.n)]
    assert all(0.0 <= p <= 1.0 for p in proportions)


@st.composite
def _censored_samples(draw):
    """Sorted or unsorted samples, some with ties, a tied uncensored maximum
    or a censored maximum, and a k grid that may leave most rows out of the
    view, which may hold one block of sums or more."""
    n = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.pareto(draw(st.floats(0.5, 3.0)), n) + 1.0
    if draw(st.booleans()):
        z = np.round(z, draw(st.integers(0, 1)))
    delta = (rng.random(n) >= draw(st.floats(0.0, 0.9))).astype(int)
    top = np.argsort(z, kind="stable")[-draw(st.integers(1, max(1, n // 4))):]
    maximum = draw(st.sampled_from(["as drawn", "tied uncensored", "censored"]))
    if maximum == "tied uncensored":
        z[top], delta[top] = z.max(), 1
    elif maximum == "censored":
        delta[np.argmax(z)] = 0
    sample = CensoredSample(z, delta)
    if draw(st.booleans()):
        sample = sort_with_concomitants(sample)
    ks = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=40)))
    return sample, ks


@settings(max_examples=150, deadline=None)
@given(_censored_samples())
def test_kernel_rows_do_not_depend_on_worms(data):
    """Kaplan-Meier is computed only when worms is requested; the mns and
    kernel rows are the same to the bit either way."""
    sample, ks = data
    without = _tail_path(sample, ks, ("mns",), KERNELS)
    with_worms = _tail_path(sample, ks, ("worms", "mns"), KERNELS)
    assert without.tobytes() == with_worms[1:].tobytes()
    assert _tail_path(sample, ks, (), KERNELS).tobytes() == with_worms[2:].tobytes()
