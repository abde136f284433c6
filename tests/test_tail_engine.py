"""Differential test: the tail engine against the slow per-estimator oracle.

Every comparison is exact (``==``), cell for cell, including which cells
are undefined and which error each scalar estimator raises.
"""

import math

import numpy as np
import pytest

from censtail import (
    BIWEIGHT,
    INDICATOR,
    TRIWEIGHT,
    CensoredSample,
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
from censtail.errors import DegenerateP, ZeroSurvivalAtThreshold
from censtail.estimators import ESTIMATOR_NAMES, _tail_path
from censtail.survival import _survival_at_order_stats
from reference_impl import _TailArrays

KERNELS = (INDICATOR, BIWEIGHT, TRIWEIGHT)
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


def _reference(ref, name, k):
    """Oracle value, or the error type it raises."""
    fn = getattr(ref, name)
    try:
        return fn(k)
    except (DegenerateP, ZeroSurvivalAtThreshold) as exc:
        return type(exc)


def _scalar_ks(n, undefined_ks, rng):
    """A few k per sample for the scalar estimators: both ends, the first
    and last undefined k, and two random ones."""
    if n <= 6:
        return range(1, n)
    ends = (min(undefined_ks), max(undefined_ks)) if undefined_ks else ()
    return sorted({1, n - 1, *ends, *rng.integers(1, n, size=2).tolist()})


def test_engine_matches_reference_exactly():
    rng = np.random.default_rng(7)
    seen = {"tie_heavy": 0, DegenerateP: 0, ZeroSurvivalAtThreshold: 0, "cells": 0}
    for tie_heavy, sample in _samples():
        n = sample.n
        seen["tie_heavy"] += tie_heavy
        ref = _TailArrays(sample)
        na_at, km_at = _survival_at_order_stats(sample)
        assert np.array_equal(na_at, nelson_aalen_curve(sample).survival(sample.z))
        assert np.array_equal(km_at, kaplan_meier_curve(sample).survival(sample.z))

        ks = list(range(1, n))
        rows = _tail_path(sample, ks, ESTIMATOR_NAMES, KERNELS)
        path = estimate_path(sample, ks, ESTIMATOR_NAMES, KERNELS)
        columns = [*ESTIMATOR_NAMES, *("kernel_" + kern.name for kern in KERNELS)]
        undefined_ks = set()
        for row, column in zip(rows, columns):
            for j, k in enumerate(ks):
                if column.startswith("kernel_"):
                    kern = KERNELS[columns.index(column) - len(ESTIMATOR_NAMES)]
                    expected = ref.kernel(k, kern)
                else:
                    expected = _reference(ref, column, k)
                got = path.column(column)[j]
                if isinstance(expected, type):
                    seen[expected] += 1
                    undefined_ks.add(k)
                    assert math.isnan(row[j]) and got is None, (column, k)
                else:
                    assert row[j] == expected and got == expected, (column, k)
                seen["cells"] += 1
        assert np.array_equal(rows[ESTIMATOR_NAMES.index("mns")], rows[len(ESTIMATOR_NAMES)])

        for k in _scalar_ks(n, undefined_ks, rng):
            for name, fn in SCALARS.items():
                expected = _reference(ref, name, k)
                if isinstance(expected, type):
                    with pytest.raises(expected):
                        fn(sample, k)
                else:
                    assert fn(sample, k) == expected, (name, k)
            for kern in KERNELS:
                assert kernel_estimator(sample, k, kern) == ref.kernel(k, kern)
        assert p_hat(sample, n) == ref.p_hat(n)
        assert _tail_path(sample, [n], ("p_hat",))[0, 0] == ref.p_hat(n)

    assert seen["tie_heavy"] >= SAMPLE_COUNT // 2
    assert seen[DegenerateP] > 0 and seen[ZeroSurvivalAtThreshold] > 0
    assert seen["cells"] > 10_000
