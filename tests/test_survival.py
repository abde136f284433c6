import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censtail import (
    CensoredSample,
    StepCurve,
    kaplan_meier_curve,
    kaplan_meier_survival,
    nelson_aalen_curve,
    nelson_aalen_survival,
    sort_with_concomitants,
)
from conftest import make_censored
from reference_impl import (
    empirical_H,
    empirical_H1,
    reference_km_curve,
    reference_na_curve,
    survival_before,
)


def sample_of(z, delta):
    return sort_with_concomitants(CensoredSample(np.array(z, float), np.array(delta)))


# TestEmpiricalH and TestEmpiricalH1 check the reference_impl oracles that
# test_product_form_matches_hazard_integral_form and the estimators'
# integral-form oracle are built from; a distribution is 1 - survival.
class TestEmpiricalH:
    def test_counting(self):
        H = empirical_H(sample_of([1, 2, 3], [1, 1, 1]))
        assert 1.0 - H.survival(2.0) == pytest.approx(2 / 3, abs=1e-15)

    def test_left_limit_matches_rank_formula(self):
        # survival just below the i-th order statistic is (n - i + 1) / n
        H = empirical_H(sample_of([1, 2, 3], [1, 1, 1]))
        assert survival_before(H, 2.0) == pytest.approx(2 / 3, abs=1e-15)

    def test_below_all_observations(self):
        H = empirical_H(sample_of([5], [1]))
        assert H.survival(4.9) == 1.0

    def test_left_limit_all_ranks(self, rng):
        sample = make_censored(rng, n=40)
        H = empirical_H(sample)
        n = sample.n
        for i in range(1, n + 1):
            assert survival_before(H, sample.z[i - 1]) == pytest.approx(
                (n - i + 1) / n, abs=1e-12
            )


class TestEmpiricalH1:
    def test_counts_only_uncensored(self):
        H1 = empirical_H1(sample_of([1, 2, 3], [1, 0, 1]))
        assert 1.0 - H1.survival(2.5) == pytest.approx(1 / 3, abs=1e-15)

    def test_complete_data_equals_H(self, rng):
        sample = make_censored(rng, n=30, censor_prob=0.0)
        H = empirical_H(sample)
        H1 = empirical_H1(sample)
        grid = np.linspace(0.01, sample.z.max() * 1.5, 100)
        assert np.allclose(H.survival(grid), H1.survival(grid), atol=1e-15)

    def test_all_censored_is_zero(self):
        H1 = empirical_H1(sample_of([1, 2, 3], [0, 0, 0]))
        grid = np.array([0.5, 1.0, 2.0, 10.0])
        assert np.all(H1.survival(grid) == 1.0)

    def test_dominated_by_H(self, rng):
        for _ in range(10):
            sample = make_censored(rng, allow_ties=True)
            H = empirical_H(sample)
            H1 = empirical_H1(sample)
            grid = np.concatenate(([0.01], sample.z, sample.z * 1.001))
            h, h1 = 1.0 - H.survival(grid), 1.0 - H1.survival(grid)
            assert np.all(h1 <= h + 1e-15)
            assert np.all(h <= 1.0)
            assert np.all(np.diff(1.0 - H.survival(np.sort(grid))) >= -1e-15)


class TestKaplanMeier:
    def test_hand_product(self):
        sample = sample_of([1, 2, 3], [1, 0, 1])
        assert kaplan_meier_survival(sample, 1.0) == pytest.approx(2 / 3, abs=1e-12)
        assert kaplan_meier_survival(sample, 2.0) == pytest.approx(2 / 3, abs=1e-12)
        assert kaplan_meier_survival(sample, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_below_all_observations(self, rng):
        sample = make_censored(rng, n=10)
        assert kaplan_meier_survival(sample, sample.z[0] * 0.5) == 1.0

    def test_complete_data_telescoping(self):
        sample = sample_of([1, 2, 3], [1, 1, 1])
        assert kaplan_meier_survival(sample, 2.0) == pytest.approx(1 / 3, abs=1e-12)
        for j, z in enumerate(sample.z, start=1):
            assert kaplan_meier_survival(sample, z) == pytest.approx(
                (3 - j) / 3, abs=1e-12
            )

    def test_hits_zero_iff_max_uncensored(self, rng):
        for _ in range(20):
            sample = make_censored(rng)
            curve = kaplan_meier_curve(sample)
            at_max = curve.survival(sample.z[-1])
            if sample.delta[-1] == 1:
                assert at_max == 0.0
            else:
                assert at_max > 0.0


class TestNelsonAalen:
    def test_hand_values(self):
        sample = sample_of([1, 2, 3], [1, 0, 1])
        for z in (1.5, 2.0):
            assert nelson_aalen_survival(sample, z) == pytest.approx(
                math.exp(-1 / 3), abs=1e-12
            )
        assert nelson_aalen_survival(sample, 3.0) == pytest.approx(
            math.exp(-1 / 3), abs=1e-12
        )
        assert nelson_aalen_survival(sample, 3.5) == pytest.approx(
            math.exp(-4 / 3), abs=1e-12
        )

    def test_empty_product_below_first(self):
        sample = sample_of([1, 2, 3], [1, 0, 1])
        assert nelson_aalen_survival(sample, 0.5) == 1.0
        # strict inequality: the first order statistic contributes nothing
        assert nelson_aalen_survival(sample, 1.0) == 1.0

    def test_all_censored_is_one_everywhere(self):
        sample = sample_of([1, 2, 3], [0, 0, 0])
        for z in (0.5, 1.0, 2.5, 99.0):
            assert nelson_aalen_survival(sample, z) == 1.0

    def test_strictly_positive(self, rng):
        for _ in range(20):
            sample = make_censored(rng, censor_prob=0.1)
            curve = nelson_aalen_curve(sample)
            assert np.all(curve.values_after > 0.0)

    def test_dominates_kaplan_meier(self, rng):
        # exp(-1/m) >= (m-1)/m factor by factor
        for _ in range(20):
            sample = make_censored(rng, allow_ties=True)
            na = nelson_aalen_curve(sample)
            km = kaplan_meier_curve(sample)
            grid = np.concatenate((sample.z, sample.z * 1.0001, [sample.z.max() * 2]))
            assert np.all(na.survival(grid) >= km.survival(grid) - 1e-15)

    def test_product_form_matches_literal_factor_product(self, rng):
        for _ in range(20):
            sample = make_censored(rng)
            n = sample.n
            points = np.concatenate(
                ([sample.z[0] * 0.5], (sample.z[:-1] + sample.z[1:]) / 2,
                 [sample.z[-1] * 1.5])
            )
            for z in points:
                literal = 1.0
                for i in range(n):
                    if sample.z[i] < z:
                        literal *= math.exp(-sample.delta[i] / (n - i))
                assert nelson_aalen_survival(sample, float(z)) == pytest.approx(
                    literal, abs=1e-12
                )

    def test_product_form_matches_hazard_integral_form(self, rng):
        # exp of minus the integral of dH1 / Hbar(x-) over jumps strictly
        # below z, with both pieces read off the empirical curves
        for _ in range(20):
            sample = make_censored(rng)
            H = empirical_H(sample)
            H1 = empirical_H1(sample)
            jumps = H1.jump_points
            sizes = np.diff(1.0 - np.concatenate(([1.0], H1.values_after)))
            points = np.concatenate(
                ((sample.z[:-1] + sample.z[1:]) / 2, [sample.z[-1] * 2])
            )
            for z in points:
                below = jumps < z
                integral = np.sum(sizes[below] / survival_before(H, jumps[below]))
                assert nelson_aalen_survival(sample, float(z)) == pytest.approx(
                    math.exp(-integral), abs=1e-12
                )


class TestStepCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepCurve(np.array([2.0, 1.0]), np.array([0.5, 0.4]), True)
        with pytest.raises(ValueError):
            StepCurve(np.array([1.0, 2.0]), np.array([0.4, 0.5]), True)
        with pytest.raises(ValueError):
            StepCurve(np.array([-1.0]), np.array([0.5]), True)

    @pytest.mark.parametrize("jumps, values, message", [
        ([3.0, 2.0, 1.0], [0.6, 0.4, 0.2], "strictly ascending"),
        ([1.0, 1.0], [0.6, 0.4], "strictly ascending"),
        ([1.0, 2.0], [0.6], "equal length"),
        ([math.nan], [0.5], "strictly ascending"),
        ([1.0], [math.nan], "nonincreasing within"),
        ([1.0, math.inf], [0.5, 0.2], "strictly ascending"),
    ], ids=["descending-jumps", "repeated-jump", "unequal-lengths", "nan-jump", "nan-value",
            "infinite-jump"])
    def test_validation_messages(self, jumps, values, message):
        with pytest.raises(ValueError, match=message):
            StepCurve(np.array(jumps), np.array(values), True)

    def test_vectorized_evaluation(self):
        curve = StepCurve(np.array([1.0, 2.0]), np.array([0.6, 0.2]), True)
        out = curve.survival(np.array([0.5, 1.0, 1.5, 2.0, 3.0]))
        assert out.tolist() == [1.0, 0.6, 0.6, 0.2, 0.2]


class TestUnsortedInput:
    """An unsorted CensoredSample gives the curves of its sorted copy."""

    def test_tie_listed_censored_first(self):
        # sorted, the uncensored 2 comes first: at risk 3 with one death
        sample = CensoredSample(np.array([1.0, 2.0, 2.0, 3.0]), np.array([1, 0, 1, 1]))
        assert kaplan_meier_survival(sample, 2.0) == pytest.approx(0.5, abs=1e-15)
        assert kaplan_meier_curve(sample).values_after[1] == pytest.approx(0.5, abs=1e-15)
        want = math.exp(-1 / 4 - 1 / 3)
        assert nelson_aalen_survival(sample, 2.5) == pytest.approx(want, abs=1e-15)
        assert nelson_aalen_curve(sample).values_after[1] == pytest.approx(want, abs=1e-15)

    def test_shuffled_equals_sorted(self, rng):
        for _ in range(10):
            sample = make_censored(rng, allow_ties=True)
            order = rng.permutation(sample.n)
            shuffled = CensoredSample(sample.z[order], sample.delta[order])
            grid = np.concatenate(([sample.z[0] / 2], sample.z, sample.z * 1.0001))
            for curve, at in ((kaplan_meier_curve, kaplan_meier_survival),
                              (nelson_aalen_curve, nelson_aalen_survival)):
                want, got = curve(sample), curve(shuffled)
                assert np.array_equal(got.jump_points, want.jump_points)
                assert np.array_equal(got.values_after, want.values_after)
                assert [at(shuffled, x) for x in grid] == [at(sample, x) for x in grid]


CURVE_CASES = ("ties", "all censored", "uncensored maximum", "n = 1", "n > 256")


@st.composite
def _curve_samples(draw, case):
    """A sample shaped by ``case``, its values drawn from a seeded generator."""
    n = {"n = 1": 1, "n > 256": draw(st.integers(257, 900))}.get(case, draw(st.integers(2, 120)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.pareto(draw(st.floats(0.5, 3.0)), n) + 1.0
    if case == "ties" or draw(st.booleans()):
        z = np.round(z, draw(st.integers(0, 1)))
    delta = (rng.random(n) >= draw(st.floats(0.0, 0.9))).astype(int)
    if case == "all censored":
        delta[:] = 0
    if case == "uncensored maximum":
        delta[z == z.max()] = 1
    return z, delta


@pytest.mark.parametrize("case", CURVE_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_curves_match_the_reference(case, data):
    """The engine-built curves, of a sorted and of a shuffled sample, step
    at the reference's jump points with values within 1e-12 and zeros in the
    same places."""
    z, delta = data.draw(_curve_samples(case))
    sample = sample_of(z, delta)
    order = data.draw(st.permutations(range(z.size)))
    shuffled = CensoredSample(z[order], delta[order])
    for curve, reference in ((kaplan_meier_curve, reference_km_curve),
                             (nelson_aalen_curve, reference_na_curve)):
        want = reference(sample)
        for got in (curve(sample), curve(shuffled)):
            assert np.array_equal(got.jump_points, want.jump_points)
            assert np.array_equal(got.values_after == 0, want.values_after == 0)
            assert np.allclose(got.values_after, want.values_after, rtol=0, atol=1e-12)
    km = kaplan_meier_curve(sample)
    assert (km.survival(z.max()) == 0.0) == (sample.delta[-1] == 1)
    if case == "all censored":
        assert km.jump_points.size == 0
