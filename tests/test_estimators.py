import math

import numpy as np
import pytest

from censtail import (
    BIWEIGHT,
    INDICATOR,
    TRIWEIGHT,
    CensoredSample,
    EstimatePath,
    efg,
    estimate_path,
    hill,
    kernel_estimator,
    mns,
    builtin_kernel,
    custom_kernel,
    p_hat,
    sort_with_concomitants,
    worms,
)
from censtail.errors import ConfigError, DegenerateP, InvalidK, ZeroSurvivalAtThreshold
from conftest import make_censored, make_complete
from reference_impl import empirical_H, empirical_H1, reference_na_curve, survival_before


def sample_of(z, delta):
    return sort_with_concomitants(CensoredSample(np.array(z, float), np.array(delta)))


def integral_form_oracle(sample, k, kernel):
    """Stepwise integration of the tail functional over the jumps of the
    estimated distribution, built only from the reference curve objects.
    Independent of the closed-sum implementation; valid for tie-free samples."""
    na = reference_na_curve(sample)
    H = empirical_H(sample)
    H1 = empirical_H1(sample)
    threshold = sample.z[sample.n - k - 1]
    s_threshold = na.survival(threshold)
    jumps = H1.jump_points
    sizes = np.diff(1.0 - np.concatenate(([1.0], H1.values_after)))
    total = 0.0
    for v, dh1 in zip(jumps, sizes):
        if v <= threshold:
            continue
        s_v = na.survival(float(v))
        mass = s_v * dh1 / survival_before(H, float(v))
        ratio = s_v / s_threshold
        total += kernel.g_prime(ratio) * math.log(v / threshold) * mass / s_threshold
    return total


class TestHill:
    def test_hand_oracle(self):
        sample = sample_of([1, 2, 4, 8], [1, 1, 1, 1])
        assert hill(sample, 3) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_all_equal_is_zero(self):
        sample = sample_of([3, 3, 3], [1, 0, 1])
        assert hill(sample, 2) == 0.0

    def test_scale_invariance(self):
        sample = sample_of([1, 2, 4, 8], [1, 1, 1, 1])
        scaled = sample_of([10, 20, 40, 80], [1, 1, 1, 1])
        assert hill(scaled, 3) == pytest.approx(hill(sample, 3), abs=1e-12)

    def test_invalid_k(self):
        sample = sample_of([1, 2, 3], [1, 1, 1])
        for k in (0, 3, 4, -1):
            with pytest.raises(InvalidK):
                hill(sample, k)

    @pytest.mark.parametrize("k", [True, np.bool_(True), 2.0, "2"],
                             ids=["bool", "numpy-bool", "float", "str"])
    def test_non_integer_k_is_invalid(self, k):
        # True ran as k = 1
        with pytest.raises(InvalidK, match="must be an integer"):
            hill(sample_of([1, 2, 4, 8], [1, 1, 1, 1]), k)

    def test_consistent_on_pareto(self):
        # statistical sanity: median absolute error below 0.05 at n=1e4
        gamma1 = 1.0
        n = 10_000
        k = int(n**0.6)
        errors = []
        for seed in range(100):
            gen = np.random.default_rng(seed)
            z = (1.0 - gen.random(n)) ** (-gamma1)
            sample = sort_with_concomitants(CensoredSample(z, np.ones(n, int)))
            errors.append(abs(hill(sample, k) - gamma1))
        assert np.median(errors) < 0.05


class TestPHat:
    def test_counting(self):
        sample = sample_of([1, 2, 5, 6, 7], [0, 1, 0, 1, 1])
        assert p_hat(sample, 3) == pytest.approx(2 / 3, abs=1e-15)

    def test_extremes(self):
        complete = sample_of([1, 2, 3], [1, 1, 1])
        censored = sample_of([1, 2, 3], [0, 0, 0])
        assert p_hat(complete, 2) == 1.0
        assert p_hat(censored, 2) == 0.0

    def test_k_equal_n_allowed(self):
        sample = sample_of([1, 2, 3], [1, 0, 1])
        assert p_hat(sample, 3) == pytest.approx(2 / 3, abs=1e-15)
        with pytest.raises(InvalidK):
            p_hat(sample, 4)


class TestEfg:
    def test_hand_oracle(self):
        sample = sample_of([1, 2, 4, 8], [1, 0, 1, 1])  # top-3 deltas 1,1,0
        expected = 2 * math.log(2) / (2 / 3)
        assert efg(sample, 3) == pytest.approx(expected, abs=1e-12)

    def test_complete_data_equals_hill(self, rng):
        for _ in range(20):
            sample = make_complete(rng, n=int(rng.integers(5, 80)))
            k = int(rng.integers(1, sample.n))
            assert efg(sample, k) == hill(sample, k)

    def test_all_top_censored(self):
        sample = sample_of([1, 2, 4, 8], [1, 1, 0, 0])
        with pytest.raises(DegenerateP):
            efg(sample, 2)


class TestWorms:
    def test_hand_oracle(self):
        sample = sample_of([1, 2, 4], [1, 1, 1])
        assert worms(sample, 2) == pytest.approx(1.5 * math.log(2), abs=1e-12)

    def test_complete_data_equals_hill(self, rng):
        # Abel-summation identity; needs tie-free data (with a tie block at
        # the threshold the weights renormalize by the block size instead)
        for _ in range(50):
            sample = make_complete(rng)
            k = int(rng.integers(1, sample.n))
            assert worms(sample, k) == pytest.approx(hill(sample, k), abs=1e-12)

    def test_all_equal_observations(self):
        sample = sample_of([3, 3, 3], [1, 0, 1])  # tie rule puts a 0 last
        assert worms(sample, 2) == 0.0

    def test_zero_survival_at_threshold(self):
        # tied uncensored maximum drives Kaplan-Meier to zero at the threshold
        sample = sample_of([3, 3, 3], [1, 1, 1])
        with pytest.raises(ZeroSurvivalAtThreshold):
            worms(sample, 2)


class TestMns:
    def test_hand_oracle(self):
        sample = sample_of([1, 2, 4], [1, 1, 1])
        expected = math.exp(-5 / 6) * math.log(4) + 0.5 * math.exp(-1 / 3) * math.log(2)
        assert mns(sample, 2) == pytest.approx(expected, abs=1e-12)

    def test_all_top_censored_is_zero(self):
        sample = sample_of([1, 2, 4, 8], [1, 1, 0, 0])
        assert mns(sample, 2) == 0.0

    def test_scale_invariance(self, rng):
        for _ in range(10):
            sample = make_censored(rng, n=40)
            k = int(rng.integers(1, 40))
            for c in (1e-3, 1e3):
                scaled = sort_with_concomitants(
                    CensoredSample(sample.z * c, sample.delta)
                )
                assert mns(scaled, k) == pytest.approx(mns(sample, k), abs=1e-10)


class TestKernelEstimator:
    def test_indicator_reduces_to_mns_hand_case(self):
        sample = sample_of([1, 2, 4], [1, 1, 1])
        assert kernel_estimator(sample, 2, INDICATOR) == pytest.approx(
            0.850812, abs=1e-6
        )
        assert kernel_estimator(sample, 2, INDICATOR) == mns(sample, 2)

    def test_indicator_equals_mns_on_random_samples(self, rng):
        for _ in range(200):
            sample = make_censored(rng, censor_prob=float(rng.uniform(0.1, 0.7)))
            k = int(rng.integers(1, sample.n))
            assert kernel_estimator(sample, k, INDICATOR) == pytest.approx(
                mns(sample, k), abs=1e-12
            )

    def test_boundary_ratio_with_censored_threshold(self):
        # the run of censored observations from the threshold up gives a
        # survival ratio of exactly 1 on an uncensored term; the indicator
        # kernel must still weight it like the plain estimator does
        sample = sample_of([1, 2, 4], [0, 0, 1])
        assert mns(sample, 2) == pytest.approx(math.log(4), abs=1e-15)
        assert kernel_estimator(sample, 2, INDICATOR) == mns(sample, 2)

    def test_all_top_censored_is_zero_for_any_kernel(self):
        sample = sample_of([1, 2, 4, 8], [1, 1, 0, 0])
        for kernel in (INDICATOR, BIWEIGHT, TRIWEIGHT):
            assert kernel_estimator(sample, 2, kernel) == 0.0

    def test_unverified_kernel_rejected(self):
        from censtail import Kernel
        from censtail.errors import KernelAxiomViolation

        raw = Kernel(
            "raw",
            k=lambda s: np.ones_like(s),
            g_prime=lambda s: np.ones_like(s),
            g_second=lambda s: np.zeros_like(s),
        )
        sample = sample_of([1, 2, 4], [1, 1, 1])
        with pytest.raises(KernelAxiomViolation):
            kernel_estimator(sample, 2, raw)
        with pytest.raises(KernelAxiomViolation):
            estimate_path(sample, [1, 2], estimators=(), kernels=(raw,))

    @pytest.mark.parametrize("value", ["biweight", None, 1.5])
    def test_a_value_that_is_not_a_kernel_is_a_usage_error(self, value):
        # a kernel name raised AttributeError here, which the CLI maps to exit 3
        from censtail.errors import KernelAxiomViolation, UsageError

        sample = sample_of([1, 2, 4, 8], [1, 1, 1, 1])
        for call in (lambda: kernel_estimator(sample, 3, value),
                     lambda: estimate_path(sample, [2, 3], kernels=(value,))):
            with pytest.raises(KernelAxiomViolation, match="builtin_kernel") as err:
                call()
            assert isinstance(err.value, UsageError)
            assert f"got {value!r}" in str(err.value)

    def test_factory_verified_kernel_accepted(self):
        from censtail import custom_kernel

        triangular = custom_kernel(
            "triangular",
            k=lambda s: 2.0 * (1.0 - s),
            g_prime=lambda s: 2.0 - 4.0 * s,
            g_second=lambda s: -4.0 * np.ones_like(s),
        )
        sample = sample_of([1, 2, 4], [1, 1, 1])
        assert np.isfinite(kernel_estimator(sample, 2, triangular))

    @pytest.mark.parametrize("kernel", (INDICATOR, BIWEIGHT, TRIWEIGHT),
                             ids=lambda k: k.name)
    def test_matches_integral_form_oracle(self, rng, kernel):
        for _ in range(25):
            sample = make_censored(rng, n=int(rng.integers(5, 60)))
            k = int(rng.integers(1, sample.n))
            direct = kernel_estimator(sample, k, kernel)
            oracle = integral_form_oracle(sample, k, kernel)
            assert direct == pytest.approx(oracle, abs=1e-12)

    def test_scale_invariance(self, rng):
        for _ in range(10):
            sample = make_censored(rng, n=50)
            k = int(rng.integers(1, 50))
            scaled = sort_with_concomitants(
                CensoredSample(sample.z * 1e3, sample.delta)
            )
            for kernel in (BIWEIGHT, TRIWEIGHT):
                assert kernel_estimator(scaled, k, kernel) == pytest.approx(
                    kernel_estimator(sample, k, kernel), abs=1e-10
                )


class TestEstimatePath:
    def test_columns_and_values(self, rng):
        sample = make_censored(rng, n=60)
        ks = [5, 10, 20]
        path = estimate_path(sample, ks, estimators=("hill", "mns"),
                             kernels=(BIWEIGHT,))
        assert path.k_values == (5, 10, 20)
        assert set(path.estimates) == {"hill", "mns", "kernel_biweight"}
        for j, k in enumerate(ks):
            assert path.column("hill")[j] == hill(sample, k)
            assert path.column("kernel_biweight")[j] == kernel_estimator(
                sample, k, BIWEIGHT
            )

    def test_indicator_column_identical_to_mns(self, rng):
        sample = make_censored(rng, n=80)
        path = estimate_path(sample, range(1, 80), estimators=("mns",),
                             kernels=(INDICATOR,))
        assert path.column("mns") == path.column("kernel_indicator")

    def test_empty_estimator_set(self, rng):
        sample = make_censored(rng, n=10)
        path = estimate_path(sample, [2, 4], estimators=(), kernels=())
        assert path.estimates == {}
        assert path.to_table().columns == ("k",)

    def test_undefined_cells_are_none(self):
        sample = sample_of([1, 2, 4, 8], [1, 1, 0, 0])
        path = estimate_path(sample, [1, 2, 3], estimators=("efg", "p_hat"))
        # top-3 has one uncensored value, so efg = hill / (1/3) = 6 ln 2
        assert path.column("efg") == (None, None, pytest.approx(6 * math.log(2),
                                                                abs=1e-12))
        assert path.column("p_hat")[0] == 0.0

    def test_rejects_bad_grid(self, rng):
        sample = make_censored(rng, n=10)
        with pytest.raises(InvalidK):
            estimate_path(sample, [3, 2])
        with pytest.raises(InvalidK):
            estimate_path(sample, [0, 1])
        with pytest.raises(InvalidK):
            estimate_path(sample, [5, 10])  # k = n not allowed
        with pytest.raises(ValueError):
            estimate_path(sample, [2], estimators=("nope",))

    def test_rejects_repeated_column(self, rng):
        sample = make_censored(rng, n=20)
        named_biweight = custom_kernel(
            "biweight",
            k=lambda s: 1.875 * (1.0 - s**2) ** 2,
            g_prime=lambda s: 1.875 * (1.0 - s**2) * (1.0 - 5.0 * s**2),
            g_second=lambda s: 1.875 * (20.0 * s**3 - 12.0 * s),
        )
        for estimators, kernels in ((("mns", "mns"), (BIWEIGHT, builtin_kernel("k2"))),
                                    (("mns",), (BIWEIGHT, builtin_kernel("k2"))),
                                    (("hill",), (BIWEIGHT, named_biweight))):
            with pytest.raises(ValueError, match="twice"):
                estimate_path(sample, [2, 5], estimators, kernels)

    def test_column_errors_name_their_field(self, rng):
        sample = make_censored(rng, n=20)
        for estimators, kernels, field in ((("hill", "nope"), (), "estimators"),
                                           (("mns", "hill", "mns"), (), "estimators"),
                                           (("mns",), (BIWEIGHT, builtin_kernel("k2")),
                                            "kernels")):
            with pytest.raises(ConfigError) as err:
                estimate_path(sample, [2, 5], estimators, kernels)
            assert err.value.field == field
            assert isinstance(err.value, ValueError)

    def test_bool_k_in_the_grid_is_invalid(self, rng):
        # [True, 2] ran at k = (1, 2)
        with pytest.raises(InvalidK, match="must be an integer"):
            estimate_path(make_censored(rng, n=10), [True, 2])

    def test_path_rejects_non_integer_k(self):
        # (1.7, 2.2) was truncated to (1, 2)
        with pytest.raises(InvalidK, match="must be an integer"):
            EstimatePath((1.7, 2.2), {"hill": (0.5, 0.4)})

    @pytest.mark.parametrize("k_values, estimates, error, message", [
        ((0, 1), {"hill": (0.5, 0.4)}, InvalidK, ">= 1"),
        ((2, 2), {"hill": (0.5, 0.4)}, InvalidK, "strictly ascending"),
        ((1, 2), {"hill": (0.5,)}, ValueError, "length mismatch"),
    ], ids=["k-below-1", "not-ascending", "short-column"])
    def test_path_checks(self, k_values, estimates, error, message):
        with pytest.raises(error, match=message):
            EstimatePath(k_values, estimates)

    def test_nan_rejected_in_path(self):
        with pytest.raises(ValueError):
            EstimatePath((1, 2), {"hill": (0.5, float("nan"))})

    def test_complete_data_reductions(self, rng):
        for _ in range(20):
            sample = make_complete(rng, n=int(rng.integers(5, 60)))
            k = int(rng.integers(1, sample.n))
            h = hill(sample, k)
            assert worms(sample, k) == pytest.approx(h, abs=1e-12)
            assert efg(sample, k) == h
