import numpy as np
import pytest

from censtail import (
    BIWEIGHT,
    INDICATOR,
    TRIWEIGHT,
    Kernel,
    MomentSpec,
    asymptotic_bias,
    asymptotic_variance,
    builtin_kernel,
    check_kernel_axioms,
    custom_kernel,
)
from censtail.errors import InvalidSpec, KernelAxiomViolation, UnknownKernel
from censtail.kernels import _adaptive_quad

BUILTINS = (INDICATOR, BIWEIGHT, TRIWEIGHT)


def riemann_midpoint(fn, n_points):
    """Plain midpoint Riemann sum over (0, 1) for smooth integrands."""
    h = 1.0 / n_points
    total = 0.0
    for start in range(0, n_points, 1_000_000):
        stop = min(start + 1_000_000, n_points)
        mids = (np.arange(start, stop) + 0.5) * h
        total += float(np.sum(fn(mids)))
    return total * h


def riemann_power_weighted(fn, alpha, n_points):
    """Riemann sum with exact cell masses of s^alpha; handles the
    integrable endpoint singularity of the variance integrand."""
    edges_scale = 1.0 / n_points
    total = 0.0
    for start in range(0, n_points, 1_000_000):
        stop = min(start + 1_000_000, n_points)
        lo = np.arange(start, stop) * edges_scale
        hi = np.arange(start + 1, stop + 1) * edges_scale
        mass = (hi ** (alpha + 1) - lo ** (alpha + 1)) / (alpha + 1)
        total += float(np.sum(fn((lo + hi) / 2) * mass))
    return total


class TestBuiltinKernels:
    def test_lookup_and_aliases(self):
        assert builtin_kernel("biweight") is BIWEIGHT
        assert builtin_kernel("K2") is BIWEIGHT
        assert builtin_kernel("k3") is TRIWEIGHT
        assert builtin_kernel("indicator") is INDICATOR
        with pytest.raises(UnknownKernel):
            builtin_kernel("gaussian")

    def test_values_at_zero(self):
        assert BIWEIGHT(0.0) == 15 / 8
        assert TRIWEIGHT(0.0) == 35 / 16
        assert INDICATOR(0.0) == 1.0

    def test_support(self):
        for kernel in BUILTINS:
            assert kernel(-0.5) == 0.0
            assert kernel(1.0) == 0.0
            assert kernel(1.5) == 0.0

    def test_g_prime_boundary(self):
        assert BIWEIGHT.g_prime(1.0) == 0.0
        assert TRIWEIGHT.g_prime(1.0) == 0.0
        # limit from inside the support, needed for ratios that reach 1
        assert INDICATOR.g_prime(1.0) == 1.0
        for kernel in BUILTINS:
            assert kernel.g_prime(1.0 + 1e-12) == 0.0
            assert kernel.g_prime(-0.1) == 0.0

    def test_g_prime_hand_value(self):
        assert BIWEIGHT.g_prime(0.5) == pytest.approx(-0.3515625, abs=1e-15)

    @pytest.mark.parametrize("kernel", BUILTINS, ids=lambda k: k.name)
    def test_g_prime_matches_finite_differences(self, kernel):
        h = 1e-6
        grid = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
        numeric = (kernel.g(grid + h) - kernel.g(grid - h)) / (2 * h)
        assert np.max(np.abs(kernel.g_prime(grid) - numeric)) <= 1e-6

    @pytest.mark.parametrize("kernel", BUILTINS, ids=lambda k: k.name)
    def test_g_second_matches_finite_differences(self, kernel):
        h = 1e-5
        grid = np.linspace(1e-3, 1.0 - 1e-3, 2_000)
        numeric = (kernel.g(grid + h) - 2 * kernel.g(grid) + kernel.g(grid - h)) / h**2
        assert np.max(np.abs(kernel.g_second(grid) - numeric)) <= 1e-4


class TestAxioms:
    @pytest.mark.parametrize("kernel", BUILTINS, ids=lambda k: k.name)
    def test_builtins_pass(self, kernel):
        report = check_kernel_axioms(kernel)
        assert report.passed
        assert abs(report.integral - 1.0) <= 1e-10

    def test_unnormalized_kernel_fails_unit_integral(self):
        doubled = Kernel(
            "doubled",
            k=lambda s: 2.0 * np.ones_like(s),
            g_prime=lambda s: 2.0 * np.ones_like(s),
            g_second=lambda s: np.zeros_like(s),
        )
        report = check_kernel_axioms(doubled)
        assert not report.integrates_to_one
        assert not report.passed
        assert "unit-integral" in report.failures()
        with pytest.raises(KernelAxiomViolation):
            custom_kernel(
                "doubled",
                k=lambda s: 2.0 * np.ones_like(s),
                g_prime=lambda s: 2.0 * np.ones_like(s),
                g_second=lambda s: np.zeros_like(s),
            )

    def test_increasing_kernel_fails_monotonicity(self):
        rising = Kernel(
            "rising",
            k=lambda s: 2.0 * s,
            g_prime=lambda s: 4.0 * s,
            g_second=lambda s: 4.0 * np.ones_like(s),
        )
        report = check_kernel_axioms(rising)
        assert not report.monotone

    def test_custom_kernel_accepts_valid(self):
        # triangular kernel 2(1 - s): nonincreasing, unit mass
        kernel = custom_kernel(
            "triangular",
            k=lambda s: 2.0 * (1.0 - s),
            g_prime=lambda s: 2.0 - 4.0 * s,
            g_second=lambda s: -4.0 * np.ones_like(s),
        )
        assert kernel(0.0) == 2.0


class TestMomentSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidSpec):
            MomentSpec(gamma1=0.0, p=0.9)
        with pytest.raises(InvalidSpec):
            MomentSpec(gamma1=1.0, p=0.5)
        with pytest.raises(InvalidSpec):
            MomentSpec(gamma1=1.0, p=0.4)
        with pytest.raises(InvalidSpec):
            MomentSpec(gamma1=1.0, p=1.1)
        with pytest.raises(InvalidSpec):
            MomentSpec(gamma1=1.0, p=0.9, tau1=0.5)
        with pytest.raises(InvalidSpec):
            MomentSpec(gamma1=1.0, p=0.9, lam=np.inf)


class TestAsymptoticBias:
    def test_indicator_closed_form_example(self):
        spec = MomentSpec(gamma1=0.4, p=0.6, tau1=-1.0, lam=1.0)
        assert asymptotic_bias(INDICATOR, spec) == pytest.approx(0.5, abs=1e-10)

    def test_indicator_closed_form_on_tau_grid(self):
        for tau1 in np.linspace(-3.0, 0.0, 13):
            spec = MomentSpec(gamma1=1.0, p=0.8, tau1=float(tau1), lam=1.0)
            assert asymptotic_bias(INDICATOR, spec) == pytest.approx(
                1.0 / (1.0 - tau1), abs=1e-10
            )

    def test_zero_lambda_gives_zero(self):
        for kernel in BUILTINS:
            spec = MomentSpec(gamma1=0.7, p=0.9, tau1=-1.5, lam=0.0)
            assert asymptotic_bias(kernel, spec) == 0.0

    def test_biweight_against_riemann_oracle(self):
        spec = MomentSpec(gamma1=1.0, p=0.9, tau1=-0.5, lam=1.0)
        oracle = riemann_midpoint(lambda s: s**0.5 * BIWEIGHT(s), 1_000_000)
        assert asymptotic_bias(BIWEIGHT, spec) == pytest.approx(oracle, abs=1e-8)


class TestAsymptoticVariance:
    def test_indicator_closed_form_example(self):
        spec = MomentSpec(gamma1=0.4, p=0.6)
        assert asymptotic_variance(INDICATOR, spec) == pytest.approx(0.48, abs=1e-10)

    def test_indicator_closed_form_on_p_grid(self):
        for p in np.linspace(0.51, 1.0, 15):
            spec = MomentSpec(gamma1=0.7, p=float(p))
            closed = p * 0.7**2 / (2 * p - 1)
            assert asymptotic_variance(INDICATOR, spec) == pytest.approx(
                closed, abs=1e-10
            )

    def test_complete_data_indicator_is_hill_variance(self):
        spec = MomentSpec(gamma1=1.0, p=1.0)
        assert asymptotic_variance(INDICATOR, spec) == pytest.approx(1.0, abs=1e-12)

    def test_biweight_against_riemann_oracle(self):
        spec = MomentSpec(gamma1=0.4, p=0.9)
        alpha = 1.0 - 1.0 / 0.9
        oracle = 0.4**2 * riemann_power_weighted(
            lambda s: BIWEIGHT(s) ** 2, alpha, 1_000_000
        )
        assert asymptotic_variance(BIWEIGHT, spec) == pytest.approx(oracle, abs=1e-8)

    def test_p_at_most_half_rejected(self):
        with pytest.raises(InvalidSpec):
            MomentSpec(gamma1=1.0, p=0.5)


class TestQuadrature:
    def test_invariant_under_initial_subdivision(self):
        integrands = [
            lambda s: BIWEIGHT(s),
            lambda s: s ** (1.0 - 1.0 / 0.75) * TRIWEIGHT(s) ** 2,
            lambda s: s**1.5 * INDICATOR(s),
        ]
        for fn in integrands:
            whole = _adaptive_quad(fn, 0.0, 1.0)
            halved = _adaptive_quad(fn, 0.0, 0.5) + _adaptive_quad(fn, 0.5, 1.0)
            assert abs(whole - halved) <= 2e-10

    def test_builtin_unit_mass(self):
        for kernel in BUILTINS:
            assert abs(_adaptive_quad(kernel, 0.0, 1.0) - 1.0) <= 1e-10
