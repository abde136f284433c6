"""Kernel weight functions and their asymptotic moment integrals.

A kernel here is a nonincreasing probability density supported on [0, 1).
The tail estimator consumes the derivative of g(s) = s*K(s) evaluated at
survival ratios in (0, 1]; the limiting normal law of the estimator has a
mean and a variance that are weighted integrals of K and K^2 computed by
:func:`asymptotic_bias` and :func:`asymptotic_variance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, KernelAxiomViolation, UnknownKernel


def _masked(fn, s, hi_open):
    """Evaluate an inside-support formula, zero outside.

    The support is [0, 1) when ``hi_open`` (the kernel itself) and [0, 1]
    otherwise: g' and g'' at the right endpoint are taken as the limit from
    inside the support, so that the boundary ratio R = 1 produced by a
    fully-censored stretch between the threshold and an uncensored
    observation is weighted consistently with R -> 1-.
    """
    arr = np.asarray(s, dtype=float)
    inside = (arr >= 0.0) & ((arr < 1.0) if hi_open else (arr <= 1.0))
    out = np.zeros(arr.shape)
    if inside.any():
        out[inside] = fn(arr[inside])
    if np.ndim(s) == 0:
        return float(out)
    return out


class Kernel:
    """A kernel function with the derivative algebra of g(s) = s*K(s).

    Parameters
    ----------
    name : str
        Identifier used in column names and CLI selections.
    k : callable
        K(s) on the support [0, 1); vectorized.
    g_prime : callable
        d(s*K(s))/ds on (0, 1); vectorized.
    g_second : callable
        Second derivative of s*K(s); used for diagnostics only.
    verified : bool
        True once the kernel axioms have been checked; the estimators
        refuse unverified kernels.  Build custom kernels through
        :func:`custom_kernel`, which verifies and sets this flag.

    Attributes
    ----------
    g_prime_coefficients : tuple of float or None
        Coefficients c_0, c_1, ... of g'(s) = sum of c_m s^m on [0, 1] for
        the built-in kernels, from which the estimators read every k of a
        grid off cumulative sums; None for custom kernels, which are
        evaluated one k at a time.
    """

    g_prime_coefficients = None

    def __init__(self, name, k, g_prime, g_second, verified=False):
        self.name = name
        self._k = k
        self._g_prime = g_prime
        self._g_second = g_second
        self.verified = verified

    def __call__(self, s):
        return _masked(self._k, s, hi_open=True)

    def g(self, s):
        return _masked(lambda x: x * self._k(x), s, hi_open=True)

    def g_prime(self, s):
        return _masked(self._g_prime, s, hi_open=False)

    def g_second(self, s):
        return _masked(self._g_second, s, hi_open=False)

    def __repr__(self):
        return f"Kernel({self.name!r})"


INDICATOR = Kernel(
    "indicator",
    k=lambda s: np.ones_like(s),
    g_prime=lambda s: np.ones_like(s),
    g_second=lambda s: np.zeros_like(s),
    verified=True,
)

BIWEIGHT = Kernel(
    "biweight",
    k=lambda s: 1.875 * (1.0 - s**2) ** 2,
    g_prime=lambda s: 1.875 * (1.0 - s**2) * (1.0 - 5.0 * s**2),
    g_second=lambda s: 1.875 * (20.0 * s**3 - 12.0 * s),
    verified=True,
)

TRIWEIGHT = Kernel(
    "triweight",
    k=lambda s: 2.1875 * (1.0 - s**2) ** 3,
    g_prime=lambda s: 2.1875 * (1.0 - s**2) ** 2 * (1.0 - 7.0 * s**2),
    g_second=lambda s: 2.1875 * (-18.0 * s + 60.0 * s**3 - 42.0 * s**5),
    verified=True,
)

# g' expanded in powers of s; every product below is exact in binary
INDICATOR.g_prime_coefficients = (1.0,)
BIWEIGHT.g_prime_coefficients = tuple(1.875 * c for c in (1, 0, -6, 0, 5))
TRIWEIGHT.g_prime_coefficients = tuple(2.1875 * c for c in (1, 0, -9, 0, 15, 0, -7))

_BUILTINS = {
    "indicator": INDICATOR,
    "k1": INDICATOR,
    "uniform": INDICATOR,
    "biweight": BIWEIGHT,
    "k2": BIWEIGHT,
    "triweight": TRIWEIGHT,
    "k3": TRIWEIGHT,
}

BUILTIN_KERNEL_NAMES = ("indicator", "biweight", "triweight")


def builtin_kernel(name):
    """Return a built-in kernel by name.

    Accepted names: ``indicator`` (alias ``k1``/``uniform``), ``biweight``
    (alias ``k2``), ``triweight`` (alias ``k3``); case-insensitive.
    """
    try:
        return _BUILTINS[str(name).strip().lower()]
    except KeyError:
        raise UnknownKernel(f"unknown kernel {name!r}; "
                            f"built-ins are {', '.join(BUILTIN_KERNEL_NAMES)}") from None


def custom_kernel(name, k, g_prime, g_second, tol=1e-8):
    """Build a kernel from inside-support callables and verify the axioms.

    Raises
    ------
    KernelAxiomViolation
        If the resulting kernel fails any of the four axiom checks.
    """
    kernel = Kernel(name, k, g_prime, g_second)
    report = check_kernel_axioms(kernel, tol=tol)
    if not report.passed:
        raise KernelAxiomViolation(
            f"kernel {name!r} failed axiom checks: {report.failures()}"
        )
    kernel.verified = True
    return kernel


# ---------------------------------------------------------------------------
# Axiom checks


@dataclass(frozen=True)
class KernelAxiomReport:
    """Per-axiom verdicts for one kernel.

    ``monotone``: nonincreasing on the support; ``support_ok``: nonnegative
    on [0, 1) and zero outside; ``integrates_to_one``: unit mass within the
    requested tolerance; ``bounded``: finite suprema of |K|, |g'| and |g''|.
    """

    kernel_name: str
    monotone: bool
    support_ok: bool
    integral: float
    integrates_to_one: bool
    sup_k: float
    sup_g_prime: float
    sup_g_second: float
    bounded: bool

    @property
    def passed(self):
        return self.monotone and self.support_ok and self.integrates_to_one and self.bounded

    def failures(self):
        names = []
        if not self.monotone:
            names.append("monotone")
        if not self.support_ok:
            names.append("support")
        if not self.integrates_to_one:
            names.append("unit-integral")
        if not self.bounded:
            names.append("bounded")
        return ", ".join(names) or "none"


def check_kernel_axioms(kernel, tol=1e-10, grid_points=10_001):
    """Check the four kernel axioms on a fine grid plus quadrature.

    Monotonicity and boundedness are sampled on ``grid_points`` points of
    the support; the unit integral uses adaptive quadrature with absolute
    tolerance ``tol``.
    """
    grid = np.linspace(0.0, 1.0, grid_points, endpoint=False)
    values = kernel(grid)
    monotone = bool(np.all(np.diff(values) <= 1e-12))
    outside = np.array([-10.0, -1.0, -1e-9, 1.0, 1.0 + 1e-9, 2.0, 10.0])
    support_ok = bool(np.all(values >= 0.0) and np.all(kernel(outside) == 0.0))
    integral = _adaptive_quad(kernel, 0.0, 1.0)
    integrates = bool(abs(integral - 1.0) <= tol)
    wide = np.linspace(-0.5, 1.5, grid_points)
    sup_k = float(np.max(np.abs(kernel(wide))))
    sup_gp = float(np.max(np.abs(kernel.g_prime(wide))))
    sup_gs = float(np.max(np.abs(kernel.g_second(wide))))
    bounded = bool(np.isfinite(sup_k) and np.isfinite(sup_gp) and np.isfinite(sup_gs))
    return KernelAxiomReport(
        kernel_name=kernel.name,
        monotone=monotone,
        support_ok=support_ok,
        integral=integral,
        integrates_to_one=integrates,
        sup_k=sup_k,
        sup_g_prime=sup_gp,
        sup_g_second=sup_gs,
        bounded=bounded,
    )


# ---------------------------------------------------------------------------
# Asymptotic moments


@dataclass(frozen=True)
class MomentSpec:
    """Parameters entering the limiting mean and variance of the estimator.

    ``gamma1`` is the tail index (> 0), ``p`` the limiting proportion of
    uncensored top observations (must exceed 1/2 for the variance integral
    to converge), ``tau1`` the second-order parameter (<= 0) and ``lam`` the
    limit of sqrt(k) times the second-order bias function.
    """

    gamma1: float
    p: float
    tau1: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if not (self.gamma1 > 0 and np.isfinite(self.gamma1)):
            raise InvalidSpec(f"gamma1 must be positive, got {self.gamma1}")
        if not (0.5 < self.p <= 1.0):
            raise InvalidSpec(
                f"p must be greater than 1/2 and at most 1, got {self.p}"
            )
        if not (self.tau1 <= 0 and np.isfinite(self.tau1)):
            raise InvalidSpec(f"tau1 must be <= 0, got {self.tau1}")
        if not np.isfinite(self.lam):
            raise InvalidSpec(f"lam must be finite, got {self.lam}")


def _adaptive_quad(fn, a, b):
    """Adaptive quadrature to ~1e-12 absolute.

    scipy.integrate is imported here, on first use, so that importing
    censtail, estimating and simulating do not load it.
    """
    from scipy.integrate import quad

    value, _ = quad(fn, a, b, epsabs=1e-13, epsrel=1e-13, limit=500)
    return value


def asymptotic_bias(kernel, spec):
    """Limiting mean of the centered, sqrt(k)-scaled kernel estimator.

    Computes lam times the integral over (0, 1) of s^(-tau1) * K(s) by
    adaptive quadrature (absolute tolerance 1e-10; the integrand is bounded
    because tau1 <= 0).
    """
    tau1 = spec.tau1
    return spec.lam * _adaptive_quad(lambda s: s ** (-tau1) * kernel(s), 0.0, 1.0)


def asymptotic_variance(kernel, spec):
    """Limiting variance of the centered, sqrt(k)-scaled kernel estimator.

    Computes gamma1^2 times the integral over (0, 1) of s^(1 - 1/p) * K(s)^2.
    For p < 1 the integrand has an integrable singularity at 0, handled by
    the adaptive scheme; p <= 1/2 is rejected because the integral diverges.
    """
    exponent = 1.0 - 1.0 / spec.p
    value = _adaptive_quad(lambda s: s**exponent * kernel(s) ** 2, 0.0, 1.0)
    return spec.gamma1**2 * value
