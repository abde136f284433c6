"""Kernel weight functions and their asymptotic moment integrals.

A kernel here is a nonincreasing probability density supported on [0, 1).
The tail estimator consumes the derivative of g(s) = s*K(s) evaluated at
survival ratios in (0, 1]; the limiting normal law of the estimator has a
mean and a variance that are weighted integrals of K and K^2 computed by
:func:`asymptotic_bias` and :func:`asymptotic_variance`.
"""

from __future__ import annotations

import math
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

    Attributes
    ----------
    verified : bool
        True for the built-ins and for kernels from :func:`custom_kernel`,
        which checks the axioms; the estimators refuse unverified kernels.
    g_prime_coefficients : tuple of float or None
        Coefficients c_0, c_1, ... of g'(s) = sum of c_m s^m on [0, 1] for
        the built-in kernels, from which the estimators read every k of a
        grid off cumulative sums; None for custom kernels, which are
        evaluated one k at a time.
    """

    verified = False
    g_prime_coefficients = None
    _coefficients = None  # a_0, a_1, ... of K(s) = sum of a_m s^m, built-ins only

    def __init__(self, name, k, g_prime, g_second):
        self.name = name
        self._k = k
        self._g_prime = g_prime
        self._g_second = g_second

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


def _horner(coefficients):
    """s -> sum of c_m s^m over ``coefficients`` c_0, c_1, ..., by Horner's rule."""
    highest_first = np.array(coefficients[::-1], dtype=float)
    return lambda s: np.polyval(highest_first, s)


def _builtin(name, coefficients):
    """The verified kernel K(s) = sum of a_m s^m on [0, 1).  g = s*K puts a_m
    at power m + 1, so g' has (m+1) a_m at power m, g'' m (m+1) a_m at m - 1."""
    g_prime = tuple((m + 1) * a for m, a in enumerate(coefficients))
    g_second = tuple(m * c for m, c in enumerate(g_prime))[1:]
    kernel = Kernel(name, _horner(coefficients), _horner(g_prime), _horner(g_second))
    kernel._coefficients = coefficients
    kernel.g_prime_coefficients = g_prime
    kernel.verified = True
    return kernel


# K's power coefficients; every product below is exact in binary
INDICATOR = _builtin("indicator", (1.0,))
BIWEIGHT = _builtin("biweight", tuple(1.875 * a for a in (1, 0, -2, 0, 1)))
TRIWEIGHT = _builtin("triweight", tuple(2.1875 * a for a in (1, 0, -3, 0, 3, 0, -1)))

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


def custom_kernel(name, k, g_prime, g_second):
    """Build a kernel from inside-support callables and verify the axioms
    (the unit mass to 1e-8).

    Raises
    ------
    KernelAxiomViolation
        If the resulting kernel fails any of the four axiom checks.
    """
    kernel = Kernel(name, k, g_prime, g_second)
    report = check_kernel_axioms(kernel, tol=1e-8)
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
        verdicts = (("monotone", self.monotone), ("support", self.support_ok),
                    ("unit-integral", self.integrates_to_one), ("bounded", self.bounded))
        return ", ".join(name for name, ok in verdicts if not ok) or "none"


_AXIOM_GRID_POINTS = 10_001


def check_kernel_axioms(kernel, tol=1e-10):
    """Check the four kernel axioms on a fine grid plus the unit integral.

    Monotonicity and boundedness are sampled on 10,001 points of the
    support; the unit integral (see :func:`_power_moment`) must lie within
    absolute tolerance ``tol`` of 1.
    """
    grid = np.linspace(0.0, 1.0, _AXIOM_GRID_POINTS, endpoint=False)
    values = kernel(grid)
    monotone = bool(np.all(np.diff(values) <= 1e-12))
    outside = np.array([-10.0, -1.0, -1e-9, 1.0, 1.0 + 1e-9, 2.0, 10.0])
    support_ok = bool(np.all(values >= 0.0) and np.all(kernel(outside) == 0.0))
    integral = _power_moment(kernel, 0.0, 1)
    integrates = bool(abs(integral - 1.0) <= tol)
    wide = np.linspace(-0.5, 1.5, _AXIOM_GRID_POINTS)
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
    """Adaptive quadrature to ~1e-12 absolute, for a custom kernel's moments.

    scipy.integrate is imported here, on first use, so nothing else loads it.
    """
    from scipy.integrate import quad

    value, _ = quad(fn, a, b, epsabs=1e-13, epsrel=1e-13, limit=500)
    return value


def _power_moment(kernel, power, degree):
    """Integral over (0, 1) of s^power * K(s)^degree, power > -1: for a
    built-in, the sum of b_j / (j + power + 1) over the coefficients b of
    K^degree; for a custom kernel, adaptive quadrature."""
    a = kernel._coefficients
    if a is None:
        return _adaptive_quad(lambda s: s**power * kernel(s) ** degree, 0.0, 1.0)
    b = np.convolve(a, a).tolist() if degree == 2 else a
    return math.fsum(bj / (j + power + 1) for j, bj in enumerate(b))


def asymptotic_bias(kernel, spec):
    """Limiting mean of the centered, sqrt(k)-scaled kernel estimator.

    lam times the integral over (0, 1) of s^(-tau1) * K(s); the integrand
    is bounded because tau1 <= 0.
    """
    return spec.lam * _power_moment(kernel, -spec.tau1, 1)


def asymptotic_variance(kernel, spec):
    """Limiting variance of the centered, sqrt(k)-scaled kernel estimator.

    gamma1^2 times the integral over (0, 1) of s^(1 - 1/p) * K(s)^2.  For
    p < 1 the integrand has an integrable singularity at 0; p <= 1/2 is
    rejected because the integral diverges.
    """
    return spec.gamma1**2 * _power_moment(kernel, 1.0 - 1.0 / spec.p, 2)
