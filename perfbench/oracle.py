"""Reference implementation the benchmark checks censtail's outputs against.

Written from the estimator definitions, not from censtail's code, and kept
deliberately plain (one direct sum per k), so that an optimisation of the
package cannot move the reference along with it.  Nothing here imports
censtail.
"""

from __future__ import annotations

import math

import numpy as np

GAMMA1, ETA = 0.4, 0.25  # Burr losses
GAMMA2 = 3.6  # Frechet censoring

# g'(s) for g(s) = s K(s), on the closed support [0, 1].
G_PRIME = {
    "biweight": lambda s: 1.875 * (1.0 - s**2) * (1.0 - 5.0 * s**2),
    "triweight": lambda s: 2.1875 * (1.0 - s**2) ** 2 * (1.0 - 7.0 * s**2),
}
# K(s) as a polynomial in s, for exact moment integrals.
K_POLY = {
    "biweight": 1.875 * np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** 2,
    "triweight": 2.1875 * np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** 3,
}


def _open_unit(gen, size):
    u = gen.random(size)
    while True:
        zero = u == 0.0
        if not zero.any():
            return u
        u[zero] = gen.random(int(zero.sum()))


def draw(seed, stream, n, censored):
    """One sample from Philox substream (seed, stream): Burr(0.4, 0.25)
    losses, censored by Frechet(3.6) when ``censored``, else Pareto(1)
    complete data.  Loss uniforms are drawn before censoring uniforms."""
    gen = np.random.Generator(np.random.Philox(key=(int(stream) << 64) | int(seed)))
    u = _open_unit(gen, n)
    if not censored:
        return (1.0 - u) ** -1.0, np.ones(n, dtype=np.int8)
    x = ((1.0 - u) ** (-GAMMA1 / ETA) - 1.0) ** ETA
    c = (-np.log(_open_unit(gen, n))) ** (-GAMMA2)
    return np.minimum(x, c), (x <= c).astype(np.int8)


def order(z, delta):
    """Ascending order; at ties uncensored first, then input order."""
    idx = np.lexsort((-delta.astype(np.int64), z))
    return z[idx], delta[idx]


def survival_at_order_stats(z, delta):
    """Nelson-Aalen (strictly below z) and Kaplan-Meier (at or below z)
    survival evaluated at every order statistic of a sorted sample."""
    n = z.size
    pos = np.arange(n)
    first = np.searchsorted(z, z, side="left")
    last = np.searchsorted(z, z, side="right") - 1
    cum_hazard = np.concatenate(([0.0], np.cumsum(delta / (n - pos))))
    na = np.exp(-cum_hazard[first])
    km = np.cumprod(np.where(delta == 1, (n - 1.0 - pos) / (n - pos), 1.0))[last]
    return na, km


def path(z, delta, k_values, estimators, kernels):
    """Estimator columns over a k grid: {column: [value or None, ...]}."""
    n = z.size
    logz = np.log(z)
    d = delta.astype(float)
    na, km = survival_at_order_stats(z, delta)
    cols = {name: [] for name in estimators}
    cols.update({"kernel_" + name: [] for name in kernels})
    for k in k_values:
        t = n - k - 1
        hill = float(np.mean(logz[t + 1:]) - logz[t])
        p = float(np.mean(d[t + 1:]))
        top = slice(n - 1, t, -1)  # i = 1..k from the largest down
        inv_i = d[top] / np.arange(1, k + 1)
        ratio = na[top] / na[t]
        excess = logz[top] - logz[t]
        values = {
            "hill": hill,
            "p_hat": p,
            "efg": None if p == 0.0 else hill / p,
            "worms": None if km[t] == 0.0 else float(
                np.sum(km[t:n - 1] * np.diff(logz[t:])) / km[t]),
            "mns": float(np.sum(inv_i * ratio * excess)),
        }
        for name in estimators:
            cols[name].append(values[name])
        for name in kernels:
            g = G_PRIME[name](ratio)
            cols["kernel_" + name].append(float(np.sum(inv_i * ratio * g * excess)))
    return cols


def aggregate(columns_per_rep, k_count, target):
    """Per-cell mean, bias, mse and defined count over replications."""
    out = {}
    for name in columns_per_rep[0]:
        cells = []
        for j in range(k_count):
            xs = [rep[name][j] for rep in columns_per_rep if rep[name][j] is not None]
            if not xs:
                cells.append((None, None, None, 0))
                continue
            mean = math.fsum(xs) / len(xs)
            mse = math.fsum((x - target) ** 2 for x in xs) / len(xs)
            cells.append((mean, mean - target, mse, len(xs)))
        out[name] = cells
    return out


def simulation(seed, n, replications, k_values, estimators, kernels, censored=True):
    reps = [path(*order(*draw(seed, r, n, censored)), k_values, estimators, kernels)
            for r in range(1, replications + 1)]
    return aggregate(reps, len(k_values), GAMMA1 if censored else 1.0)


def normality(seed, n, k, replications, kernel):
    """Fields of the normality report for Pareto(1) complete data."""
    cells = simulation(seed, n, replications, (k,), (), (kernel,), censored=False)
    mean, bias, mse, count = cells["kernel_" + kernel][0]
    sample_var = (mse - bias**2) * count / (count - 1)
    integral = (K_POLY[kernel] ** 2).integ()
    return {
        "kernel_name": kernel, "n": n, "k": k, "replications": replications,
        "defined_count": count, "gamma1": 1.0, "p": 1.0,
        "empirical_mean": math.sqrt(k) * bias,
        "empirical_variance": k * sample_var,
        "theoretical_variance": float(integral(1.0) - integral(0.0)),
    }
