"""Monte Carlo engine: replicated sampling, estimate paths, aggregation.

Replication r always draws from random substream r of the master seed, and
partial results are merged in replication order, so the outcome depends
only on the configuration and never on scheduling or worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError, TooFewPoints, UnknownKernel
from .estimators import ESTIMATOR_NAMES, KERNEL_COLUMN_PREFIX, _repeated, _tail_path
from .kernels import (
    BUILTIN_KERNEL_NAMES,
    Kernel,
    MomentSpec,
    asymptotic_variance,
    builtin_kernel,
)
from .models import Burr, Frechet, ModelSpec, Pareto, RngStream, sample_censored
from .samples import Table

CONFIG_SCHEMA = "censtail-sim-config/1"
RESULT_SCHEMA = "censtail-sim-result/1"

# JSON family name -> (distribution class, parameters in constructor order)
_LOSS_FAMILIES = {"burr": (Burr, ("gamma1", "eta")), "pareto": (Pareto, ("gamma1",))}
_CENSOR_FAMILIES = {"frechet": (Frechet, ("gamma2",))}


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one Monte Carlo experiment.

    ``kernels`` holds built-in kernel names and verified custom
    :class:`~censtail.kernels.Kernel` objects (each adds a
    ``kernel_<name>`` column next to the plain ``estimators``); a built-in
    given as an object is stored by name.  ``workers`` is a hint only:
    results are identical for any worker count.  Running a custom kernel in
    more than one worker needs a picklable kernel (module-level functions,
    not lambdas), and only built-in kernels round-trip through JSON.
    """

    model: ModelSpec
    n: int
    replications: int
    k_values: tuple
    estimators: tuple = ("efg", "worms", "mns")
    kernels: tuple = ("biweight", "triweight")
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.model, ModelSpec):
            raise ConfigError("model must be a ModelSpec", field="model")
        for field in ("n", "replications", "master_seed", "workers"):
            object.__setattr__(self, field, _integer(getattr(self, field), field))
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}", field="n")
        if self.replications < 1:
            raise ConfigError(
                f"replications must be >= 1, got {self.replications}",
                field="replications",
            )
        k_values = tuple(_integer(k, "k_values") for k in self.k_values)
        if not k_values:
            raise ConfigError("k_values must be nonempty", field="k_values")
        if any(b <= a for a, b in zip(k_values, k_values[1:])):
            raise ConfigError("k_values must be strictly ascending", field="k_values")
        if k_values[0] < 1 or k_values[-1] > self.n - 1:
            raise ConfigError(
                f"k_values must lie within [1, {self.n - 1}]", field="k_values"
            )
        estimators = tuple(str(e) for e in self.estimators)
        for name in estimators:
            if name not in ESTIMATOR_NAMES:
                raise ConfigError(
                    f"unknown estimator {name!r}", field="estimators"
                )
        kernels = tuple(_config_kernel(entry) for entry in self.kernels)
        for field, names in (
            ("estimators", estimators),
            ("kernels", [getattr(entry, "name", entry) for entry in kernels]),
        ):
            repeat = _repeated(names)
            if repeat is not None:
                raise ConfigError(f"{repeat!r} appears twice in {field}", field=field)
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(
                "master_seed must be an unsigned 64-bit integer", field="master_seed"
            )
        if self.workers < 1:
            raise ConfigError(
                f"workers must be >= 1, got {self.workers}", field="workers"
            )
        object.__setattr__(self, "k_values", k_values)
        object.__setattr__(self, "estimators", estimators)
        object.__setattr__(self, "kernels", kernels)

    def to_json_dict(self):
        return {
            "schema": CONFIG_SCHEMA,
            "model": {
                "loss": _family_doc(self.model.loss, _LOSS_FAMILIES),
                "censor": _family_doc(self.model.censor, _CENSOR_FAMILIES),
            },
            "n": self.n,
            "replications": self.replications,
            "k_values": list(self.k_values),
            "estimators": list(self.estimators),
            "kernels": [kern.name for kern in self._kernel_objects()],
            "master_seed": self.master_seed,
            "workers": self.workers,
        }

    def _kernel_objects(self):
        return tuple(
            entry if isinstance(entry, Kernel) else builtin_kernel(entry)
            for entry in self.kernels
        )

    @classmethod
    def from_json_dict(cls, doc):
        """Parse a configuration document, reporting the offending field
        path in any ConfigError."""
        if not isinstance(doc, dict):
            raise ConfigError("configuration must be a JSON object", field="")
        schema = doc.get("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ConfigError(
                f"unsupported schema {schema!r}, expected {CONFIG_SCHEMA!r}",
                field="schema",
            )
        model = _parse_model(_get(doc, "model", dict))
        n = _get(doc, "n", int)
        replications = _get(doc, "replications", int)
        k_values = _parse_k(doc)
        optional = {
            key: doc[key]
            for key in ("estimators", "kernels", "master_seed", "workers")
            if key in doc
        }
        return cls(
            model=model,
            n=n,
            replications=replications,
            k_values=k_values,
            **optional,
        )


def _integer(value, field):
    """``value`` as a Python int; a boolean or a non-integer is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{field} must be an integer, got {value!r}", field=field)
    return int(value)


def _config_kernel(entry):
    """A built-in kernel's name, or a verified custom kernel itself."""
    if isinstance(entry, Kernel):
        if entry.name in BUILTIN_KERNEL_NAMES and builtin_kernel(entry.name) is entry:
            return entry.name
        if not entry.verified:
            raise ConfigError(
                f"kernel {entry.name!r} has not passed the axiom checks; "
                "build it with censtail.kernels.custom_kernel",
                field="kernels",
            )
        return entry
    try:
        return builtin_kernel(str(entry)).name
    except UnknownKernel as exc:
        raise ConfigError(str(exc), field="kernels") from None


def _get(doc, key, typ, path=""):
    full = f"{path}.{key}" if path else key
    if key not in doc:
        raise ConfigError(f"missing field {full!r}", field=full)
    value = doc[key]
    if typ is int and isinstance(value, bool):
        raise ConfigError(f"field {full!r} must be an integer", field=full)
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, typ):
        raise ConfigError(f"field {full!r} has the wrong type", field=full)
    return value


def _family_doc(dist, families):
    """The JSON object of a distribution: its family name from ``families``
    and its parameters; None for no distribution."""
    for family, (cls, params) in families.items():
        if isinstance(dist, cls):
            return {"family": family, **{name: getattr(dist, name) for name in params}}
    return None


def _parse_family(doc, part, families):
    path = f"model.{part}"
    family = _get(doc, "family", str, path=path)
    if family not in families:
        raise ConfigError(f"unknown {part} family {family!r}", field=f"{path}.family")
    cls, params = families[family]
    return cls(*(_get(doc, name, float, path=path) for name in params))


def _parse_model(doc):
    loss = _parse_family(_get(doc, "loss", dict, path="model"), "loss", _LOSS_FAMILIES)
    censor_doc = doc.get("censor")
    if censor_doc is None:
        return ModelSpec(loss=loss)
    if not isinstance(censor_doc, dict):
        raise ConfigError("censor must be an object or null", field="model.censor")
    censor = _parse_family(censor_doc, "censor", _CENSOR_FAMILIES)
    return ModelSpec(loss=loss, censor=censor)


def _parse_k(doc):
    if "k_values" in doc:
        values = doc["k_values"]
        if not isinstance(values, list) or not all(isinstance(v, int) for v in values):
            raise ConfigError("k_values must be a list of integers", field="k_values")
        return tuple(values)
    if "k_grid" in doc:
        grid = _get(doc, "k_grid", dict)
        lo = _get(grid, "min", int, path="k_grid")
        hi = _get(grid, "max", int, path="k_grid")
        step = grid.get("step", 1)
        if not isinstance(step, int) or step < 1:
            raise ConfigError("k_grid.step must be a positive integer", field="k_grid.step")
        if hi < lo:
            raise ConfigError("k_grid.max must be >= k_grid.min", field="k_grid.max")
        return tuple(range(lo, hi + 1, step))
    raise ConfigError("either k_values or k_grid is required", field="k_values")


@dataclass(frozen=True)
class CellAggregate:
    """Summary of one (estimator, k) cell across replications.

    ``defined_count`` plus the number of undefined replications equals the
    total replication count; mean/bias/mse are None when no replication
    produced a defined value.
    """

    mean: float | None
    bias: float | None
    mse: float | None
    defined_count: int


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated output of :func:`run_simulation`.

    ``cells`` maps column name to a tuple of :class:`CellAggregate` aligned
    with ``config.k_values``.
    """

    config: SimulationConfig
    cells: dict
    runtime_seconds: float

    @property
    def column_names(self):
        return tuple(self.cells)

    def to_table(self):
        rows = []
        for name, aggregates in self.cells.items():
            for k, agg in zip(self.config.k_values, aggregates):
                rows.append((name, k, agg.mean, agg.bias, agg.mse, agg.defined_count))
        return Table(
            ("estimator", "k", "mean", "bias", "mse", "defined_count"), tuple(rows)
        )

    def to_json_dict(self):
        table = self.to_table()
        return {
            "schema": RESULT_SCHEMA,
            "config": self.config.to_json_dict(),
            "runtime_seconds": self.runtime_seconds,
            "results": [dict(zip(table.columns, row)) for row in table.rows],
        }


def _replicate_paths(config, r_start, r_stop):
    """Estimate arrays for replications r_start..r_stop-1 (1-based streams),
    stacked as (replication, column, k) with NaN for undefined cells."""
    kernels = config._kernel_objects()
    out = []
    for r in range(r_start, r_stop):
        sample = sample_censored(config.model, config.n, RngStream(config.master_seed, r))
        out.append(_tail_path(sample, config.k_values, config.estimators, kernels))
    return np.stack(out)


def _collect_paths(config):
    """Every replication's estimates, stacked as (replication, column, k)
    with NaN for undefined cells, in replication order for any worker count."""
    total = config.replications
    workers = min(config.workers, total, os.cpu_count() or 1)
    try:
        if workers <= 1:
            return _replicate_paths(config, 1, total + 1)
        chunks = []
        per = math.ceil(total / (workers * 4))
        start = 1
        while start <= total:
            stop = min(start + per, total + 1)
            chunks.append((start, stop))
            start = stop
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pieces = list(
                pool.map(_replicate_paths, [config] * len(chunks), *zip(*chunks))
            )
    except Exception as exc:
        raise SimulationError(f"simulation replication failed: {exc}") from exc
    return np.concatenate(pieces)


def run_simulation(config):
    """Run the full experiment described by a configuration.

    Parameters
    ----------
    config : SimulationConfig

    Returns
    -------
    SimulationResult
        Per-cell mean, bias and MSE against the model's true tail index,
        aggregated over the replications where the estimator was defined.
        Results are bit-identical for a fixed master seed regardless of
        worker count.
    """
    started = time.perf_counter()
    paths = _collect_paths(config)
    target = config.model.gamma1
    names = (
        *config.estimators,
        *(KERNEL_COLUMN_PREFIX + kern.name for kern in config._kernel_objects()),
    )
    cells = {}
    # one (replication x k) column at a time keeps the temporaries small
    for name, column in zip(names, np.moveaxis(paths, 1, 0)):
        count = np.count_nonzero(~np.isnan(column), axis=0)
        divisor = np.maximum(count, 1)
        mean = np.nansum(column, axis=0) / divisor
        mse = np.nansum((column - target) ** 2, axis=0) / divisor
        cells[name] = tuple(
            CellAggregate(m, m - target, e, c) if c else CellAggregate(None, None, None, 0)
            for m, e, c in zip(mean.tolist(), mse.tolist(), count.tolist())
        )
    runtime = time.perf_counter() - started
    return SimulationResult(config=config, cells=cells, runtime_seconds=runtime)


def curve_smoothness(values):
    """Total variation of an estimate-vs-k curve.

    Sums |v_{j+1} - v_j| over consecutive defined points, skipping
    undefined cells; a curve with fewer than two defined points has no
    meaningful variation and raises TooFewPoints.
    """
    defined = [v for v in values if v is not None]
    if len(defined) < 2:
        raise TooFewPoints("need at least two defined points")
    return float(np.sum(np.abs(np.diff(defined))))


@dataclass(frozen=True)
class NormalityReport:
    """Empirical vs theoretical law of the scaled estimation error.

    Summarizes sqrt(k) * (estimate - gamma1) across replications next to
    the limiting variance (:func:`~censtail.kernels.asymptotic_variance`)
    for the model's uncensored proportion p.
    """

    kernel_name: str
    n: int
    k: int
    replications: int
    defined_count: int
    gamma1: float
    p: float
    empirical_mean: float
    empirical_variance: float
    theoretical_variance: float

    @property
    def variance_ratio(self):
        return self.empirical_variance / self.theoretical_variance


def normality_check(model, n, k, replications, kernel, master_seed=0, workers=1):
    """Monte Carlo check of the limiting normal law of the kernel estimator.

    Draws ``replications`` samples of size n from ``model``, evaluates the
    kernel estimator at the single ``k``, and reports the empirical mean
    and variance of sqrt(k) * (estimate - gamma1) next to the limiting
    variance for the model's p.  Choose k small relative to n so the
    limiting mean is negligible.  ``kernel`` is a built-in kernel name or a
    verified kernel, built-in or made by :func:`~censtail.kernels.custom_kernel`.
    """
    kern = builtin_kernel(kernel) if isinstance(kernel, str) else kernel
    config = SimulationConfig(
        model=model,
        n=n,
        replications=replications,
        k_values=(int(k),),
        estimators=(),
        kernels=(kern,),
        master_seed=master_seed,
        workers=workers,
    )
    result = run_simulation(config)
    agg = result.cells[KERNEL_COLUMN_PREFIX + kern.name][0]
    if agg.defined_count < 2:
        raise SimulationError("fewer than two defined replications")
    population_var = agg.mse - agg.bias**2
    sample_var = population_var * agg.defined_count / (agg.defined_count - 1)
    spec = MomentSpec(gamma1=model.gamma1, p=model.p)
    return NormalityReport(
        kernel_name=kern.name,
        n=n,
        k=int(k),
        replications=replications,
        defined_count=agg.defined_count,
        gamma1=model.gamma1,
        p=model.p,
        empirical_mean=math.sqrt(k) * agg.bias,
        empirical_variance=k * sample_var,
        theoretical_variance=asymptotic_variance(kern, spec),
    )

