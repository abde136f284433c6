"""Monte Carlo engine: replicated sampling, estimate paths, aggregation.

Replication r always draws from random substream r of the master seed, and
partial results are merged in replication order, so the outcome depends
only on the configuration and never on scheduling or worker count.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError, TooFewPoints, UnknownKernel
from .estimators import _check_kernel, _columns, _k_grid, _tail_path
from .kernels import (
    BUILTIN_KERNEL_NAMES,
    Kernel,
    MomentSpec,
    asymptotic_variance,
    builtin_kernel,
)
from .models import Burr, Frechet, ModelSpec, Pareto, RngStream, _top_sample
from .samples import Table, _in_processes, _integer, _processes, _usable_cpus

_log = logging.getLogger("censtail")

CONFIG_SCHEMA = "censtail-sim-config/1"
RESULT_SCHEMA = "censtail-sim-result/1"

# JSON family name -> (distribution class, parameters in constructor order)
_LOSS_FAMILIES = {"burr": (Burr, ("gamma1", "eta")), "pareto": (Pareto, ("gamma1",))}
_CENSOR_FAMILIES = {"frechet": (Frechet, ("gamma2",))}


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one Monte Carlo experiment.

    ``k_values`` is a nonempty k grid under the rule of :func:`~censtail.estimate_path`,
    read one k at a time and stored as a tuple of ints.  ``kernels`` holds built-in
    kernel names and verified custom :class:`~censtail.kernels.Kernel` objects (each
    adds a ``kernel_<name>`` column next to the plain ``estimators``); a built-in given
    as an object is stored by name.  ``workers`` is a hint only: results are identical
    for any worker count, run in at most min(workers, replications, usable CPUs)
    processes by the rule of ``_processes`` in :mod:`censtail.samples`.  A custom
    kernel run in more than one process must be picklable (module-level functions,
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
            value = _integer(getattr(self, field), field, ConfigError, field=field)
            object.__setattr__(self, field, value)
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}", field="n")
        if self.replications < 1:
            raise ConfigError(
                f"replications must be >= 1, got {self.replications}",
                field="replications",
            )
        k_values = _k_grid(_listed(self.k_values, "k_values"), self.n, ConfigError,
                           field="k_values")
        if not k_values:
            raise ConfigError("k_values must be nonempty", field="k_values")
        estimators = tuple(str(e) for e in _listed(self.estimators, "estimators"))
        kernels = tuple(_config_kernel(entry) for entry in _listed(self.kernels, "kernels"))
        _columns(estimators, [getattr(entry, "name", entry) for entry in kernels])
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
        k_values = _parse_k(doc, n)
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


def _listed(value, field):
    """An iterator over the entries of ``value``; a string, a dict or a value
    that is not iterable is a ConfigError on ``field``."""
    if not isinstance(value, (str, bytes, dict)):
        try:
            return iter(value)
        except TypeError:
            pass
    raise ConfigError(f"{field} must be a list, got {value!r}", field=field)


def _config_kernel(entry):
    """A built-in kernel's name, or a verified custom kernel itself."""
    if isinstance(entry, Kernel):
        if entry.name in BUILTIN_KERNEL_NAMES and builtin_kernel(entry.name) is entry:
            return entry.name
        return _check_kernel(entry, ConfigError, field="kernels")
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
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"field {full!r} is out of range", field=full) from None
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


def _parse_k(doc, n):
    if "k_values" in doc:
        return doc["k_values"]  # checked by SimulationConfig
    if "k_grid" in doc:
        grid = _get(doc, "k_grid", dict)
        lo = _get(grid, "min", int, path="k_grid")
        hi = _get(grid, "max", int, path="k_grid")
        step = _get(grid, "step", int, path="k_grid") if "step" in grid else 1
        if step < 1:
            raise ConfigError("k_grid.step must be a positive integer", field="k_grid.step")
        if hi < lo:
            raise ConfigError("k_grid.max must be >= k_grid.min", field="k_grid.max")
        if lo < 1:
            raise ConfigError(f"k_grid.min must be >= 1, got {lo}", field="k_grid.min")
        if hi > n - 1:
            raise ConfigError(f"k_grid.max must be <= {n - 1} (n = {n}), got {hi}",
                              field="k_grid.max")
        return range(lo, hi + 1, step)
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
    top = config.k_values[-1] + 1  # the rows _tail_path reads
    out = []
    for r in range(r_start, r_stop):
        sample = _top_sample(config.model, config.n, top, RngStream(config.master_seed, r))
        out.append(_tail_path(sample, config.k_values, config.estimators, kernels))
    return np.stack(out)


def _collect_paths(config, notes=None):
    """Every replication's estimates, stacked as (replication, column, k)
    with NaN for undefined cells, in replication order for any worker count.

    The replications are cut into ``_processes(min(workers, replications))``
    near-equal runs, run by :func:`_in_processes`.  ``notes``, a dict, gets
    the processes used and why they are fewer than min(workers,
    replications): "CPU bound", "fork unsafe" or "pool failed: ..."."""
    notes = {} if notes is None else notes
    total = config.replications
    wanted = min(config.workers, total)
    processes = _processes(wanted)
    bounds = [1 + total * i // processes for i in range(processes + 1)]
    try:
        pieces, failed = _in_processes(
            _replicate_paths, [(config, start, stop) for start, stop in zip(bounds, bounds[1:])])
    except Exception as exc:
        raise SimulationError(f"simulation replication failed: {exc}") from exc
    notes.update(processes=processes, reason=None)
    if failed:
        notes.update(processes=1, reason=f"pool failed: {failed}")
    elif processes < wanted:
        notes["reason"] = "CPU bound" if processes == min(wanted, _usable_cpus()) else "fork unsafe"
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


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

    Each run logs one debug event to the ``censtail`` logger, the dict in
    its record's ``run_simulation`` attribute: the replications, the
    workers asked for, the processes used and why they were fewer (see
    :func:`_collect_paths`), the seconds, and the undefined cells by cause:
    NaN ``efg`` cells as ``DegenerateP``, NaN ``worms`` cells as
    ``ZeroSurvivalAtThreshold`` (0 for a column not asked for).
    """
    started = time.perf_counter()
    notes = {"replications": config.replications, "workers": config.workers}
    paths = _collect_paths(config, notes)
    target = config.model.gamma1
    names = _columns(config.estimators, [kern.name for kern in config._kernel_objects()])
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
    notes["undefined"] = {
        cause: sum(config.replications - cell.defined_count for cell in cells.get(name, ()))
        for name, cause in (("efg", "DegenerateP"), ("worms", "ZeroSurvivalAtThreshold"))}
    runtime = notes["seconds"] = time.perf_counter() - started
    _log.debug("run_simulation: replications=%(replications)s workers=%(workers)s "
               "processes=%(processes)s reason=%(reason)s seconds=%(seconds).6f "
               "undefined=%(undefined)s",
               notes, extra={"run_simulation": notes})
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
        k_values=(k,),
        estimators=(),
        kernels=(kern,),
        master_seed=master_seed,
        workers=workers,
    )
    k = config.k_values[0]
    result = run_simulation(config)
    agg = result.cells[result.column_names[0]][0]
    if agg.defined_count < 2:
        raise SimulationError("fewer than two defined replications")
    population_var = agg.mse - agg.bias**2
    sample_var = population_var * agg.defined_count / (agg.defined_count - 1)
    spec = MomentSpec(gamma1=model.gamma1, p=model.p)
    return NormalityReport(
        kernel_name=kern.name,
        n=config.n,
        k=k,
        replications=config.replications,
        defined_count=agg.defined_count,
        gamma1=model.gamma1,
        p=model.p,
        empirical_mean=math.sqrt(k) * agg.bias,
        empirical_variance=k * sample_var,
        theoretical_variance=asymptotic_variance(kern, spec),
    )

