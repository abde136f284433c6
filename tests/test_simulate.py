import concurrent.futures
import json
import logging
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from censtail import (
    BIWEIGHT,
    Burr,
    CensoredSample,
    Frechet,
    Kernel,
    ModelSpec,
    Pareto,
    RngStream,
    SimulationConfig,
    curve_smoothness,
    custom_kernel,
    estimate_path,
    normality_check,
    render_csv,
    run_simulation,
    sample_censored,
    sort_with_concomitants,
    top_order_statistics,
)
from censtail import models, samples, simulate
from censtail.errors import ConfigError, InvalidK, SimulationError, TooFewPoints
from censtail.estimators import _tail_path
from censtail.simulate import _collect_paths, _replicate_paths
from conftest import run_python
from reference_impl import whole_sample

CENSORED_MODEL = ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(3.6))

# biweight's formulas without its polynomial coefficients: evaluated per k
BIWEIGHT_FORMULAS = dict(
    k=lambda s: 1.875 * (1.0 - s**2) ** 2,
    g_prime=lambda s: 1.875 * (1.0 - s**2) * (1.0 - 5.0 * s**2),
    g_second=lambda s: 1.875 * (20.0 * s**3 - 12.0 * s),
)
CUSTOM_BIWEIGHT = custom_kernel("custom_biweight", **BIWEIGHT_FORMULAS)


def small_config(**overrides):
    base = dict(
        model=CENSORED_MODEL,
        n=120,
        replications=12,
        k_values=(5, 10, 20, 40),
        estimators=("hill", "efg", "worms", "mns"),
        kernels=("biweight",),
        master_seed=99,
        workers=1,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfig:
    def test_validation_reports_field(self):
        with pytest.raises(ConfigError) as err:
            small_config(replications=0)
        assert err.value.field == "replications"
        with pytest.raises(ConfigError) as err:
            small_config(k_values=(10, 5))
        assert err.value.field == "k_values"
        with pytest.raises(ConfigError) as err:
            small_config(k_values=(5, 120))
        assert err.value.field == "k_values"
        with pytest.raises(ConfigError) as err:
            small_config(estimators=("hill", "nope"))
        assert err.value.field == "estimators"
        with pytest.raises(ConfigError) as err:
            small_config(kernels=("gaussian",))
        assert err.value.field == "kernels"
        with pytest.raises(ConfigError) as err:
            small_config(workers=0)
        assert err.value.field == "workers"

    @pytest.mark.parametrize("field, value", [
        ("k_values", (5.7, 10)), ("k_values", (True, 10)), ("master_seed", 1.5),
        ("n", 50.5), ("replications", True), ("workers", 2.0),
    ])
    def test_non_integer_is_config_error(self, field, value):
        with pytest.raises(ConfigError) as err:
            small_config(**{field: value})
        assert err.value.field == field

    def test_a_grid_past_n_is_refused_before_it_is_built(self):
        # the whole grid was built first: 48.6 MB and 2 s for this one
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                SimulationConfig(model=ModelSpec(loss=Pareto(1.0)), n=100, replications=1,
                                 k_values=range(1, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.field == "k_values"
        assert peak < 10**6, peak

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 40), ascending=st.booleans(),
           ks=st.lists(st.integers(-1, 24), min_size=1, max_size=6),
           kind=st.sampled_from([int, np.int64, np.int32]),
           odd=st.none() | st.tuples(st.integers(0, 6), st.booleans() | st.floats(-1, 24)))
    def test_estimate_path_and_config_share_the_grid_rule(self, n, ascending, ks, kind, odd):
        # ints or numpy ints, ascending or not, inside or past [1, n - 1], and
        # now and then a bool or a float among them
        grid = [kind(k) for k in (sorted(set(ks)) if ascending else ks)]
        if odd is not None:
            grid.insert(*odd)
        sample = CensoredSample(np.arange(1.0, n + 1.0), np.ones(n, dtype=int))
        try:
            path = estimate_path(sample, grid, ("hill",))
        except InvalidK:
            path = None
        try:
            config = SimulationConfig(model=ModelSpec(loss=Pareto(1.0)), n=n,
                                      replications=1, k_values=grid)
        except ConfigError as exc:
            assert exc.field == "k_values"
            config = None
        assert (path is None) == (config is None), (path, config)
        if path is not None:
            assert path.k_values == config.k_values
            assert all(type(k) is int for k in config.k_values)

    @pytest.mark.parametrize("field, value", [
        ("model", Burr(0.4, 0.25)), ("n", 1), ("k_values", ()),
    ], ids=["model-not-a-modelspec", "n-below-2", "empty-k-values"])
    def test_invalid_field_is_config_error(self, field, value):
        with pytest.raises(ConfigError) as err:
            small_config(**{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("field, value", [("workers", True), ("master_seed", False)])
    def test_json_boolean_is_config_error(self, field, value):
        doc = small_config().to_json_dict()
        doc[field] = value
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_json_dict(doc)
        assert err.value.field == field

    def test_numpy_integers_are_stored_as_python_ints(self):
        config = small_config(n=np.int64(50), replications=np.int32(3),
                              k_values=(np.int64(5), 10), master_seed=np.uint64(3),
                              workers=np.int8(1))
        for value in (config.n, config.replications, *config.k_values,
                      config.master_seed, config.workers):
            assert type(value) is int
        doc = json.loads(json.dumps(config.to_json_dict()))
        assert SimulationConfig.from_json_dict(doc) == config

    def test_json_round_trip(self):
        config = small_config()
        doc = config.to_json_dict()
        again = SimulationConfig.from_json_dict(json.loads(json.dumps(doc)))
        assert again == config

    def test_json_round_trip_complete_model(self):
        config = small_config(model=ModelSpec(loss=Pareto(1.0)), kernels=())
        again = SimulationConfig.from_json_dict(config.to_json_dict())
        assert again == config

    def test_json_round_trip_pareto_without_censoring(self):
        config = small_config(model=ModelSpec(loss=Pareto(0.7)))
        doc = config.to_json_dict()
        assert doc["model"] == {"loss": {"family": "pareto", "gamma1": 0.7}, "censor": None}
        assert SimulationConfig.from_json_dict(json.loads(json.dumps(doc))) == config

    @pytest.mark.parametrize("part, value, message, field", [
        ("loss", {"family": "weibull", "gamma1": 0.4},
         "unknown loss family 'weibull'", "model.loss.family"),
        ("loss", {"family": "frechet", "gamma2": 0.4},
         "unknown loss family 'frechet'", "model.loss.family"),
        ("censor", {"family": "burr", "gamma1": 0.4, "eta": 0.25},
         "unknown censor family 'burr'", "model.censor.family"),
        ("censor", {}, "missing field 'model.censor.family'", "model.censor.family"),
        ("censor", [1], "censor must be an object or null", "model.censor"),
        ("loss", {"family": "burr", "gamma1": 0.4},
         "missing field 'model.loss.eta'", "model.loss.eta"),
        ("censor", {"family": "frechet"},
         "missing field 'model.censor.gamma2'", "model.censor.gamma2"),
        ("loss", {"family": "pareto", "gamma1": "0.4"},
         "field 'model.loss.gamma1' has the wrong type", "model.loss.gamma1"),
        ("loss", {"family": "pareto", "gamma1": True},
         "field 'model.loss.gamma1' has the wrong type", "model.loss.gamma1"),
    ], ids=["unknown-loss", "frechet-loss", "burr-censor", "empty-censor", "list-censor",
            "missing-eta", "missing-gamma2", "string-gamma1", "bool-gamma1"])
    def test_malformed_model_reports_message_and_field(self, part, value, message, field):
        doc = small_config().to_json_dict()
        doc["model"][part] = value
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_json_dict(doc)
        assert str(err.value) == message
        assert err.value.field == field

    def test_repeated_column_is_config_error(self):
        named_biweight = custom_kernel("biweight", **BIWEIGHT_FORMULAS)
        for overrides, field in (({"estimators": ("mns", "hill", "mns")}, "estimators"),
                                 ({"kernels": ("biweight", "k2")}, "kernels"),
                                 ({"kernels": ("biweight", named_biweight)}, "kernels")):
            with pytest.raises(ConfigError) as err:
                small_config(**overrides)
            assert err.value.field == field

    def test_k_grid_expansion(self):
        doc = small_config().to_json_dict()
        del doc["k_values"]
        doc["k_grid"] = {"min": 10, "max": 50, "step": 10}
        config = SimulationConfig.from_json_dict(doc)
        assert config.k_values == (10, 20, 30, 40, 50)

    def test_missing_field_path(self):
        doc = small_config().to_json_dict()
        del doc["model"]["loss"]["gamma1"]
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_json_dict(doc)
        assert err.value.field == "model.loss.gamma1"

    def test_document_that_is_not_an_object(self):
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_json_dict([small_config().to_json_dict()])
        assert err.value.field == ""

    def test_document_without_k_values_or_k_grid(self):
        doc = small_config().to_json_dict()
        del doc["k_values"]
        with pytest.raises(ConfigError, match="k_values or k_grid") as err:
            SimulationConfig.from_json_dict(doc)
        assert err.value.field == "k_values"

    def test_bad_schema(self):
        doc = small_config().to_json_dict()
        doc["schema"] = "something-else/9"
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_json_dict(doc)
        assert err.value.field == "schema"

    @pytest.mark.parametrize("field", ["k_values", "estimators", "kernels"])
    @pytest.mark.parametrize("value", [None, 5, "mns", {"mns": 1}])
    def test_list_field_that_is_not_a_list_is_config_error(self, field, value):
        # None and 5 raised a TypeError, and a string was read letter by letter
        with pytest.raises(ConfigError) as err:
            small_config(**{field: value})
        assert err.value.field == field
        doc = small_config().to_json_dict()
        doc[field] = value
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_json_dict(doc)
        assert err.value.field == field

    def test_column_errors_are_value_errors_with_the_field(self):
        with pytest.raises(ValueError, match="unknown estimator 'nope'") as err:
            small_config(estimators=("hill", "nope"))
        assert err.value.field == "estimators"
        with pytest.raises(ValueError, match="'kernel_biweight' is requested twice") as err:
            small_config(kernels=("biweight", "k2"))
        assert err.value.field == "kernels"

    @pytest.mark.parametrize("grid, field", [
        ({"min": 1, "max": 10, "step": True}, "k_grid.step"),
        ({"min": 1, "max": 10, "step": 2.0}, "k_grid.step"),
        ({"min": 1, "max": 10**15}, "k_grid.max"),
        ({"min": -10**15, "max": 10}, "k_grid.min"),
        ({"min": 0, "max": 10}, "k_grid.min"),
        ({"min": 10, "max": 120}, "k_grid.max"),
        ({"min": 1, "max": 10, "step": 0}, "k_grid.step"),
        ({"min": 10, "max": 5}, "k_grid.max"),
    ], ids=["bool-step", "float-step", "huge-max", "huge-negative-min", "zero-min",
            "max-at-n", "zero-step", "max-below-min"])
    def test_bad_k_grid_is_rejected_before_expansion(self, grid, field):
        # a bool step ran as step 1, and a huge bound expanded into a MemoryError
        doc = small_config().to_json_dict()
        del doc["k_values"]
        doc["k_grid"] = grid
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_json_dict(doc)
        assert err.value.field == field

    def test_integer_too_large_for_a_float_is_config_error(self):
        doc = small_config().to_json_dict()
        doc["model"]["loss"]["gamma1"] = 10**400
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_json_dict(doc)
        assert err.value.field == "model.loss.gamma1"


class TestRunSimulation:
    def test_single_replication_equals_path(self):
        config = small_config(replications=1)
        result = run_simulation(config)
        sample = sort_with_concomitants(
            sample_censored(config.model, config.n, RngStream(config.master_seed, 1))
        )
        from censtail import builtin_kernel

        path = estimate_path(
            sample,
            config.k_values,
            estimators=config.estimators,
            kernels=tuple(builtin_kernel(k) for k in config.kernels),
        )
        gamma1 = config.model.gamma1
        for name in result.column_names:
            for j, k in enumerate(config.k_values):
                agg = result.cells[name][j]
                value = path.column(name)[j]
                if value is None:
                    assert agg.defined_count == 0
                    assert agg.mean is None
                else:
                    assert agg.defined_count == 1
                    assert agg.mean == pytest.approx(value, abs=1e-15)
                    assert agg.mse == pytest.approx((value - gamma1) ** 2, abs=1e-12)

    @pytest.mark.parametrize("kernels", [("biweight", "triweight"), (CUSTOM_BIWEIGHT,)],
                             ids=["builtin", "custom"])
    def test_replicates_equal_sorted_sample_paths(self, kernels):
        """The simulator runs the engine on each replication's sorted top;
        every replication equals the documented sort-then-estimate pipeline."""
        model = ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(0.8))
        config = small_config(model=model, replications=15, k_values=(1, 3, 20, 60, 119),
                              estimators=("hill", "p_hat", "efg", "worms", "mns"),
                              kernels=kernels)
        paths = _collect_paths(config)
        names = run_simulation(config).column_names
        kerns = config._kernel_objects()
        for r in range(1, config.replications + 1):
            sample = sort_with_concomitants(
                sample_censored(config.model, config.n, RngStream(config.master_seed, r))
            )
            path = estimate_path(sample, config.k_values, config.estimators, kerns)
            for name, per_k in zip(names, paths[r - 1]):
                got = tuple(None if math.isnan(v) else v for v in per_k.tolist())
                assert got == path.column(name), (r, name)

    @pytest.mark.parametrize("block", [1000, 1 << 16], ids=["blocks", "one-block"])
    @pytest.mark.parametrize("model", [CENSORED_MODEL, ModelSpec(loss=Pareto(1.0))],
                             ids=["censored", "complete"])
    def test_replicates_equal_the_engine_on_the_whole_sorted_top(self, monkeypatch, model,
                                                                 block):
        """Replication by replication, the simulator's estimates are the
        engine's on the sorted top of the whole-n reference sample, bit for
        bit; at n = 3000 and k_max = 52 complete data takes the raw-word
        path above its cut."""
        monkeypatch.setattr(models, "_BLOCK_ROWS", block)
        config = small_config(model=model, n=3000, replications=8, k_values=(1, 10, 52),
                              estimators=("hill", "p_hat", "efg", "worms", "mns"))
        kerns = config._kernel_objects()
        want = [_tail_path(sort_with_concomitants(top_order_statistics(
                    whole_sample(model, config.n, RngStream(config.master_seed, r)), 53)),
                    config.k_values, config.estimators, kerns)
                for r in range(1, config.replications + 1)]
        got = _replicate_paths(config, 1, config.replications + 1)
        assert got.tobytes() == np.stack(want).tobytes()

    def test_never_sorts_more_than_the_top_view(self, monkeypatch):
        lengths = []
        lexsort = np.lexsort

        def recording_lexsort(keys, *args, **kwargs):
            lengths.append(len(keys[0]))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", recording_lexsort)
        run_simulation(small_config(n=2000, replications=5, k_values=(2, 10)))
        assert len(lengths) == 5
        assert max(lengths) <= 11  # k_max + 1 order statistics, no ties

    def test_repeat_run_identical(self):
        config = small_config()
        a = run_simulation(config)
        b = run_simulation(config)
        assert a.to_table().rows == b.to_table().rows

    def test_worker_count_does_not_change_results(self):
        serial = run_simulation(small_config(workers=1))
        parallel = run_simulation(small_config(workers=2))
        assert serial.to_table().rows == parallel.to_table().rows

    def test_pool_size_is_bounded(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor; runs jobs in-process and
            records the processes, this one included."""

            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers + 1)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # three CPUs this process may use, on a host of 64
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        result = run_simulation(small_config(workers=10_000))
        assert sizes == [3]
        serial = run_simulation(small_config(workers=1))
        assert result.to_table().rows == serial.to_table().rows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        run_simulation(small_config(workers=10_000))
        assert sizes == [3]  # unknown CPU count: one worker, in-process

    def test_streamed_aggregates_match_replicates(self):
        heavy = SimulationConfig(  # p = 0.6: some all-censored tops at k = 1, 2
            model=ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(0.6)), n=60,
            replications=40, k_values=(1, 2), estimators=("efg", "mns"), kernels=(),
            master_seed=17,
        )
        undefined = 0
        for config in (small_config(replications=30), heavy):
            result = run_simulation(config)
            paths = _collect_paths(config)
            gamma1 = config.model.gamma1
            for c, name in enumerate(result.column_names):
                for j in range(len(config.k_values)):
                    values = [v for v in paths[:, c, j].tolist() if not math.isnan(v)]
                    agg = result.cells[name][j]
                    assert agg.defined_count == len(values)
                    undefined += config.replications - len(values)
                    if not values:
                        assert agg.mean is agg.bias is agg.mse is None
                        continue
                    mean = math.fsum(values) / len(values)
                    mse = math.fsum((v - gamma1) ** 2 for v in values) / len(values)
                    assert abs(agg.mean - mean) <= 1e-12
                    assert abs(agg.bias - (mean - gamma1)) <= 1e-12
                    assert abs(agg.mse - mse) <= 1e-12
        assert undefined > 0  # the undefined efg cells actually occurred

    def test_defined_plus_undefined_counts(self):
        # heavy censoring at k=1 leaves some replications with all-censored tops
        model = ModelSpec(loss=Burr(0.4, 0.25),
                          censor=Frechet(0.6))  # p = 0.6
        config = SimulationConfig(
            model=model, n=60, replications=40, k_values=(1, 2),
            estimators=("efg",), kernels=(), master_seed=17,
        )
        result = run_simulation(config)
        column = _collect_paths(config)[:, 0, 0]  # efg at k = 1
        undefined = sum(1 for v in column.tolist() if math.isnan(v))
        assert undefined > 0  # the degenerate case actually occurred
        assert result.cells["efg"][0].defined_count + undefined == 40

    def test_mse_dominates_squared_bias(self):
        result = run_simulation(small_config(replications=25))
        for name in result.column_names:
            for agg in result.cells[name]:
                if agg.mse is not None:
                    assert agg.mse >= agg.bias**2 - 1e-12

    def test_result_serialization(self):
        result = run_simulation(small_config(replications=3))
        table = result.to_table()
        assert table.columns == (
            "estimator", "k", "mean", "bias", "mse", "defined_count",
        )
        doc = result.to_json_dict()
        assert doc["schema"] == "censtail-sim-result/1"
        assert doc["config"]["n"] == 120
        assert len(doc["results"]) == len(table.rows)


# processes start by fork where no start method is set: on Linux wherever
# it is offered, elsewhere where it is the default
FORK_DEFAULT = (sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods()
                or multiprocessing.get_all_start_methods()[0] == "fork")
needs_fork = pytest.mark.skipif(not FORK_DEFAULT, reason="workers start only by fork")


def _rows(config):
    return run_simulation(config).to_table().rows


def _send_rows(config, conn):
    """Send the rows of ``config``'s run, or the error it raised."""
    try:
        conn.send(_rows(config))
    except Exception as exc:
        conn.send(repr(exc))
    conn.close()


def _events(caplog):
    return [record.run_simulation for record in caplog.records
            if hasattr(record, "run_simulation")]


def _run_probe(script):
    """Run ``script`` in a fresh interpreter that imports this tree's
    censtail; its stdout, split at whitespace."""
    result = run_python(["-c", script])
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def w1_config(workers):
    """The desk-scale study of the benchmark's ``sim_desk`` workload."""
    return SimulationConfig(model=CENSORED_MODEL, n=1000, replications=200,
                            k_values=tuple(range(20, 501, 10)),
                            estimators=("efg", "worms", "mns"),
                            kernels=("biweight", "triweight"), master_seed=11,
                            workers=workers)


_POOL_IMPORT_PROBE = """
import sys
import censtail
from censtail import ModelSpec, Pareto, normality_check
normality_check(ModelSpec(Pareto(1.0)), 2000, 20, 50, "biweight", workers=1)
print("loaded:", *sorted(name for name in sys.modules
                         if name.startswith(("multiprocessing", "concurrent"))))
"""

_SPAWN_PROBE = """
import logging, multiprocessing
multiprocessing.set_start_method("spawn")
from censtail import Burr, Frechet, ModelSpec, SimulationConfig, run_simulation, samples

events, started = [], []
class Keep(logging.Handler):
    def emit(self, record):
        events.append(record.run_simulation)
logger = logging.getLogger("censtail")
logger.setLevel(logging.DEBUG)
logger.addHandler(Keep())
samples._usable_cpus = lambda: 2
start = multiprocessing.process.BaseProcess.start
multiprocessing.process.BaseProcess.start = lambda process: started.append(process) or start(process)
rows = [run_simulation(SimulationConfig(
    model=ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(3.6)), n=120, replications=12,
    k_values=(5, 10, 20, 40), estimators=("efg", "worms"), kernels=("biweight",),
    master_seed=99, workers=workers)).to_table().rows for workers in (2, 1)]
print(rows[0] == rows[1], events[0]["processes"], events[0]["reason"].replace(" ", "-"),
      len(started), len(multiprocessing.active_children()))
"""


class TestProcesses:
    """The replications in other processes, by the one rule of
    samples._processes, through samples._in_processes."""

    @needs_fork
    def test_a_daemon_runs_every_replication_itself(self, monkeypatch):
        monkeypatch.setattr(samples, "_usable_cpus", lambda: 2)
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        daemon = context.Process(target=_send_rows, args=(small_config(workers=2), send),
                                 daemon=True)
        daemon.start()
        send.close()
        try:
            assert receive.poll(120)
            got = receive.recv()
        finally:
            daemon.join(120)
        assert daemon.exitcode == 0
        assert got == _rows(small_config(workers=1))

    def test_a_second_thread_starts_no_process(self, monkeypatch):
        started = []
        start = multiprocessing.process.BaseProcess.start

        def recording_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording_start)
        monkeypatch.setattr(samples, "_usable_cpus", lambda: 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            rows = _rows(small_config(workers=2))
        finally:
            stop.set()
            thread.join()
        assert started == []
        assert rows == _rows(small_config(workers=1))

    @needs_fork
    def test_no_worker_outlives_a_run(self, monkeypatch, caplog):
        monkeypatch.setattr(samples, "_usable_cpus", lambda: 2)
        caplog.set_level(logging.DEBUG, logger="censtail")
        config = small_config(workers=2)
        assert _rows(config) == _rows(small_config(workers=1))
        assert _events(caplog)[0]["processes"] == 2
        assert multiprocessing.active_children() == []

        def failing(*args, **kwargs):
            raise ValueError("no path")

        monkeypatch.setattr(simulate, "_tail_path", failing)
        with pytest.raises(SimulationError, match="replication failed: no path"):
            run_simulation(config)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_uneven_chunks_on_three_processes(self, monkeypatch):
        monkeypatch.setattr(samples, "_usable_cpus", lambda: 3)
        chunks = []
        in_processes = simulate._in_processes

        def recording(fn, jobs):
            chunks.append([job[1:] for job in jobs])
            return in_processes(fn, jobs)

        monkeypatch.setattr(simulate, "_in_processes", recording)
        config = small_config(replications=5, workers=3)
        assert _rows(config) == _rows(small_config(replications=5, workers=1))
        assert chunks[0] == [(1, 2), (2, 4), (4, 6)]

    @needs_fork
    @pytest.mark.parametrize("failure", ["start", "submit", "result"])
    def test_a_pool_that_fails_gives_the_serial_result(self, monkeypatch, caplog, failure):
        class FailingPool:
            def __init__(self, *args, **kwargs):
                if failure == "start":
                    raise OSError("no processes")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                if failure == "submit":
                    raise BrokenProcessPool("a worker died")
                return self

            def result(self):
                raise BrokenProcessPool("a worker died")

        serial = _rows(small_config(workers=1))
        monkeypatch.setattr(samples, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FailingPool)
        caplog.set_level(logging.DEBUG, logger="censtail")
        assert _rows(small_config(workers=2)) == serial
        event = _events(caplog)[-1]
        assert event["processes"] == 1 and event["reason"].startswith("pool failed: ")

    def test_a_one_process_run_never_loads_the_pool(self):
        assert _run_probe(_POOL_IMPORT_PROBE) == ["loaded:"]

    @pytest.mark.skipif(sys.platform != "linux"
                        or "fork" not in multiprocessing.get_all_start_methods(),
                        reason="Linux with fork offered")
    def test_linux_forks_where_another_method_is_the_default(self, monkeypatch, caplog):
        """No start method set and ``forkserver`` listed first, as from
        Python 3.14: W1 on 2 workers still forks, and gives the serial CSV
        bytes."""
        serial = render_csv(run_simulation(w1_config(1)).to_table())
        monkeypatch.setattr(samples, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: None)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["forkserver", "spawn", "fork"])
        caplog.set_level(logging.DEBUG, logger="censtail")
        assert render_csv(run_simulation(w1_config(2)).to_table()) == serial
        assert (_events(caplog)[-1]["processes"], _events(caplog)[-1]["reason"]) == (2, None)
        assert multiprocessing.active_children() == []

    def test_a_start_method_set_to_spawn_runs_in_the_caller(self):
        assert _run_probe(_SPAWN_PROBE) == ["True", "1", "fork-unsafe", "0", "0"]
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_each_run_logs_one_debug_event(self, monkeypatch, caplog, capsys):
        monkeypatch.setattr(samples, "_usable_cpus", lambda: 2)
        caplog.set_level(logging.DEBUG, logger="censtail")
        _rows(small_config(workers=1))
        _rows(small_config(workers=10))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            _rows(small_config(workers=2))
        finally:
            stop.set()
            thread.join()
        # tail indices near 0 make values tie within a few ulps of 1, so
        # some top-k are all censored and some tie at an uncensored maximum
        tied = small_config(model=ModelSpec(loss=Pareto(1e-16), censor=Frechet(1e-16)),
                            k_values=(1, 2, 5, 10))
        _rows(tied)
        records = [record for record in caplog.records if hasattr(record, "run_simulation")]
        assert [(record.name, record.levelno) for record in records] == [
            ("censtail", logging.DEBUG)] * 4
        serial, bound, threaded, ties = (record.run_simulation for record in records)
        efg_cells, worms_cells = _collect_paths(tied)[:, 1:3].swapaxes(0, 1)
        assert ties["undefined"] == {"DegenerateP": np.isnan(efg_cells).sum(),
                                     "ZeroSurvivalAtThreshold": np.isnan(worms_cells).sum()}
        assert min(ties["undefined"].values()) > 0
        assert "undefined={'DegenerateP': " in records[3].getMessage()
        assert {key: serial[key] for key in ("replications", "workers", "processes", "reason")} \
            == {"replications": 12, "workers": 1, "processes": 1, "reason": None}
        assert (bound["workers"], bound["processes"], bound["reason"]) == (10, 2, "CPU bound")
        assert (threaded["processes"], threaded["reason"]) == (1, "fork unsafe")
        assert all(record.run_simulation["seconds"] >= 0 for record in records)
        assert "processes=2 reason=CPU bound" in records[1].getMessage()
        assert capsys.readouterr() == ("", "")


class TestCurveSmoothness:
    def test_constant_curve(self):
        assert curve_smoothness([0.4, 0.4, 0.4]) == 0.0

    def test_zigzag(self):
        assert curve_smoothness([0.0, 1.0, 0.0]) == 2.0

    def test_skips_undefined(self):
        assert curve_smoothness([1.0, None, 2.0]) == 1.0

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            curve_smoothness([1.0])
        with pytest.raises(TooFewPoints):
            curve_smoothness([1.0, None])


class TestNormalityCheck:
    def test_report_fields_and_rough_agreement(self):
        # small-scale run; the acceptance suite runs the calibrated version
        model = ModelSpec(loss=Pareto(1.0))
        n = 4000
        k = int(n**0.4)
        report = normality_check(model, n, k, replications=300,
                                 kernel="indicator", master_seed=5)
        assert report.defined_count == 300
        assert report.p == 1.0
        assert report.theoretical_variance == pytest.approx(1.0, abs=1e-10)
        # the indicator kernel carries a slowly decaying positive mean at
        # this scale; only rough centering is asserted here
        assert abs(report.empirical_mean) < 0.8
        assert 0.4 < report.variance_ratio < 2.5

    def test_deterministic(self):
        model = ModelSpec(loss=Pareto(0.5))
        a = normality_check(model, 500, 12, 50, "biweight", master_seed=2)
        b = normality_check(model, 500, 12, 50, "biweight", master_seed=2)
        assert a == b

    def test_custom_kernel_matches_builtin(self):
        custom = CUSTOM_BIWEIGHT
        model = ModelSpec(loss=Burr(0.5, 1.0), censor=Frechet(4.0))
        got = normality_check(model, 800, 60, 40, custom, master_seed=4)
        want = normality_check(model, 800, 60, 40, "biweight", master_seed=4)
        assert got.kernel_name == "custom_biweight"
        assert (got.n, got.k, got.replications, got.defined_count) == (
            want.n, want.k, want.replications, want.defined_count)
        for field in ("gamma1", "p", "empirical_mean", "empirical_variance",
                      "theoretical_variance"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field

    def test_builtin_kernel_object_is_stored_by_name(self):
        config = small_config(kernels=(BIWEIGHT, "k3"))
        assert config.kernels == ("biweight", "triweight")

    @pytest.mark.parametrize("k", [10.5, True, "10"])
    def test_non_integer_k_is_config_error(self, k):
        # k was truncated to 10 while the variance was scaled by the raw k
        with pytest.raises(ConfigError) as err:
            normality_check(ModelSpec(loss=Pareto(1.0)), 300, k, 30, "biweight",
                            master_seed=1)
        assert err.value.field == "k_values"

    def test_numpy_k_reports_the_python_int_run(self):
        model = ModelSpec(loss=Pareto(1.0))
        got = normality_check(model, np.int64(300), np.int64(10), 30, "biweight",
                              master_seed=1)
        want = normality_check(model, 300, 10, 30, "biweight", master_seed=1)
        assert got == want
        assert type(got.n) is int and type(got.k) is int

    def test_fewer_than_two_defined_replications(self):
        with pytest.raises(SimulationError, match="fewer than two"):
            normality_check(ModelSpec(loss=Pareto(1.0)), 100, 5, 1, "biweight")

    def test_unverified_kernel_is_config_error(self):
        raw = Kernel("raw", k=np.ones_like, g_prime=np.ones_like, g_second=np.zeros_like)
        with pytest.raises(ConfigError) as err:
            normality_check(ModelSpec(loss=Pareto(0.5)), 200, 10, 5, raw)
        assert err.value.field == "kernels"
