import json
import math

import numpy as np
import pytest

from censtail import (
    BIWEIGHT,
    Burr,
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
    run_simulation,
    sample_censored,
    sort_with_concomitants,
)
from censtail.errors import ConfigError, TooFewPoints
from censtail.simulate import _collect_paths

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

    def test_bad_schema(self):
        doc = small_config().to_json_dict()
        doc["schema"] = "something-else/9"
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_json_dict(doc)
        assert err.value.field == "schema"


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
        """The simulator runs the engine on the unsorted sample; every
        replication equals the documented sort-then-estimate pipeline."""
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
        import censtail.simulate as simulate

        sizes = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor; runs chunks in-process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        result = run_simulation(small_config(workers=10_000))
        assert sizes == [3]
        serial = run_simulation(small_config(workers=1))
        assert result.to_table().rows == serial.to_table().rows
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
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

    def test_unverified_kernel_is_config_error(self):
        raw = Kernel("raw", k=np.ones_like, g_prime=np.ones_like, g_second=np.zeros_like)
        with pytest.raises(ConfigError) as err:
            normality_check(ModelSpec(loss=Pareto(0.5)), 200, 10, 5, raw)
        assert err.value.field == "kernels"
