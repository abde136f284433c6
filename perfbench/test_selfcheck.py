"""Tiny-size self-check of the benchmark, so that it cannot rot.

Runs every workload at toy sizes with and without tracing, and requires
every metric BENCHMARK.json names, with its unit, and every output check
to pass.  The reference implementation is pinned to values stored in
``reference/toy_seed1.json``.
"""

import json
from pathlib import Path

import pytest

import oracle
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
STORED = json.loads((HERE / "reference" / "toy_seed1.json").read_text())


def toy_reference():
    """What the oracle computes for seed 1 at toy size, as stored JSON."""
    toy = run.SIZES["toy"]
    sim_k = tuple(range(toy["sim_k"][0], toy["sim_k"][1] + 1, toy["sim_k"][2]))
    csv_k = tuple(range(toy["csv_k"][0], toy["csv_k"][1] + 1, toy["csv_k"][2]))
    z, delta = oracle.order(*oracle.draw(1, 0, toy["csv_rows"], True))
    return {
        "simulation": oracle.simulation(1, toy["sim_n"], toy["sim_r"], sim_k,
                                        run.SIM_ESTIMATORS, run.KERNELS),
        "normality": oracle.normality(1, toy["norm_n"], toy["norm_k"], toy["norm_r"],
                                      "biweight"),
        # unrounded input: pins the estimators, not the CSV text
        "path": oracle.path(z, delta, csv_k, run.CSV_COLUMNS[:5], run.KERNELS),
    }


def _close(actual, expected):
    if isinstance(expected, dict):
        return actual.keys() == expected.keys() and all(
            _close(actual[k], expected[k]) for k in expected)
    if isinstance(expected, list):
        return len(actual) == len(expected) and all(map(_close, actual, expected))
    if isinstance(expected, float):
        return actual is not None and abs(actual - expected) <= run.TOL
    return actual == expected


def test_oracle_matches_stored_reference():
    assert _close(json.loads(json.dumps(toy_reference())), STORED)


@pytest.fixture(scope="module")
def censtail_loaded():
    run.load_censtail()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric_and_passes_checks(censtail_loaded, monkeypatch,
                                                       workload, trace):
    monkeypatch.delenv(run.WORKERS_ENV_VAR, raising=False)
    result, details = run.execute(workload, seed=1, seconds=0, trace=trace, size="toy")
    assert details["failed_checks"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
