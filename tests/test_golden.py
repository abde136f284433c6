"""Byte-identity gate: outputs that must keep every bit from one change to
the next.

``golden.json`` holds the sha256 of each output of :func:`outputs`: the
``censtail simulate`` CSV and JSON (without ``runtime_seconds``) of a
censored and a complete study on 1, 2 and 3 workers, the ``censtail
estimate`` CSV of a file read in parts in LF, CRLF and quoted form, a
``NormalityReport``, ``_top_sample`` and ``sample_censored`` at a
multi-block n, both survival curves of a tie-heavy sample and the tail
engine's rows on it.  The digests hold only where they were made, so the
file records the numpy version, the Python version and the machine.  There
:func:`test_outputs_are_the_recorded_bytes` compares every digest; anywhere
else it is skipped with both environments in its reason.  The
``test_reference_*`` tests hold the same outputs to the oracles of
``reference_impl`` at the tolerances of the other tests, in every
environment.

A change that moves an output on purpose regenerates the file::

    PYTHONPATH=src python tests/test_golden.py --write

and says which outputs moved, why, and by how many ulps at most.
"""

import csv
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from censtail import (
    BIWEIGHT,
    ESTIMATOR_NAMES,
    TRIWEIGHT,
    Burr,
    CensoredSample,
    Frechet,
    ModelSpec,
    NormalityReport,
    Pareto,
    RngStream,
    SimulationConfig,
    custom_kernel,
    kaplan_meier_curve,
    nelson_aalen_curve,
    normality_check,
    sample_censored,
    samples,
    sort_with_concomitants,
    top_order_statistics,
)
from censtail.cli import WORKERS_ENV_VAR, main
from censtail.errors import DegenerateP, ZeroSurvivalAtThreshold
from censtail.estimators import _tail_path
from censtail.models import _top_sample
from reference_impl import _TailArrays, reference_km_curve, reference_na_curve, whole_sample

GOLDEN = Path(__file__).with_name("golden.json")

TOL = 1e-12  # the engine against the oracle, as in test_tail_engine.py

STUDIES = {
    "censored": {"model": {"loss": {"family": "burr", "gamma1": 0.4, "eta": 0.25},
                           "censor": {"family": "frechet", "gamma2": 0.6}},
                 "n": 400, "replications": 24, "k_values": list(range(5, 400, 5)),
                 "estimators": list(ESTIMATOR_NAMES), "master_seed": 7},
    "complete": {"model": {"loss": {"family": "pareto", "gamma1": 0.5}},
                 "n": 3000, "replications": 20, "k_values": list(range(10, 1001, 10)),
                 "estimators": list(ESTIMATOR_NAMES), "master_seed": 8},
}
WORKERS = (1, 2, 3)
FORMS = {"lf": "\n", "crlf": "\r\n", "quoted": "\n"}
ESTIMATE = ("--k-min", "10", "--k-max", "4000", "--k-step", "10", "--estimators",
            ",".join(ESTIMATOR_NAMES), "--kernels", "biweight,triweight")
MODELS = {"censored": ModelSpec(Burr(0.5, 2.0), Frechet(0.75)),
          "complete": ModelSpec(Pareto(0.5))}
TOP_N, TOP_M = 150_000, 101  # three blocks of samples._BLOCK_ROWS
NORMALITY = dict(model=ModelSpec(Pareto(1.0)), n=2000, k=30, replications=60,
                 kernel="biweight", master_seed=3)

# biweight's formulas without its polynomial coefficients: evaluated per k
CUSTOM_BIWEIGHT = custom_kernel(
    "custom_biweight",
    k=lambda s: 1.875 * (1.0 - s**2) ** 2,
    g_prime=lambda s: 1.875 * (1.0 - s**2) * (1.0 - 5.0 * s**2),
    g_second=lambda s: 1.875 * (20.0 * s**3 - 12.0 * s),
)
BUILTINS = (BIWEIGHT, TRIWEIGHT)  # the default kernels of simulate and estimate
BUILTIN_COLUMNS = tuple("kernel_" + kern.name for kern in BUILTINS)
ENGINE_KERNELS = (*BUILTINS, CUSTOM_BIWEIGHT)
ENGINE_KS = list(range(1, 2000, 7))


def _environment():
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": f"{platform.system()} {platform.machine()}"}


def _estimate_data():
    """The rows of the estimate file: tie-heavy values, 30% censored."""
    rng = np.random.default_rng(12)
    z = np.round(rng.pareto(1.0, 40_000) + 1.0, 3)
    return z, (rng.random(z.size) >= 0.3).astype(np.int8)


def _tie_heavy_sample():
    """An unsorted sample of 3000 rows at one decimal, 40% censored."""
    rng = np.random.default_rng(31)
    z = np.round(rng.pareto(1.5, 3000) + 1.0, 1)
    return CensoredSample(z, (rng.random(z.size) >= 0.4).astype(np.int8))


def _write_estimate_files(folder):
    z, delta = _estimate_data()
    lines = ["value,delta", *(f"{v!r},{d}" for v, d in zip(z.tolist(), delta.tolist()))]
    for form, end in FORMS.items():
        if form == "quoted":
            lines = [",".join(f'"{field}"' for field in line.split(",")) for line in lines]
        (folder / f"{form}.csv").write_bytes("".join(line + end for line in lines).encode())


def _simulate(folder, label, workers):
    """The CSV and the JSON, less ``runtime_seconds``, of ``censtail
    simulate`` on study ``label`` with ``workers``."""
    config, out = folder / f"{label}_{workers}.json", folder / f"{label}_{workers}.csv"
    config.write_text(json.dumps({**STUDIES[label], "workers": workers}))
    assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    del doc["runtime_seconds"]
    return out.read_bytes(), json.dumps(doc, sort_keys=True).encode()


def outputs(folder):
    """Every gated output as bytes, keyed by name; files go in ``folder``."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(WORKERS_ENV_VAR, raising=False)
        mp.setattr(samples, "_PART_BYTES", 1 << 16)  # the estimate file is read in parts
        for label in STUDIES:
            for workers in WORKERS:
                csv_bytes, json_bytes = _simulate(folder, label, workers)
                out[f"simulate {label} workers={workers} csv"] = csv_bytes
                out[f"simulate {label} workers={workers} json"] = json_bytes
        _write_estimate_files(folder)
        for form in FORMS:
            written = folder / f"{form}_path.csv"
            assert main(["estimate", "--input", str(folder / f"{form}.csv"),
                         "--output", str(written), *ESTIMATE]) == 0
            out[f"estimate {form} csv"] = written.read_bytes()
    report = normality_check(**NORMALITY)
    out["normality_check"] = " ".join(
        value.hex() if isinstance(value, float) else str(value)
        for value in dataclasses.astuple(report)).encode()
    for label, spec in MODELS.items():
        for name, sample in (("_top_sample", _top_sample(spec, TOP_N, TOP_M, RngStream(5, 1))),
                             ("sample_censored", sample_censored(spec, TOP_N, RngStream(5, 2)))):
            out[f"{name} {label}"] = sample.z.tobytes() + sample.delta.tobytes()
    sample = _tie_heavy_sample()
    for name, curve in (("kaplan_meier_curve", kaplan_meier_curve),
                        ("nelson_aalen_curve", nelson_aalen_curve)):
        got = curve(sample)
        out[name] = got.jump_points.tobytes() + got.values_after.tobytes()
    out["_tail_path"] = _tail_path(sample, ENGINE_KS, ESTIMATOR_NAMES, ENGINE_KERNELS).tobytes()
    return out


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def test_outputs_are_the_recorded_bytes(made):
    golden = json.loads(GOLDEN.read_text())
    if golden["environment"] != _environment():
        pytest.skip(f"digests made on {golden['environment']}, this is {_environment()}; "
                    "the test_reference_* tests check the outputs")
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in made.items()}
    assert digests == golden["sha256"]


def _reference_rows(sample, ks, names, kernels):
    """The oracle's cells, shape (len(names) + len(kernels), len(ks)), NaN
    where the estimator is undefined."""
    ref = _TailArrays(sort_with_concomitants(sample))
    rows = np.full((len(names) + len(kernels), len(ks)), np.nan)
    for j, k in enumerate(ks):
        for i, name in enumerate([*names, *kernels]):
            try:
                rows[i, j] = getattr(ref, name)(k) if isinstance(name, str) else ref.kernel(k, name)
            except (DegenerateP, ZeroSurvivalAtThreshold):
                pass
    return rows


def _assert_cells(got, want, atol):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.allclose(got, want, rtol=0, atol=atol, equal_nan=True)


def _csv_columns(data):
    """The columns of a CSV, by header, as arrays of their text."""
    header, *rows = csv.reader(io.StringIO(data.decode()))
    return dict(zip(header, np.array(rows).T))


def _floats(cells):
    return np.array([float(cell) if cell else np.nan for cell in cells])


def test_reference_simulations(made):
    """Every worker count writes the same CSV, whose counts and means are
    those of the oracle's cells over the same samples."""
    for label, study in STUDIES.items():
        spec = SimulationConfig.from_json_dict(study).model
        first = made[f"simulate {label} workers=1 csv"]
        assert all(made[f"simulate {label} workers={w} csv"] == first for w in WORKERS)
        rows = np.stack([
            _reference_rows(whole_sample(spec, study["n"], RngStream(study["master_seed"], r)),
                            study["k_values"], study["estimators"], BUILTINS)
            for r in range(1, study["replications"] + 1)])
        cells = _csv_columns(first)
        for column, name in zip(np.moveaxis(rows, 1, 0), [*study["estimators"], *BUILTIN_COLUMNS]):
            at = cells["estimator"] == name
            count = np.count_nonzero(~np.isnan(column), axis=0)
            assert np.array_equal(cells["defined_count"][at].astype(int), count)
            mean = np.nansum(column, axis=0) / np.maximum(count, 1)
            _assert_cells(_floats(cells["mean"][at]), np.where(count, mean, np.nan), TOL)


def test_reference_estimate(made):
    """LF, CRLF and quoted files give one CSV, whose cells are the oracle's."""
    first = made["estimate lf csv"]
    assert made["estimate crlf csv"] == first and made["estimate quoted csv"] == first
    cells = _csv_columns(first)
    ks = cells["k"].astype(int).tolist()
    want = _reference_rows(CensoredSample(*_estimate_data()), ks, ESTIMATOR_NAMES, BUILTINS)
    for row, name in zip(want, [*ESTIMATOR_NAMES, *BUILTIN_COLUMNS]):
        _assert_cells(_floats(cells[name]), row, TOL)


def test_reference_normality_check(made):
    report = dict(zip([field.name for field in dataclasses.fields(NormalityReport)],
                      made["normality_check"].decode().split()))
    cells = np.array([
        _reference_rows(whole_sample(NORMALITY["model"], NORMALITY["n"],
                                     RngStream(NORMALITY["master_seed"], r)),
                        [NORMALITY["k"]], (), (BIWEIGHT,))[0, 0]
        for r in range(1, NORMALITY["replications"] + 1)])
    assert int(report["defined_count"]) == np.count_nonzero(~np.isnan(cells))
    mean = np.sqrt(NORMALITY["k"]) * (np.nanmean(cells) - NORMALITY["model"].gamma1)
    assert abs(float.fromhex(report["empirical_mean"]) - mean) <= 1e-10


def test_reference_samples(made):
    """The drawn samples are the oracle's rows, bit for bit."""
    for label, spec in MODELS.items():
        top = sort_with_concomitants(top_order_statistics(
            whole_sample(spec, TOP_N, RngStream(5, 1)), TOP_M))
        whole = whole_sample(spec, TOP_N, RngStream(5, 2))
        assert made[f"_top_sample {label}"] == top.z.tobytes() + top.delta.tobytes()
        assert made[f"sample_censored {label}"] == whole.z.tobytes() + whole.delta.tobytes()


def test_reference_curves_and_engine_rows(made):
    sample = _tie_heavy_sample()
    for name, reference in (("kaplan_meier_curve", reference_km_curve),
                            ("nelson_aalen_curve", reference_na_curve)):
        want = reference(sort_with_concomitants(sample))
        jumps, values = np.frombuffer(made[name]).reshape(2, -1)
        assert np.array_equal(jumps, want.jump_points)
        assert np.allclose(values, want.values_after, rtol=0, atol=1e-12)
    got = np.frombuffer(made["_tail_path"]).reshape(-1, len(ENGINE_KS))
    _assert_cells(got, _reference_rows(sample, ENGINE_KS, ESTIMATOR_NAMES, ENGINE_KERNELS), TOL)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as folder:
        made = outputs(Path(folder))
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in made.items()}
    GOLDEN.write_text(json.dumps({"environment": _environment(), "sha256": digests},
                                 indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
