"""The command line as a user runs it: ``python -m censtail.cli`` in a fresh
interpreter, in a temporary directory, judged by its exit code, its stderr
and the files it leaves behind."""

import io
import itertools
import json

import numpy as np
import pytest

from censtail import (
    SimulationConfig,
    builtin_kernel,
    estimate_path,
    read_csv,
    render_csv,
    samples,
    sort_with_concomitants,
)
from censtail.cli import main
from conftest import SRC, run_python


def _censtail(cwd, *argv, threads=None):
    return run_python(["-m", "censtail.cli", *argv], threads=threads, cwd=cwd)


def _estimate(cwd, data, out, *options):
    result = _censtail(cwd, "estimate", "--input", data, "--output", out, *options)
    assert result.returncode == 0, result.stderr


def _simulate(cwd, config, out, threads=None):
    result = _censtail(cwd, "simulate", "--config", config, "--output", out, threads=threads)
    assert result.returncode == 0, result.stderr


def test_crlf_without_a_header_reads_as_a_declared_absent_one(tmp_path):
    (tmp_path / "tiny_crlf.csv").write_bytes(
        b"3.5,1\r\n1.2,0\r\n2.0,1\r\n8.1,1\r\n2.0,0\r\n5.7,0\r\n")
    _estimate(tmp_path, "tiny_crlf.csv", "tiny_crlf_path.csv", "--k-min", "1", "--k-max", "5")
    _estimate(tmp_path, "tiny_crlf.csv", "tiny_crlf_absent.csv", "--k-min", "1", "--k-max", "5",
              "--header", "absent")
    assert ((tmp_path / "tiny_crlf_path.csv").read_bytes()
            == (tmp_path / "tiny_crlf_absent.csv").read_bytes())


def test_a_malformed_row_exits_2_naming_its_row(tmp_path):
    (tmp_path / "tiny_bad.csv").write_bytes(b"value,delta\n3.5,1\nabc,1\n2.0,1\n")
    result = _censtail(tmp_path, "estimate", "--input", "tiny_bad.csv",
                       "--output", "tiny_bad_path.csv", "--k", "1")
    assert result.returncode == 2
    assert "row 3" in result.stderr
    assert not (tmp_path / "tiny_bad_path.csv").exists()


def test_a_50_mb_line_exits_2_with_one_error_line(tmp_path):
    with open(tmp_path / "long.csv", "wb") as fh:
        fh.write(b"value,delta\n1.5,1\n1.")
        for _ in range(50):
            fh.write(b"0" * 10**6)
        fh.write(b",1\n2.5,0\n")
    result = _censtail(tmp_path, "estimate", "--input", "long.csv",
                       "--output", "long_path.csv", "--k", "1")
    assert result.returncode == 2
    assert result.stderr.startswith("error: row 3: line longer than ")
    assert result.stderr.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["long.csv"]


@pytest.mark.skipif(samples._processes(2) < 2,
                    reason="a file is parsed in parts only by forked workers on two CPUs")
def test_parts_parsed_at_once_give_the_scanners_csv(tmp_path):
    """Files above two parts' size are parsed in parts at the same time; the
    CSV equals the one the row scanner's reading gives, LF and CRLF.  Every
    value quoted sends the file through the row scanner, which keeps a
    running top as it reads; its CSV is the same."""
    rng = np.random.default_rng(22)
    z = np.round(rng.pareto(1.0, 600_000) + 1.0, 6)
    delta = rng.integers(0, 2, z.size)
    text = "value,delta\n" + "".join(f"{v!r},{d}\n" for v, d in zip(z.tolist(), delta.tolist()))
    for name, end in (("parts_lf", "\n"), ("parts_crlf", "\r\n")):
        with open(tmp_path / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(text.replace("\n", end))
    with open(tmp_path / "parts_quoted.csv", "w", encoding="utf-8", newline="") as fh:
        for line in text.splitlines():
            fh.write(",".join(f'"{field}"' for field in line.split(",")) + "\n")
    options = ("--k-min", "10", "--k-max", "5000", "--k-step", "10",
               "--estimators", "hill,efg,worms,mns", "--kernels", "biweight")
    for name in ("parts_lf", "parts_crlf", "parts_quoted"):
        _estimate(tmp_path, f"{name}.csv", f"{name}_path.csv", *options)
    assert ((tmp_path / "parts_lf_path.csv").read_bytes()
            == (tmp_path / "parts_quoted_path.csv").read_bytes())
    for name in ("parts_lf", "parts_crlf"):
        notes = {}
        samples._read_path_fast(tmp_path / f"{name}.csv", None, 5001, notes)
        assert notes["parts"] > 1, notes
        with open(tmp_path / f"{name}.csv", encoding="utf-8", newline="") as fh:
            rows = read_csv(io.StringIO(fh.read()), top=5001)
        path = estimate_path(sort_with_concomitants(rows.sample), range(10, 5001, 10),
                             ["p_hat", "hill", "efg", "worms", "mns"],
                             [builtin_kernel("biweight")])
        assert (tmp_path / f"{name}_path.csv").read_bytes() == render_csv(path.to_table()).encode()
    assert list(tmp_path.glob("*.tmp")) == []


def test_moments_of_the_builtin_kernels(tmp_path):
    result = _censtail(tmp_path, "moments", "--p", "0.9", "--gamma1", "0.4", "--tau1", "-1",
                       "--lam", "1")
    assert result.returncode == 0, result.stderr


_BURR_FRECHET = {"loss": {"family": "burr", "gamma1": 0.4, "eta": 0.25},
                 "censor": {"family": "frechet", "gamma2": 3.6}}
_PARETO = {"loss": {"family": "pareto", "gamma1": 1.0}, "censor": None}


@pytest.mark.parametrize("study", [
    # complete data, n = 10^6 in 16 blocks: each replication keeps only its top
    {"model": _PARETO, "n": 1_000_000, "replications": 2, "k_values": [10, 100]},
    # censored, n = 200 001 in 4 blocks: each block of the loss run and of the
    # censor run (from position n) is read at its own position by a re-keyed
    # Philox
    {"model": _BURR_FRECHET, "n": 200_001, "replications": 2, "k_values": [10, 100]},
    # complete data, n = 50 and k up to 49: every word passes the cut and the
    # top is the whole sample
    {"model": _PARETO, "n": 50, "replications": 4, "k_values": [1, 10, 49]},
], ids=["complete, n = 10^6", "censored, n = 200001", "complete, n = 50"])
def test_two_workers_write_the_bytes_of_one(tmp_path, study):
    (tmp_path / "config.json").write_text(json.dumps(study), encoding="utf-8")
    _simulate(tmp_path, "config.json", "sim.csv")
    _simulate(tmp_path, "config.json", "sim_2.csv", threads=2)
    assert (tmp_path / "sim.csv").read_bytes() == (tmp_path / "sim_2.csv").read_bytes()


def test_the_result_json_holds_a_config_that_round_trips(tmp_path):
    study = {"model": _BURR_FRECHET, "n": 50, "replications": 3, "k_values": [5, 10, 20]}
    (tmp_path / "tiny_config.json").write_text(json.dumps(study), encoding="utf-8")
    _simulate(tmp_path, "tiny_config.json", "tiny_sim.csv")
    doc = json.loads((tmp_path / "tiny_sim.json").read_text(encoding="utf-8"))
    assert SimulationConfig.from_json_dict(doc["config"]).to_json_dict() == doc["config"]


def test_the_console_script_runs_cli_main():
    """The ``censtail`` command an install adds runs what ``python -m
    censtail.cli`` runs.  pyproject.toml is read without tomllib, which
    Python 3.10 lacks."""
    lines = iter((SRC.parent / "pyproject.toml").read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line == "[project.scripts]":
            break
    table = itertools.takewhile(lambda line: not line.startswith("["), lines)
    assert [line for line in table if line.strip()] == ['censtail = "censtail.cli:main"']
    assert callable(main)
