import csv
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from censtail import (
    CensoredSample,
    Table,
    builtin_kernel,
    estimate_path,
    render_csv,
    sort_with_concomitants,
)
from censtail import cli
from censtail.cli import main
from conftest import make_censored


def write_sample_csv(path, rows, header=True):
    lines = ["value,delta"] if header else []
    lines += [f"{z},{d}" for z, d in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_output(path):
    """The columns and rows of a CSV output, with empty cells as None."""
    with open(path, encoding="utf-8", newline="") as fh:
        columns, *rows = csv.reader(fh)
    return Table(columns, [[cell if cell != "" else None for cell in row] for row in rows])


def small_sim_config(tmp_path, **overrides):
    doc = {
        "schema": "censtail-sim-config/1",
        "model": {
            "loss": {"family": "burr", "gamma1": 0.4, "eta": 0.25},
            "censor": {"family": "frechet", "gamma2": 3.6},
        },
        "n": 80,
        "replications": 10,
        "k_values": [5, 10, 20],
        "estimators": ["mns", "worms"],
        "kernels": ["biweight"],
        "master_seed": 31,
        "workers": 1,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestEstimate:
    def test_hand_oracle_row(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "out.csv"
        write_sample_csv(data, [(1, 1), (2, 1), (4, 1), (8, 1)])
        code = main([
            "estimate", "--input", str(data), "--output", str(out),
            "--k", "3", "--estimators", "hill", "--kernels", "",
        ])
        assert code == 0
        table = read_output(out)
        assert table.columns == ("k", "p_hat", "hill")
        row = table.rows[0]
        assert int(row[0]) == 3
        assert float(row[2]) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_all_censored_top_marks_efg_undefined(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "out.csv"
        write_sample_csv(data, [(1, 1), (2, 0), (4, 0), (8, 0)])
        code = main([
            "estimate", "--input", str(data), "--output", str(out),
            "--k", "2", "--estimators", "efg", "--kernels", "",
        ])
        assert code == 0
        table = read_output(out)
        assert table.columns == ("k", "p_hat", "efg")
        assert float(table.rows[0][1]) == 0.0
        assert table.rows[0][2] is None

    def test_declared_header_consumes_a_numeric_first_line(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "out.csv"
        write_sample_csv(data, [(100, 0), (1, 1), (2, 1), (4, 1), (8, 1)], header=False)
        code = main([
            "estimate", "--input", str(data), "--output", str(out), "--header", "present",
            "--k", "3", "--estimators", "hill", "--kernels", "",
        ])
        assert code == 0
        # with the first line read as data, 100 would be the largest value
        row = read_output(out).rows[0]
        assert float(row[1]) == 1.0
        assert float(row[2]) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_declared_absent_header_is_a_parse_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        out = tmp_path / "out.csv"
        write_sample_csv(data, [(1, 1), (2, 1), (4, 1), (8, 1)])
        code = main(["estimate", "--input", str(data), "--output", str(out),
                     "--header", "absent", "--k", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: row 1: cannot parse value 'value'\n")
        assert not out.exists()

    def test_missing_file_no_partial_output(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main([
            "estimate", "--input", str(tmp_path / "nope.csv"),
            "--output", str(out), "--k", "3",
        ])
        assert code == 2
        assert not out.exists()

    def test_data_error_exit_code(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "out.csv"
        data.write_text("1.5,2\n", encoding="utf-8")
        code = main(["estimate", "--input", str(data), "--output", str(out), "--k", "1"])
        assert code == 2
        assert not out.exists()

    def test_invalid_k_for_data_size(self, tmp_path):
        data = tmp_path / "data.csv"
        write_sample_csv(data, [(1, 1), (2, 1)])
        code = main([
            "estimate", "--input", str(data),
            "--output", str(tmp_path / "o.csv"), "--k", "2",
        ])
        assert code == 2

    def test_repeated_column_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        out = tmp_path / "out.csv"
        write_sample_csv(data, [(1, 1), (2, 1), (4, 1), (8, 1)])
        for option, names in (("--kernels", "biweight,k2"), ("--estimators", "mns,hill,mns")):
            code = main(["estimate", "--input", str(data), "--output", str(out),
                         "--k", "2", option, names])
            assert code == 1
            assert "twice" in capsys.readouterr().err
            assert not out.exists()

    def test_usage_error_without_k(self, tmp_path):
        data = tmp_path / "data.csv"
        write_sample_csv(data, [(1, 1), (2, 1)])
        code = main([
            "estimate", "--input", str(data), "--output", str(tmp_path / "o.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize("args", [
        ["--k", "2", "--estimators", "hill,typo"],
        ["--k", "2", "--kernels", "biweight,biweight"],
        ["--k", "2", "--kernels", "gaussian"],
        [],
        ["--k-min", "2"],
        ["--k-min", "2", "--k-max", "4", "--k-step", "0"],
    ])
    def test_usage_errors_do_not_read_the_input(self, tmp_path, monkeypatch, args):
        def unexpected_read(*_args, **_kwargs):
            pytest.fail("read_csv called before the arguments were checked")

        data = tmp_path / "data.csv"
        write_sample_csv(data, [(1, 1), (2, 1), (4, 1), (8, 1)])
        monkeypatch.setattr(cli, "read_csv", unexpected_read)
        out = tmp_path / "out.csv"
        code = main(["estimate", "--input", str(data), "--output", str(out), *args])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        b"value,delta\n1.5,1\n" + b"1" * 200_000 + b",1\n2.0,0\n",
        b"\xff\xfe1,1\n2,0\n3,1\n",
    ], ids=["field over the csv limit", "not utf-8"])
    def test_unreadable_input_is_a_data_error(self, tmp_path, capsys, content):
        data = tmp_path / "data.csv"
        data.write_bytes(content)
        out = tmp_path / "out.csv"
        code = main(["estimate", "--input", str(data), "--output", str(out), "--k", "1"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_output_directory_error_names_the_output(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_sample_csv(data, [(1, 1), (2, 1), (4, 1), (8, 1)])
        out = tmp_path / "out"
        out.mkdir()
        code = main(["estimate", "--input", str(data), "--output", str(out), "--k", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert repr(str(out)) in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "out"]
        assert not any(out.iterdir())

    def test_sorts_only_the_top_of_the_sample(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(7)
        n, k_max = 4000, 300
        z = np.round(rng.pareto(1.5, n) + 1.0, 1)  # tie blocks of mixed indicators
        delta = rng.integers(0, 2, n)
        data = tmp_path / "data.csv"
        write_sample_csv(data, zip(z.tolist(), delta.tolist()))
        z_sorted = np.sort(z)
        top = n - np.searchsorted(z_sorted, z_sorted[n - 1 - k_max])  # with the tie block
        assert k_max + 1 < top < n
        lengths = []
        lexsort = np.lexsort

        def recording_lexsort(keys, *args, **kwargs):
            lengths.append(len(keys[0]))
            return lexsort(keys, *args, **kwargs)

        monkeypatch.setattr(np, "lexsort", recording_lexsort)
        code = main(["estimate", "--input", str(data), "--output", str(tmp_path / "out.csv"),
                     "--k-min", "10", "--k-max", str(k_max), "--k-step", "10"])
        assert code == 0
        assert lengths and max(lengths) == top

    def test_top_slice_gives_the_bytes_of_the_full_sort(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 3000
        z = np.round(rng.pareto(1.2, n) + 1.0, 1)
        delta = (rng.random(n) < 0.6).astype(int)
        data = tmp_path / "data.csv"
        write_sample_csv(data, zip(z.tolist(), delta.tolist()))
        lo = n - 1 - 700  # a tie block of mixed indicators straddles it
        at_lo = np.sort(z)[lo]
        tied = np.sort(z) == at_lo
        assert tied[lo - 1] and tied[lo + 1] and 0 < delta[z == at_lo].sum() < tied.sum()
        out = tmp_path / "out.csv"
        for k_args, k_values in ((["--k-min", "1", "--k-max", "700"], range(1, 701)),
                                 (["--k-min", "5", "--k-max", "2999", "--k-step", "7"],
                                  range(5, 3000, 7)),
                                 (["--k", "444"], [444])):
            assert main(["estimate", "--input", str(data), "--output", str(out),
                         *k_args]) == 0
            full = sort_with_concomitants(CensoredSample(z, delta))
            path = estimate_path(full, k_values, ("p_hat", "hill", "efg", "worms", "mns"),
                                 (builtin_kernel("biweight"), builtin_kernel("triweight")))
            assert out.read_bytes() == render_csv(path.to_table()).encode()

    @pytest.mark.parametrize("k_args", [["--k", "50"], ["--k-min", "0", "--k-max", "5"],
                                        ["--k-min", "40", "--k-max", "60"]])
    def test_invalid_k_names_the_full_n(self, tmp_path, capsys, k_args):
        data = tmp_path / "data.csv"
        write_sample_csv(data, [(1.0 + j, j % 2) for j in range(50)])
        out = tmp_path / "out.csv"
        assert main(["estimate", "--input", str(data), "--output", str(out), *k_args]) == 2
        assert "(n = 50)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k_args", [["--k-min", "1", "--k-max", str(10**15)],
                                        ["--k", "-3"], ["--k-min", "-5", "--k-max", "-2"]],
                             ids=["huge grid", "negative k", "negative grid"])
    def test_out_of_range_k_is_a_data_error(self, tmp_path, capsys, k_args):
        # the huge grid was expanded into a MemoryError, and a negative k
        # asked read_csv for a negative top: both exited 3
        data = tmp_path / "data.csv"
        write_sample_csv(data, [(1, 1), (2, 1), (4, 1), (8, 1)])
        out = tmp_path / "out.csv"
        assert main(["estimate", "--input", str(data), "--output", str(out), *k_args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "(n = 4)" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_error_with_a_line_break_is_one_line(self, tmp_path, capsys):
        # argparse quotes no unrecognized argument, so its line break split the error
        data = tmp_path / "data.csv"
        write_sample_csv(data, [(1, 1), (2, 1), (4, 1), (8, 1)])
        code = main(["estimate", "--input", str(data), "--output", str(tmp_path / "o.csv"),
                     "--k", "2", "--unknown", "a\nb"])
        assert code == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --unknown a b\n"

    def test_matches_library(self, tmp_path, rng):
        sample = make_censored(rng, n=60)
        data = tmp_path / "data.csv"
        out = tmp_path / "out.csv"
        write_sample_csv(data, zip(sample.z.tolist(), sample.delta.tolist()))
        code = main([
            "estimate", "--input", str(data), "--output", str(out),
            "--k-min", "5", "--k-max", "40", "--k-step", "5",
            "--estimators", "hill,efg,worms,mns",
            "--kernels", "biweight,triweight",
        ])
        assert code == 0
        table = read_output(out)
        path = estimate_path(
            sort_with_concomitants(CensoredSample(sample.z, sample.delta)),
            range(5, 41, 5),
            estimators=("p_hat", "hill", "efg", "worms", "mns"),
            kernels=(builtin_kernel("biweight"), builtin_kernel("triweight")),
        )
        assert table.columns == ("k", "p_hat", "hill", "efg", "worms", "mns",
                                 "kernel_biweight", "kernel_triweight")
        for j, row in enumerate(table.rows):
            for col, name in zip(row[1:], table.columns[1:]):
                expected = path.column(name)[j]
                if expected is None:
                    assert col is None
                else:
                    assert float(col) == expected  # 17g text is bit-faithful


class TestSimulate:
    def test_runs_and_writes_both_files(self, tmp_path):
        config = small_sim_config(tmp_path)
        out = tmp_path / "results.csv"
        code = main(["simulate", "--config", str(config), "--output", str(out)])
        assert code == 0
        assert out.exists()
        doc = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
        assert doc["schema"] == "censtail-sim-result/1"
        assert doc["config"]["master_seed"] == 31

    def test_byte_identical_reruns(self, tmp_path):
        config = small_sim_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(config), "--output", str(out_a)]) == 0
        assert main(["simulate", "--config", str(config), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = small_sim_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["simulate", "--config", str(config), "--output", str(out_a)])
        main(["simulate", "--config", str(config), "--output", str(out_b),
              "--seed", "77"])
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_workers_env_var_keeps_bytes(self, tmp_path, monkeypatch):
        config = small_sim_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        monkeypatch.delenv("CENS_TAIL_THREADS", raising=False)
        assert main(["simulate", "--config", str(config), "--output", str(out_a)]) == 0
        monkeypatch.setenv("CENS_TAIL_THREADS", "2")
        assert main(["simulate", "--config", str(config), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_error_reports_field(self, tmp_path, capsys):
        config = small_sim_config(tmp_path, replications=0)
        code = main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1
        assert not (tmp_path / "o.csv").exists()
        assert "replications" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["simulate", "--config", str(bad),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1


    def test_workers_env_var_zero_names_workers(self, tmp_path, capsys, monkeypatch):
        config = small_sim_config(tmp_path)
        for value, err in (("0", "error: workers must be >= 1, got 0\n"),
                           ("abc", "error: CENS_TAIL_THREADS must be an integer, got 'abc'\n")):
            monkeypatch.setenv("CENS_TAIL_THREADS", value)
            code = main(["simulate", "--config", str(config),
                         "--output", str(tmp_path / "o.csv")])
            assert code == 1
            assert capsys.readouterr().err == err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("overrides, field, args", [
        ({"estimators": None}, "estimators", []),
        ({"kernels": None}, "kernels", []),
        ({"estimators": 5}, "estimators", []),
        ({"k_grid": {"min": 1, "max": 10, "step": True}}, "k_grid.step", []),
        ({"k_grid": {"min": 1, "max": 10**15}}, "k_grid.max", []),
        ({"model": {"loss": {"family": "pareto", "gamma1": 10**400}}}, "model.loss.gamma1", []),
        ({"master_seed": -1}, "master_seed", []),
        ({"master_seed": 2**64}, "master_seed", []),
        ({}, "master_seed", ["--seed", "-1"]),
    ], ids=["null-estimators", "null-kernels", "int-estimators", "bool-step",
            "huge-grid", "huge-int-gamma1", "negative-seed", "seed-past-64-bits",
            "negative-seed-option"])
    def test_bad_config_is_a_config_error(self, tmp_path, capsys, overrides, field, args):
        # each of these exited 3, except the bool step, which ran as step 1
        config = small_sim_config(tmp_path, **overrides)
        if "k_grid" in overrides:  # k_values would take precedence
            doc = json.loads(config.read_text(encoding="utf-8"))
            del doc["k_values"]
            config.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "o.csv"), *args])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("prefix", [b"\xff", b"[" * 100_000],
                             ids=["not utf-8", "nested too deep"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, prefix):
        config = small_sim_config(tmp_path)
        config.write_bytes(prefix + config.read_bytes())
        code = main(["simulate", "--config", str(config),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid JSON in ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_model_whose_draws_overflow_is_a_data_error(self, tmp_path, capsys):
        # the inf draw was a SimulationError (exit 3) after a numpy warning line
        config = small_sim_config(tmp_path, model={
            "loss": {"family": "burr", "gamma1": 0.4, "eta": 0.25},
            "censor": {"family": "frechet", "gamma2": 7e16},
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--config", str(config),
                         "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: simulation replication failed")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_json_output_path_rejected_before_running(self, tmp_path, capsys):
        config = small_sim_config(tmp_path)
        out = tmp_path / "out.json"
        code = main(["simulate", "--config", str(config), "--output", str(out)])
        assert code == 1
        assert ".json" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_outputs_get_umask_mode(self, tmp_path):
        config = small_sim_config(tmp_path)
        out = tmp_path / "results.csv"
        old = os.umask(0o022)
        try:
            assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
        finally:
            os.umask(old)
        for path in (out, tmp_path / "results.json"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_failed_json_write_leaves_no_csv(self, tmp_path):
        config = small_sim_config(tmp_path)
        (tmp_path / "results.json").mkdir()  # the JSON rename must fail
        out = tmp_path / "results.csv"
        code = main(["simulate", "--config", str(config), "--output", str(out)])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "results.json"]
        assert not any((tmp_path / "results.json").iterdir())


class TestPaths:
    """Every OSError on an input, config or output path is a data error."""

    @pytest.fixture
    def data(self, tmp_path):
        data = tmp_path / "data.csv"
        write_sample_csv(data, [(1, 1), (2, 1), (4, 1), (8, 1)])
        return data

    @pytest.mark.parametrize("command, name", [
        ("estimate", "--input"), ("estimate", "--output"), ("simulate", "--config"),
    ])
    @pytest.mark.parametrize("bad", ["file-as-directory", "long-name"])
    def test_odd_path_is_a_data_error(self, tmp_path, capsys, data, command, name, bad):
        # a NotADirectoryError or an ENAMETOOLONG OSError exited 3 here
        config = small_sim_config(tmp_path)
        path = str(data / "x.csv") if bad == "file-as-directory" else str(tmp_path / ("a" * 300))
        argv = {"estimate": ["--input", str(data), "--k", "2"],
                "simulate": ["--config", str(config)]}[command]
        argv += ["--output", str(tmp_path / "out.csv")]
        argv[argv.index(name) + 1] = path
        code = main([command, *argv])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert repr(path) in err[0] and ".tmp" not in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.csv"]

    def test_symlink_output_is_written_through(self, tmp_path, data):
        target = tmp_path / "target.csv"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code = main(["estimate", "--input", str(data), "--output", str(link), "--k", "2"])
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="utf-8").startswith("k,p_hat,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "link.csv",
                                                             "target.csv"]

    def test_dangling_symlink_output_creates_its_target(self, tmp_path, data):
        link = tmp_path / "link.csv"
        link.symlink_to("target.csv")
        code = main(["estimate", "--input", str(data), "--output", str(link), "--k", "2"])
        assert code == 0
        assert link.is_symlink()
        assert (tmp_path / "target.csv").read_text(encoding="utf-8").startswith("k,p_hat,")

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_fifo_output_is_refused(self, tmp_path, capsys, data, command):
        # the FIFO was replaced by a regular file, and the command exited 0
        config = small_sim_config(tmp_path)
        out = tmp_path / "out.csv"
        fifo = tmp_path / ("out.csv" if command == "estimate" else "out.json")
        os.mkfifo(fifo)
        argv = (["estimate", "--input", str(data), "--k", "2"] if command == "estimate"
                else ["simulate", "--config", str(config)])
        code = main([*argv, "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: [Errno 17] exists and is not a regular file: {str(fifo)!r}"]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["config.json", "data.csv", fifo.name])

    def test_directory_json_output_keeps_an_existing_csv(self, tmp_path, capsys):
        # the CSV was renamed over results.csv, then deleted when the JSON failed
        config = small_sim_config(tmp_path)
        out = tmp_path / "results.csv"
        out.write_text("kept\n", encoding="utf-8")
        (tmp_path / "results.json").mkdir()
        code = main(["simulate", "--config", str(config), "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: {str(tmp_path / 'results.json')!r}\n")
        assert out.read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "results.csv", "results.json"]


class TestMoments:
    def test_closed_form_output(self, capsys):
        code = main([
            "moments", "--kernels", "indicator", "--p", "0.6",
            "--gamma1", "0.4", "--tau1", "-1", "--lam", "1",
        ])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("indicator:")
        mu = float(line.split("mu_K = ")[1].split(",")[0])
        sigma2 = float(line.split("sigma2_K = ")[1])
        assert mu == pytest.approx(0.5, abs=1e-10)
        assert sigma2 == pytest.approx(0.48, abs=1e-10)

    def test_zero_lambda(self, capsys):
        code = main(["moments", "--kernels", "biweight", "--p", "0.9",
                     "--gamma1", "1.0"])
        assert code == 0
        assert "mu_K = 0," in capsys.readouterr().out

    def test_p_too_small_is_usage_error(self, capsys):
        code = main(["moments", "--kernels", "indicator", "--p", "0.4",
                     "--gamma1", "0.4"])
        assert code == 1
        assert "1/2" in capsys.readouterr().err

    def test_twelve_significant_digits(self, capsys):
        main(["moments", "--kernels", "biweight", "--p", "0.75", "--gamma1", "1.0"])
        line = capsys.readouterr().out.strip()
        text = line.split("sigma2_K = ")[1]
        digits = text.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 11  # %.12g keeps 12 significant digits


class TestCheckKernels:
    def test_all_builtins_pass(self, capsys):
        code = main(["check-kernels"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("indicator", "biweight", "triweight"):
            assert name in out

    def test_unknown_kernel_is_usage_error(self):
        assert main(["check-kernels", "--kernels", "gaussian"]) == 1


_SRC = Path(__file__).resolve().parents[1] / "src"

_QUADRATURE_PROBE = """
import sys
import censtail
from censtail.cli import main

data, path_csv, config, sim_csv = sys.argv[1:]
assert main(["estimate", "--input", data, "--output", path_csv, "--k-min", "2",
             "--k-max", "12"]) == 0
assert main(["simulate", "--config", config, "--output", sim_csv]) == 0
assert "scipy.integrate" not in sys.modules, "loaded by import, estimate or simulate"
censtail.normality_check(censtail.ModelSpec(loss=censtail.Pareto(1.0)), 200, 10, 20,
                         "biweight")
spec = censtail.MomentSpec(gamma1=1.0, p=1.0, tau1=-1.0, lam=1.0)
for kernel in (censtail.INDICATOR, censtail.BIWEIGHT, censtail.TRIWEIGHT):
    censtail.asymptotic_bias(kernel, spec)
    assert censtail.check_kernel_axioms(kernel).passed
print(repr(censtail.asymptotic_variance(censtail.BIWEIGHT, spec)))
assert "scipy.integrate" not in sys.modules, "loaded by a built-in kernel's moments"
raw = censtail.Kernel("triangular", k=lambda s: 2.0 * (1.0 - s),
                      g_prime=lambda s: 2.0 - 4.0 * s, g_second=lambda s: -4.0 + 0.0 * s)
censtail.asymptotic_variance(raw, spec)
assert "scipy.integrate" in sys.modules
"""


def test_estimate_and_simulate_do_not_load_quadrature(tmp_path):
    """scipy.integrate is imported by a custom kernel's moments only."""
    data = tmp_path / "data.csv"
    write_sample_csv(data, [(1.0 + v * v, int(v % 3 != 0)) for v in range(20)])
    config = small_sim_config(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(_SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", _QUADRATURE_PROBE, str(data), str(tmp_path / "path.csv"),
         str(config), str(tmp_path / "sim.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    # 1.875^2 times the integral of (1 - s^2)^4 over (0, 1), which is 128/315
    assert float(result.stdout.split()[-1]) == pytest.approx(10 / 7, abs=1e-12)


# VmHWM, the peak RSS of this program image; ru_maxrss would also count the
# forked copy of the test process that the child was exec'd from
_PEAK_PROBE = """
import sys
from censtail.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))  # KiB
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
@pytest.mark.parametrize("censor", [{"family": "frechet", "gamma2": 3.6}, None],
                         ids=["censored", "complete"])
def test_simulate_memory_does_not_grow_with_n(tmp_path, censor):
    """Each replication keeps its running top, not its n = 10^7 rows (80 MB
    for the values alone)."""
    config = small_sim_config(tmp_path, n=10**7, replications=2, k_values=[10, 100],
                              model={"loss": {"family": "burr", "gamma1": 0.4, "eta": 0.25},
                                     "censor": censor})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(_SRC), env.get("PYTHONPATH"))))
    env.pop("CENS_TAIL_THREADS", None)
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, "simulate", "--config", str(config),
         "--output", str(tmp_path / "sim.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.split()[-1]) < 100 * 1024
