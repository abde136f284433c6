import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from censtail import (
    CensoredSample,
    builtin_kernel,
    estimate_path,
    read_table,
    sort_with_concomitants,
)
from censtail.cli import main
from conftest import make_censored


def write_sample_csv(path, rows, header=True):
    lines = ["value,delta"] if header else []
    lines += [f"{z},{d}" for z, d in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        table = read_table(out)
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
        table = read_table(out)
        assert table.columns == ("k", "p_hat", "efg")
        assert float(table.rows[0][1]) == 0.0
        assert table.rows[0][2] is None

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
        table = read_table(out)
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
