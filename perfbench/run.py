"""Benchmark of censtail through its public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload sim_desk --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client, one process; ``sim_parallel`` adds a
pool of min(2, nproc) workers):

- ``sim_desk``: ``censtail simulate`` in-process, Burr(0.4, 0.25) censored
  by Frechet(3.6), n = 1000, R = 200, k = 20..500 step 10, efg + worms +
  mns + biweight + triweight, one worker.  The per-k estimator loop
  dominates; the workload for k-path and aggregation changes.
- ``sim_parallel``: the same experiment with two workers.  The only
  workload where the process pool, chunking and ordered merge do work; its
  CSV must be byte-identical to the one-worker CSV.
- ``normality_tail``: ``normality_check`` on Pareto(1) complete data,
  n = 20000, k = 52, R = 500, biweight.  One k far below n, so sorting and
  survival curves dominate; a k-path change must not move it.
- ``estimate_csv``: ``censtail estimate`` in-process on a 10^6-row CSV of
  the same censored model written at 6 significant digits (heavy ties),
  k = 100..100000 step 100, default estimators and kernels.  The only
  disk-ingest workload.

Every input is generated from ``--seed``.  Outputs are checked against the
independent reference in ``oracle.py``.  With ``--trace 0`` the last
stdout line reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from a separate traced run.  The line before it holds
the environment, input properties and run details.

End-to-end times (``wall_s``, ``cpu_s``, ``setup_s`` and ``work_per_s``)
are scaled to a reference host speed sampled during each call (see
``speed.py``); the unscaled wall times are in the details line.  Span
durations in the traced run are scaled by the speed sampled during each
span, so layer times and end-to-end times share one scale.  In
``sim_parallel`` the two busy cores also slow each other down, and the
scaling removes part of that as well.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracle
from speed import SpeedProbe
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"
WORKERS_ENV_VAR = "CENS_TAIL_THREADS"

WORKLOADS = ("sim_desk", "sim_parallel", "normality_tail", "estimate_csv")
SIZES = {
    "full": {"sim_n": 1000, "sim_r": 200, "sim_k": (20, 500, 10),
             "norm_n": 20_000, "norm_k": 52, "norm_r": 500,
             "csv_rows": 1_000_000, "csv_k": (100, 100_000, 100), "setup_reps": 3},
    "toy": {"sim_n": 200, "sim_r": 6, "sim_k": (20, 100, 10),
            "norm_n": 2000, "norm_k": 20, "norm_r": 10,
            "csv_rows": 5000, "csv_k": (10, 1000, 10), "setup_reps": 1},
}
SIM_ESTIMATORS = ("efg", "worms", "mns")
KERNELS = ("biweight", "triweight")
# censtail estimate's default columns, p_hat always first
CSV_COLUMNS = ("p_hat", "hill", "efg", "worms", "mns") + tuple("kernel_" + k for k in KERNELS)
TOL = 1e-12  # the acceptance gate for estimator identities, absolute
MIN_CALLS = 3
ARRAY_BYTES_PER_ROW = 41  # z, logz, delta as float, NA and KM at each row: 8 B; delta: 1 B

END_TO_END = {"wall_s": "s", "work_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "samples.read_csv_s": "s", "samples.read_csv_rows_per_s": "1/s",
    "samples.sort_s": "s", "samples.render_csv_s": "s",
    "models.sample_censored_s": "s", "survival.curves_s": "s",
    "estimators.estimate_path_s": "s", "estimators.kpath_s": "s",
    "estimators.cells": "count", "estimators.cells_undefined": "count",
    "estimators.ns_per_term": "ns", "kernels.asymptotic_variance_s": "s",
    "simulate.self_s": "s", "simulate.parallel_efficiency": "ratio",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name, ok):
        self.items.append((name, bool(ok)))

    @property
    def failed(self):
        return [name for name, ok in self.items if not ok]


def _same(actual, expected):
    """Equal cell by cell; floats within TOL, None only against None."""
    if len(actual) != len(expected):
        return False
    for a, e in zip(actual, expected):
        if isinstance(e, float):
            if a is None or not abs(a - e) <= TOL:
                return False
        elif a != e:
            return False
    return True


def _float_or_none(text):
    return None if text == "" else float(text)


def _nproc():
    return len(os.sched_getaffinity(0))


def _read_and_remove(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    os.unlink(path)
    return data


def _tie_share(z_sorted):
    """Share of rows whose value occurs more than once."""
    if z_sorted.size < 2:
        return 0.0
    eq = z_sorted[1:] == z_sorted[:-1]
    tied = np.zeros(z_sorted.size, dtype=bool)
    tied[1:] |= eq
    tied[:-1] |= eq
    return float(tied.mean())


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def replay(tracer, model, n, replications, seed, k_values, estimators, kernels):
    """Re-run each replication through the public pipeline under spans.

    run_simulation cannot be split from outside, so this repeats its
    per-replication calls; returns (cells, undefined cells, sum of k).
    """
    from censtail import (RngStream, builtin_kernel, estimate_path, sample_censored,
                          sort_with_concomitants)

    kerns = tuple(builtin_kernel(name) for name in kernels)
    cells = undefined = sum_k = 0
    for r in range(1, replications + 1):
        with tracer.span("models.sample_censored"):
            raw = sample_censored(model, n, RngStream(seed, r))
        with tracer.span("samples.sort"):
            sample = sort_with_concomitants(raw)
        with tracer.span("estimators.estimate_path"):
            result = estimate_path(sample, k_values, estimators=estimators, kernels=kerns)
        replay_curves(tracer, sample)
        c, u, s = path_counts(result)
        cells, undefined, sum_k = cells + c, undefined + u, sum_k + s
    return cells, undefined, sum_k


def replay_curves(tracer, sample):
    """The two survival evaluations estimate_path makes on a sorted sample."""
    from censtail import kaplan_meier_curve, nelson_aalen_curve

    with tracer.span("survival.curves"):
        nelson_aalen_curve(sample).survival(sample.z)
        kaplan_meier_curve(sample).survival(sample.z)


def path_counts(result):
    columns = list(result.estimates.values())
    cells = sum(len(col) for col in columns)
    undefined = sum(v is None for col in columns for v in col)
    sum_k = sum(result.k_values) * len(columns)
    return cells, undefined, sum_k


class Simulate:
    """``censtail simulate`` on the desk-scale Burr/Frechet experiment."""

    def __init__(self, size, workers):
        self.n, self.replications = size["sim_n"], size["sim_r"]
        k_min, k_max, k_step = size["sim_k"]
        self.k_values = tuple(range(k_min, k_max + 1, k_step))
        self.workers = workers
        self.work = self.replications

    def config_doc(self, seed, workers):
        return {
            "schema": "censtail-sim-config/1",
            "model": {"loss": {"family": "burr", "gamma1": 0.4, "eta": 0.25},
                      "censor": {"family": "frechet", "gamma2": 3.6}},
            "n": self.n,
            "replications": self.replications,
            "k_values": list(self.k_values),
            "estimators": list(SIM_ESTIMATORS),
            "kernels": list(KERNELS),
            "master_seed": seed,
            "workers": workers,
        }

    def setup(self, tmp, seed):
        self.seed, self.tmp = seed, tmp
        self.config = os.path.join(tmp, "config.json")
        self.output = os.path.join(tmp, "result.csv")  # a .json output would overwrite the CSV
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(self.config_doc(seed, self.workers), fh)

    def _run(self, config):
        from censtail import cli

        rc = _quiet(cli.main, ["simulate", "--config", config, "--output", self.output])
        json_path = os.path.splitext(self.output)[0] + ".json"
        return rc, {"csv": _read_and_remove(self.output), "json": _read_and_remove(json_path)}

    def call(self):
        return self._run(self.config)

    def traced_call(self, tracer):
        from censtail import Burr, Frechet, ModelSpec, cli

        tracer.wrap(cli, "run_simulation", "simulate.run")
        tracer.wrap(cli, "render_csv", "samples.render_csv")
        try:
            with tracer.span("cli.main"):
                out = self._run(self.config)
        finally:
            tracer.unwrap()
        model = ModelSpec(loss=Burr(0.4, 0.25), censor=Frechet(3.6))
        counts = replay(tracer, model, self.n, self.replications, self.seed,
                        self.k_values, SIM_ESTIMATORS, KERNELS)
        return out, counts

    def expected_rows(self):
        cells = oracle.simulation(self.seed, self.n, self.replications, self.k_values,
                                  SIM_ESTIMATORS, KERNELS)
        return [(name, k, *cells[name][j])
                for name in cells for j, k in enumerate(self.k_values)]

    def check(self, runs, checks):
        expected = self.expected_rows()
        first = runs[0][1]
        for i, (rc, out) in enumerate(runs):
            checks.add("exit code 0", rc == 0)
            written = out["csv"] is not None and out["json"] is not None
            checks.add("CSV and JSON written", written)
            if not written:
                continue
            if i == 0:
                checks.add("CSV matches reference", self._csv_matches(out["csv"], expected))
                checks.add("JSON matches reference", self._json_matches(out["json"], expected))
            else:
                checks.add("CSV identical across calls", out["csv"] == first["csv"])
                checks.add("JSON identical across calls",
                           _untimed_json(out["json"]) == _untimed_json(first["json"]))
        if self.workers > 1:
            serial = os.path.join(self.tmp, "serial.json")
            with open(serial, "w", encoding="utf-8") as fh:
                json.dump(self.config_doc(self.seed, 1), fh)
            rc, out = self._run(serial)
            checks.add("CSV byte-identical to one worker",
                       rc == 0 and out["csv"] is not None and out["csv"] == first["csv"])

    def _csv_matches(self, data, expected):
        lines = data.decode("utf-8").splitlines()
        header = "estimator,k,mean,bias,mse,defined_count"
        if lines[:1] != [header] or len(lines) != len(expected) + 1:
            return False
        try:
            rows = [(name, int(k), *map(_float_or_none, floats), int(count))
                    for name, k, *floats, count in (line.split(",") for line in lines[1:])]
        except ValueError:
            return False
        return all(_same(row, exp) for row, exp in zip(rows, expected))

    def _json_matches(self, data, expected):
        doc = _untimed_json(data)
        if doc.get("schema") != "censtail-sim-result/1":
            return False
        if doc.get("config") != self.config_doc(self.seed, self.workers):
            return False
        rows = doc.get("results", [])
        fields = ("estimator", "k", "mean", "bias", "mse", "defined_count")
        return len(rows) == len(expected) and all(
            _same(tuple(row[f] for f in fields), exp) for row, exp in zip(rows, expected))

    def properties(self):
        samples = [oracle.order(*oracle.draw(self.seed, r, self.n, True))
                   for r in range(1, min(self.replications, 10) + 1)]
        k_max = self.k_values[-1]
        return {
            "tie_share": statistics.fmean(_tie_share(z) for z, _ in samples),
            "tie_share_top_kmax": statistics.fmean(_tie_share(z[-k_max - 1:]) for z, _ in samples),
            "censored_share": statistics.fmean(float(1 - d.mean()) for _, d in samples),
            "csv_bytes": 0,
            "computed_array_bytes": self.n * ARRAY_BYTES_PER_ROW,
        }


def _untimed_json(data):
    """The result document without runtime_seconds, the one field that
    varies between runs; {} when it is not a JSON object."""
    try:
        doc = json.loads(data)
    except ValueError:
        return {}
    if not isinstance(doc, dict):
        return {}
    doc.pop("runtime_seconds", None)
    return doc


class Normality:
    """``normality_check`` on Pareto(1) complete data at one small k."""

    def __init__(self, size):
        self.n, self.k, self.replications = size["norm_n"], size["norm_k"], size["norm_r"]
        self.work = self.replications
        self.workers = 1

    def setup(self, tmp, seed):
        self.seed = seed

    def call(self):
        from censtail import ModelSpec, Pareto, normality_check

        return 0, normality_check(ModelSpec(loss=Pareto(1.0)), self.n, self.k,
                                  self.replications, "biweight", master_seed=self.seed)

    def traced_call(self, tracer):
        from censtail import ModelSpec, Pareto, simulate

        tracer.wrap(simulate, "asymptotic_variance", "kernels.asymptotic_variance")
        try:
            with tracer.span("simulate.run"):
                out = self.call()
        finally:
            tracer.unwrap()
        counts = replay(tracer, ModelSpec(loss=Pareto(1.0)), self.n, self.replications,
                        self.seed, (self.k,), (), ("biweight",))
        return out, counts

    def check(self, runs, checks):
        expected = oracle.normality(self.seed, self.n, self.k, self.replications, "biweight")
        for rc, report in runs:
            checks.add("report returned", rc == 0 and report is not None)
            actual = tuple(getattr(report, f, None) for f in expected)
            checks.add("report matches reference", _same(actual, tuple(expected.values())))

    def properties(self):
        samples = [np.sort(oracle.draw(self.seed, r, self.n, False)[0])
                   for r in range(1, min(self.replications, 10) + 1)]
        return {
            "tie_share": statistics.fmean(_tie_share(z) for z in samples),
            "tie_share_top_kmax": statistics.fmean(_tie_share(z[-self.k - 1:]) for z in samples),
            "censored_share": 0.0,
            "csv_bytes": 0,
            "computed_array_bytes": self.n * ARRAY_BYTES_PER_ROW,
        }


class EstimateCsv:
    """``censtail estimate`` on a generated value,delta CSV."""

    def __init__(self, size):
        self.rows = size["csv_rows"]
        k_min, k_max, k_step = size["csv_k"]
        self.k_args = ["--k-min", str(k_min), "--k-max", str(k_max), "--k-step", str(k_step)]
        self.k_values = tuple(range(k_min, k_max + 1, k_step))
        self.work = self.rows
        self.workers = 1

    def setup(self, tmp, seed):
        self.seed = seed
        self.input = os.path.join(tmp, "sample.csv")
        self.output = os.path.join(tmp, "path.csv")
        z, delta = oracle.draw(seed, 0, self.rows, True)
        chunk = 100_000  # bounded memory, so set-up does not raise the peak RSS
        with open(self.input, "w", encoding="utf-8", newline="") as fh:
            fh.write("value,delta\n")
            for start in range(0, self.rows, chunk):
                fh.write("".join(f"{v:.6g},{d}\n" for v, d in zip(
                    z[start:start + chunk].tolist(), delta[start:start + chunk].tolist())))

    def call(self):
        from censtail import cli

        rc = _quiet(cli.main, ["estimate", "--input", self.input, "--output", self.output,
                               *self.k_args])
        return rc, _read_and_remove(self.output)

    def traced_call(self, tracer):
        from censtail import cli

        for attr, name in (("read_csv", "samples.read_csv"),
                           ("sort_with_concomitants", "samples.sort"),
                           ("estimate_path", "estimators.estimate_path"),
                           ("render_csv", "samples.render_csv")):
            tracer.wrap(cli, attr, name)
        try:
            with tracer.span("cli.main"):
                out = self.call()
        finally:
            tracer.unwrap()
        replay_curves(tracer, tracer.results["samples.sort"])
        return out, path_counts(tracer.results["estimators.estimate_path"])

    @functools.cached_property
    def sorted_input(self):
        """The generated sample as the CSV holds it, sorted by the reference."""
        data = np.loadtxt(self.input, delimiter=",", skiprows=1)
        return oracle.order(data[:, 0], data[:, 1].astype(np.int8))

    def check(self, runs, checks):
        z, delta = self.sorted_input
        cols = oracle.path(z, delta, self.k_values, CSV_COLUMNS[:5], KERNELS)
        expected = [(k, *(cols[c][j] for c in CSV_COLUMNS)) for j, k in enumerate(self.k_values)]
        first = runs[0][1]
        for i, (rc, out) in enumerate(runs):
            checks.add("exit code 0", rc == 0)
            checks.add("CSV written", out is not None)
            if out is None:
                continue
            if i == 0:
                checks.add("cells and empty pattern match reference",
                           self._matches(out, expected))
            else:
                checks.add("CSV identical across calls", out == first)

    def _matches(self, data, expected):
        lines = data.decode("utf-8").splitlines()
        if lines[:1] != [",".join(("k",) + CSV_COLUMNS)] or len(lines) != len(expected) + 1:
            return False
        try:
            rows = [(int(k), *map(_float_or_none, cells))
                    for k, *cells in (line.split(",") for line in lines[1:])]
        except ValueError:
            return False
        return all(_same(row, exp) for row, exp in zip(rows, expected))

    def properties(self):
        z, delta = self.sorted_input
        k_max = self.k_values[-1]
        return {
            "tie_share": _tie_share(z),
            "tie_share_top_kmax": _tie_share(z[-k_max - 1:]),
            "censored_share": float(1 - delta.mean()),
            "csv_bytes": os.path.getsize(self.input),
            "computed_array_bytes": self.rows * ARRAY_BYTES_PER_ROW,
        }


def make_workload(name, size):
    sizes = SIZES[size]
    if name == "sim_desk":
        return Simulate(sizes, workers=1)
    if name == "sim_parallel":
        return Simulate(sizes, workers=min(2, _nproc()))
    if name == "normality_tail":
        return Normality(sizes)
    return EstimateCsv(sizes)


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _import_censtail():
    """Import censtail in a fresh interpreter, as every CLI run does."""
    code = "import sys; sys.path.insert(0, %r); import censtail" % str(SRC)
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]] if values else [0.0, 0.0]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def _llc_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed):
    import scipy

    return {"git_commit": _git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "nproc": _nproc(),
            "cpu_model": _cpu_model(), "llc_bytes": _llc_bytes(), "seed": seed}


def layer_metrics(tracers, counts, overheads, workers):
    """Per-layer metrics as medians over the traced calls."""
    per_call = []
    for tracer, (cells, undefined, sum_k) in zip(tracers, counts):
        t = tracer.total
        curves, est = t("survival.curves"), t("estimators.estimate_path")
        serial = t("models.sample_censored") + t("samples.sort") + est
        sim = t("simulate.run") - t("kernels.asymptotic_variance")
        read = t("samples.read_csv")
        rows = tracer.results["samples.read_csv"].n if read else 0
        per_call.append({
            "samples.read_csv_s": read,
            "samples.read_csv_rows_per_s": rows / read if read else 0.0,
            "samples.sort_s": t("samples.sort"),
            "samples.render_csv_s": t("samples.render_csv"),
            "models.sample_censored_s": t("models.sample_censored"),
            "survival.curves_s": curves,
            "estimators.estimate_path_s": est,
            "estimators.kpath_s": est - curves,  # derived: curves replayed separately
            "estimators.cells": cells,
            "estimators.cells_undefined": undefined,
            "estimators.ns_per_term": (est - curves) * 1e9 / sum_k if sum_k else 0.0,
            "kernels.asymptotic_variance_s": t("kernels.asymptotic_variance"),
            "simulate.self_s": sim - serial / workers if sim else 0.0,
            "simulate.parallel_efficiency": serial / (workers * sim) if sim else 0.0,
            "cli.self_s": tracer.self_times().get("cli.main", 0.0),
        })
    metrics = {name: _median([call[name] for call in per_call]) for name in per_call[0]}
    metrics["trace.overhead_s"] = _median(overheads)
    return metrics


def self_time_layers(metrics):
    """Self seconds per layer, for naming the largest one."""
    return {name: metrics[name] for name in (
        "samples.read_csv_s", "samples.sort_s", "samples.render_csv_s",
        "models.sample_censored_s", "survival.curves_s", "estimators.kpath_s",
        "kernels.asymptotic_variance_s", "simulate.self_s", "cli.self_s")}


def measure(fn, probe):
    """Run fn; returns (its result, wall s, scaled wall s, scaled CPU s)."""
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    with probe.sampling():
        result = fn()
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    wall_factor, cpu_factor = probe.factors()
    return result, wall, wall * wall_factor, cpu * cpu_factor


def execute(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns (result line dict, details dict)."""
    wl = make_workload(workload, size)
    probe = SpeedProbe()
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_PARENT)
    try:
        setup_times = []
        for _ in range(SIZES[size]["setup_reps"]):
            setup_times.append(
                measure(lambda: (_import_censtail(), wl.setup(tmp, seed)), probe)[2])

        warm = make_workload(workload, "toy")  # lazy imports and first-call costs
        warm_dir = os.path.join(tmp, "warm")
        os.mkdir(warm_dir)
        warm.setup(warm_dir, seed)
        warm.call()

        walls, scaled, cpus, runs, tracers, counts, overheads = [], [], [], [], [], [], []
        started, iteration = time.perf_counter(), 0.0
        # stop before an iteration that would end past the time budget
        while (len(walls) < (1 if trace else MIN_CALLS)
               or time.perf_counter() - started + iteration <= seconds):
            t0 = time.perf_counter()
            out, wall, wall_scaled, cpu = measure(wl.call, probe)
            runs.append(out)
            walls.append(wall)
            scaled.append(wall_scaled)
            cpus.append(cpu)
            if trace:
                tracer = Tracer()
                (out, count), *_ = measure(lambda: wl.traced_call(tracer), probe)
                tracer.scale(probe.wall_factor_between)
                runs.append(out)
                tracers.append(tracer)
                counts.append(count)
                # the first span is the traced cli.main or simulate.run call
                overheads.append(tracer.durations[0] - wall_scaled)
            iteration = time.perf_counter() - t0
        peak_rss = _peak_rss_mb()

        checks = Checks()
        wl.check(runs, checks)
        if trace:
            metrics, units = layer_metrics(tracers, counts, overheads, wl.workers), PER_LAYER
        else:
            wall = _median(scaled)
            metrics = {"wall_s": wall, "work_per_s": wl.work / wall,
                       "cpu_s": _median(cpus),
                       "peak_rss_mb": peak_rss, "setup_s": _median(setup_times)}
            units = END_TO_END
        details = {
            "workload": workload, "size": size, "seconds": seconds, "trace": trace,
            "environment": environment(seed), "inputs": wl.properties(),
            "work_per_call": wl.work, "workers": wl.workers, "calls": len(walls),
            "wall_s_quartiles": _quartiles(scaled),
            "raw_wall_s": _median(walls), "raw_wall_s_quartiles": _quartiles(walls),
            "setup_s_samples": setup_times,
            "failed_checks": checks.failed,
        }
        if trace:
            layers = self_time_layers(metrics)
            details["self_time_s"] = layers
            details["largest_self_layer"] = max(layers, key=layers.get)
        result = {
            "correct": not checks.failed,
            "attempted": len(checks.items),
            "failed": len(checks.failed),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        return result, details
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()


def load_censtail():
    """Import censtail from this checkout's source tree, never from elsewhere."""
    if not (SRC / "censtail" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'censtail'} not found; run from a censtail checkout")
    sys.path.insert(0, str(SRC))
    import censtail

    if Path(censtail.__file__).resolve().parent != (SRC / "censtail").resolve():
        raise SystemExit(f"error: imported censtail from {censtail.__file__}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    # The variable silently overrides the configured worker count, unbounded.
    os.environ.pop(WORKERS_ENV_VAR, None)
    load_censtail()
    result, details = execute(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
