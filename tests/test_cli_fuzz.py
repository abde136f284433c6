"""Fuzz of the command-line exit-code contract.

Whatever the request, ``censtail`` exits 0, 1 (usage or configuration
error) or 2 (data error), never 3; a failure prints exactly one line, which
starts with ``error:``; and no output or temp file is left behind.  That
holds for odd input, config and output paths too, and every error class is
of exactly one of the two kinds the exit codes are mapped from.
"""

import contextlib
import inspect
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from censtail import errors
from censtail.cli import main

HUGE = (10**15, -(10**15), 10**400)

# every JSON type, and integers past any valid bound
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.floats(),
    st.integers(),
    st.sampled_from(HUGE),
    st.lists(st.one_of(st.integers(-3, 70), st.text(max_size=4), st.none()), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 70), max_size=2),
)


def _bounded(lo, hi):
    """Junk of every type but an integer, or an integer within [lo, hi]."""
    return st.one_of(JUNK.filter(lambda v: not isinstance(v, int) or isinstance(v, bool)),
                     st.integers(lo, hi))


# a field path and what may replace it: junk, or a value that may be valid;
# the bounds keep a valid run small, and one worker keeps the process pool out
POSITIVE = st.floats(min_value=0.01, max_value=10.0)
FIELDS = {
    "schema": st.one_of(JUNK, st.just("censtail-sim-config/1")),
    "model": JUNK,
    "model.loss": JUNK,
    "model.loss.family": st.one_of(JUNK, st.sampled_from(["burr", "pareto", "frechet"])),
    "model.loss.gamma1": st.one_of(JUNK, POSITIVE),
    "model.loss.eta": st.one_of(JUNK, POSITIVE),
    "model.censor": JUNK,
    "model.censor.family": st.one_of(JUNK, st.sampled_from(["frechet", "burr"])),
    "model.censor.gamma2": st.one_of(JUNK, POSITIVE),
    "n": _bounded(-2, 60),
    "replications": _bounded(-2, 3),
    "k_values": st.one_of(JUNK, st.lists(st.one_of(st.integers(-3, 70),
                                                   st.sampled_from(HUGE)), max_size=4)),
    "k_grid": JUNK,
    "k_grid.min": st.one_of(JUNK, st.integers(-3, 70)),
    "k_grid.max": st.one_of(JUNK, st.integers(-3, 70)),
    "k_grid.step": st.one_of(JUNK, st.integers(-3, 70)),
    "estimators": st.one_of(JUNK, st.lists(st.sampled_from(["hill", "mns", "efg", "x"]),
                                           max_size=3)),
    "kernels": st.one_of(JUNK, st.lists(st.sampled_from(["biweight", "k2", "triweight",
                                                         "indicator", "x"]), max_size=3)),
    "master_seed": st.one_of(JUNK, st.integers(0, 2**64)),
    "workers": _bounded(-2, 1),
}

BASE_CONFIG = {
    "model": {"loss": {"family": "burr", "gamma1": 0.4, "eta": 0.25},
              "censor": {"family": "frechet", "gamma2": 3.6}},
    "n": 40,
    "replications": 2,
}


def _run(argv):
    """The exit code of ``main(argv)`` and the stderr a process would show,
    warnings included: pytest records them instead of printing them."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n"
                                          for w in caught)


def _check(code, err, directory, inputs, outputs):
    assert code in (0, 1, 2), err
    left = sorted(set(os.listdir(directory)) - set(inputs))
    if code == 0:
        assert left == sorted(outputs)
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert left == [], left


@st.composite
def config_documents(draw):
    doc = json.loads(json.dumps(BASE_CONFIG))
    if draw(st.booleans()):
        doc["k_values"] = [2, 5, 10]
    else:
        doc["k_grid"] = {"min": 2, "max": 20, "step": 3}
    for path in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=3, unique=True)):
        *parents, leaf = path.split(".")
        node = doc
        for part in parents:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[leaf] = draw(FIELDS[path])
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=config_documents())
def test_simulate_exit_codes(doc, monkeypatch):
    monkeypatch.delenv("CENS_TAIL_THREADS", raising=False)
    with tempfile.TemporaryDirectory() as directory:
        config = os.path.join(directory, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, err = _run(["simulate", "--config", config,
                          "--output", os.path.join(directory, "out.csv")])
        _check(code, err, directory, ["config.json"], ["out.csv", "out.json"])


_NUMBER = st.one_of(st.integers(1, 5), st.integers(-3, 12), st.sampled_from(HUGE)).map(str)
_K_OPTIONS = st.one_of(
    st.tuples(st.just("--k"), _NUMBER),
    st.tuples(st.just("--k-min"), _NUMBER, st.just("--k-max"), _NUMBER),
    st.tuples(st.just("--k-min"), _NUMBER, st.just("--k-max"), _NUMBER,
              st.just("--k-step"), _NUMBER),
)
_OPTIONS = ["--k", "--k-min", "--k-max", "--k-step", "--estimators", "--kernels",
            "--header", "--input", "--output", "--unknown"]
_VALUES = st.one_of(
    _NUMBER,
    st.text(max_size=6),
    st.sampled_from(["hill,efg", "mns,mns", "", "biweight,k2", "k2,x", "present",
                     "absent", "auto", "1e3", "nan", "a\nb"]),
)
_VALUE = st.one_of(st.floats(min_value=0.1, max_value=1e3).map(repr), st.floats().map(repr),
                   st.sampled_from(["", "x", "0", "1e-320", "1_0", "\"1\"", "\x00", "\ufeff1"]))
_DELTA = st.one_of(st.sampled_from(["0", "1"]), st.sampled_from(["", "2", "1.0", "x"]))
_ROWS = st.lists(st.one_of(st.tuples(_VALUE, _DELTA), st.lists(_VALUE, max_size=3)),
                 max_size=12)
_INPUTS = st.one_of(
    st.sampled_from([b"value,delta\n3.5,1\n1.2,0\n2.0,1\n8.1,1\n2.0,0\n5.7,0\n",
                     b"1,1\r\n2,0\r\n2,0\r\n4,1\r\n3,1\r\n", b"\xff\xfe1,1\n2,0\n"]),
    _ROWS.map(lambda rows: "".join(",".join(row) + "\n" for row in rows).encode()),
    st.binary(max_size=40),
)


@settings(max_examples=250, deadline=None)
@given(k_options=_K_OPTIONS,
       options=st.lists(st.tuples(st.sampled_from(_OPTIONS), _VALUES), max_size=2),
       content=_INPUTS)
def test_estimate_exit_codes(k_options, options, content):
    with tempfile.TemporaryDirectory() as directory:
        data = os.path.join(directory, "in.csv")
        out = os.path.join(directory, "out.csv")
        with open(data, "wb") as fh:
            fh.write(content)
        argv = ["estimate", "--input", data, "--output", out, *k_options]
        for option, value in options:
            argv += [option, {"--input": data, "--output": out}.get(option, value)]
        code, err = _run(argv)
        _check(code, err, directory, ["in.csv"], ["out.csv"])


# odd paths for --input, --config and --output; a FIFO is left out, as
# opening one for reading blocks
ODD_PATHS = ["missing-directory", "file-as-directory", "directory", "long-name",
             "symlink", "dangling-symlink"]


def _odd_path(directory, name, kind, real):
    """Make a path of ``kind`` named after ``name`` in ``directory`` and
    return it.  ``real`` is the regular file that a symlink points to or
    that stands in for a directory."""
    if kind == "missing-directory":
        return os.path.join(directory, "missing", "x.csv")
    if kind == "file-as-directory":
        return os.path.join(real, "x.csv")
    if kind == "long-name":
        return os.path.join(directory, "a" * 300)
    path = os.path.join(directory, f"{name}-{kind}")
    if kind == "directory":
        os.mkdir(path)
    else:
        os.symlink(real if kind == "symlink" else os.path.join(directory, "nowhere"), path)
    return path


def _written(directory, paths):
    """The names that writing each of ``paths`` with a plain ``open()`` would
    add to ``directory``: a symlink is written through to its target."""
    return sorted({os.path.basename(os.path.realpath(path)) for path in paths}
                  - set(os.listdir(directory)))


def _with_odd_paths(directory, argv, kinds):
    """``argv`` with each option in ``kinds`` given an odd path of that kind;
    the real file behind an odd --output is a pre-existing ``target.csv``."""
    argv = list(argv)
    with open(os.path.join(directory, "target.csv"), "w", encoding="utf-8") as fh:
        fh.write("old\n")
    for option, kind in kinds.items():
        if kind is not None:
            at = argv.index(option) + 1
            real = argv[at] if option != "--output" else os.path.join(directory, "target.csv")
            argv[at] = _odd_path(directory, option.lstrip("-"), kind, real)
    return argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=config_documents(),
       config_kind=st.sampled_from([None, *ODD_PATHS]),
       output_kind=st.sampled_from([None, *ODD_PATHS]))
def test_simulate_path_exit_codes(doc, config_kind, output_kind, monkeypatch):
    monkeypatch.delenv("CENS_TAIL_THREADS", raising=False)
    with tempfile.TemporaryDirectory() as directory:
        config = os.path.join(directory, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = _with_odd_paths(directory, ["simulate", "--config", config, "--output",
                                           os.path.join(directory, "out.csv")],
                               {"--config": config_kind, "--output": output_kind})
        out = argv[-1]
        outputs = _written(directory, [out, os.path.splitext(out)[0] + ".json"])
        inputs = os.listdir(directory)
        code, err = _run(argv)
        _check(code, err, directory, inputs, outputs)


@settings(max_examples=60, deadline=None)
@given(k_options=_K_OPTIONS, content=_INPUTS,
       input_kind=st.sampled_from([None, *ODD_PATHS]),
       output_kind=st.sampled_from([None, *ODD_PATHS]))
def test_estimate_path_exit_codes(k_options, content, input_kind, output_kind):
    with tempfile.TemporaryDirectory() as directory:
        data = os.path.join(directory, "in.csv")
        with open(data, "wb") as fh:
            fh.write(content)
        argv = _with_odd_paths(directory, ["estimate", "--input", data, "--output",
                                           os.path.join(directory, "out.csv"), *k_options],
                               {"--input": input_kind, "--output": output_kind})
        outputs = _written(directory, [argv[argv.index("--output") + 1]])
        inputs = os.listdir(directory)
        code, err = _run(argv)
        _check(code, err, directory, inputs, outputs)


def test_every_error_is_of_exactly_one_kind():
    kinds = (errors.UsageError, errors.DataError)
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls not in (errors.CensTailError, *kinds)]
    assert len(classes) >= 14
    for cls in classes:
        assert sum(issubclass(cls, kind) for kind in kinds) == 1, cls.__name__
