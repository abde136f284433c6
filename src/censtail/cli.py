"""Command-line front door: estimate from CSV, run simulations, kernel tools.

Exit codes: 0 success, 1 usage or configuration error (``UsageError``),
2 data error (``DataError``, or an ``OSError`` on an input, configuration or
output path), 3 internal error.  No output file is written on an error path.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import stat
import sys
import tempfile
import warnings

from .errors import ConfigError, DataError, UsageError
from .estimators import ESTIMATOR_NAMES, _columns, _k_grid, estimate_path
from .kernels import (
    BUILTIN_KERNEL_NAMES,
    MomentSpec,
    asymptotic_bias,
    asymptotic_variance,
    builtin_kernel,
    check_kernel_axioms,
)
from .samples import read_csv, render_csv, sort_with_concomitants
from .simulate import SimulationConfig, run_simulation

WORKERS_ENV_VAR = "CENS_TAIL_THREADS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="censtail",
        description="Tail-index estimation for right-censored heavy-tailed data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate tail indices from a CSV sample")
    est.add_argument("--input", required=True, help="value,delta CSV file")
    est.add_argument("--output", required=True, help="destination CSV path")
    est.add_argument("--k", type=int, help="single number of top order statistics")
    est.add_argument("--k-min", type=int, help="start of a k grid")
    est.add_argument("--k-max", type=int, help="end of a k grid (inclusive)")
    est.add_argument("--k-step", type=int, default=1, help="k grid step (default 1)")
    est.add_argument(
        "--estimators",
        default="hill,efg,worms,mns",
        help=f"comma list from {{{','.join(ESTIMATOR_NAMES)}}}",
    )
    est.add_argument(
        "--kernels",
        default="biweight,triweight",
        help=f"comma list from {{{','.join(BUILTIN_KERNEL_NAMES)}}}; empty to skip",
    )
    est.add_argument(
        "--header",
        choices=("auto", "present", "absent"),
        default="auto",
        help="whether the input file starts with a header line",
    )

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("--config", required=True, help="JSON configuration file")
    sim.add_argument("--output", required=True, help="destination CSV path; a JSON "
                     "result document is written next to it")
    sim.add_argument("--seed", type=int, help="override the configured master seed")

    mom = sub.add_parser("moments", help="print asymptotic moments of a kernel")
    mom.add_argument("--kernels", default="indicator,biweight,triweight",
                     help="comma list of kernels")
    mom.add_argument("--p", type=float, required=True,
                     help="upper uncensored proportion, must exceed 1/2")
    mom.add_argument("--gamma1", type=float, required=True, help="tail index")
    mom.add_argument("--tau1", type=float, default=0.0,
                     help="second-order parameter, <= 0")
    mom.add_argument("--lam", type=float, default=0.0,
                     help="second-order bias scale")

    chk = sub.add_parser("check-kernels", help="verify the kernel axioms")
    chk.add_argument("--kernels", default=",".join(BUILTIN_KERNEL_NAMES),
                     help="comma list of kernels")
    return parser


def _split_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _k_values(args):
    if args.k is not None:
        if args.k_min is not None or args.k_max is not None:
            raise UsageError("--k and --k-min/--k-max are mutually exclusive")
        return [args.k]
    if args.k_min is None or args.k_max is None:
        raise UsageError("either --k or both --k-min and --k-max are required")
    if args.k_step < 1:
        raise UsageError("--k-step must be >= 1")
    if args.k_max < args.k_min:
        raise UsageError("--k-max must be >= --k-min")
    return range(args.k_min, args.k_max + 1, args.k_step)


@contextlib.contextmanager
def _naming(path):
    """Re-raise an OSError as one on ``path``, the output path as given, not
    on the temp file or the resolved target it may name."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _write_atomic(outputs):
    """Write each (path, text) pair through a temp file next to the path's
    target, then rename them all into place, so a failure never leaves an
    output behind.

    A symlink is written through to its target, as a plain ``open()`` would
    write it.  An existing path that is not a regular file, such as a
    directory, a FIFO or a device, is refused before any rename and never
    opened.  Outputs get the mode a plain ``open()`` would give them (0o666
    less the umask), not the 0o600 of the temp file.
    """
    umask = os.umask(0)
    os.umask(umask)
    targets = [os.path.realpath(path) for path, _ in outputs]
    temps, done = [], []
    try:
        for (path, text), target in zip(outputs, targets):
            with _naming(path):
                try:
                    mode = os.stat(target).st_mode
                except FileNotFoundError:
                    mode = stat.S_IFREG
                if stat.S_ISDIR(mode):
                    raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
                if not stat.S_ISREG(mode):
                    raise OSError(errno.EEXIST, "exists and is not a regular file")
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
                temps.append(tmp)
                with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                os.chmod(tmp, 0o666 & ~umask)
        for tmp, (path, _), target in zip(temps, outputs, targets):
            with _naming(path):
                os.replace(tmp, target)
            done.append(target)
    except BaseException:
        for name in temps[len(done):] + done:
            if os.path.exists(name):
                os.unlink(name)
        raise


def _cmd_estimate(args):
    header = {"auto": None, "present": True, "absent": False}[args.header]
    estimators = _split_list(args.estimators)
    if "p_hat" not in estimators:
        estimators = ["p_hat"] + estimators
    kernels = [builtin_kernel(name) for name in _split_list(args.kernels)]
    _columns(estimators, [kern.name for kern in kernels])
    k_values = _k_values(args)
    # every argument is checked before the input is read, and k against the
    # full n after it: a k_max below 1 keeps one row, then fails that check
    rows = read_csv(args.input, header=header, top=max(k_values[-1], 0) + 1)
    k_values = _k_grid(k_values, rows.n)  # the full n, which the top rows no longer have
    path = estimate_path(sort_with_concomitants(rows.sample), k_values, estimators, kernels)
    _write_atomic([(args.output, render_csv(path.to_table()))])
    return 0


def _cmd_simulate(args):
    stem, ext = os.path.splitext(args.output)
    if ext.lower() == ".json":
        raise UsageError("--output must not end in .json: the JSON result "
                         "document is written next to the CSV")
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError too
            raise ConfigError(f"invalid JSON in {args.config}: {exc}") from None
    config = SimulationConfig.from_json_dict(doc)
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    env_workers = os.environ.get(WORKERS_ENV_VAR)
    if env_workers:
        try:
            workers = int(env_workers)
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env_workers!r}"
            ) from None
        config = dataclasses.replace(config, workers=workers)
    with warnings.catch_warnings():
        # a model draw that overflows fails the run with its own error line
        warnings.filterwarnings("ignore", "overflow", RuntimeWarning, r"censtail\.models")
        result = run_simulation(config)
    json_path = stem + ".json"
    json_text = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_atomic([(args.output, render_csv(result.to_table())), (json_path, json_text)])
    print(f"wrote {args.output} and {json_path}")
    return 0


def _cmd_moments(args):
    spec = MomentSpec(gamma1=args.gamma1, p=args.p, tau1=args.tau1, lam=args.lam)
    for name in _split_list(args.kernels):
        kernel = builtin_kernel(name)
        mu = asymptotic_bias(kernel, spec)
        sigma2 = asymptotic_variance(kernel, spec)
        print(f"{kernel.name}: mu_K = {mu:.12g}, sigma2_K = {sigma2:.12g}")
    return 0


def _cmd_check_kernels(args):
    all_passed = True
    for name in _split_list(args.kernels):
        report = check_kernel_axioms(builtin_kernel(name))
        verdicts = (
            f"monotone={'pass' if report.monotone else 'FAIL'} "
            f"support={'pass' if report.support_ok else 'FAIL'} "
            f"integral={report.integral:.12f}"
            f"({'pass' if report.integrates_to_one else 'FAIL'}) "
            f"bounded={'pass' if report.bounded else 'FAIL'}"
        )
        print(f"{report.kernel_name}: {verdicts}")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 2


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "moments": _cmd_moments,
    "check-kernels": _cmd_check_kernels,
}


def _fail(code, exc, label="error"):
    """Print ``exc`` to stderr as one line, even where the message holds a
    line break from an argument, and return ``code``."""
    print(f"{label}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
    return code


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        return _fail(1, exc)
    except (DataError, OSError) as exc:  # OSError: an input, config or output path
        return _fail(2, exc)
    except Exception as exc:  # pragma: no cover - safety net
        return _fail(3, exc, "internal error")


if __name__ == "__main__":
    sys.exit(main())
