import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from censtail import CensoredSample, sort_with_concomitants


def make_censored(rng, n=None, censor_prob=0.3, allow_ties=False):
    """Random right-censored sample with a heavy-tailed value column."""
    if n is None:
        n = int(rng.integers(5, 501))
    z = rng.pareto(1.5, size=n) + rng.uniform(0.1, 1.0)
    if allow_ties and n >= 4 and rng.random() < 0.5:
        idx = rng.integers(0, n, size=max(2, n // 4))
        z[idx] = z[idx[0]]
    delta = (rng.random(n) >= censor_prob).astype(int)
    return sort_with_concomitants(CensoredSample(z, delta))


def make_complete(rng, n=None, allow_ties=False):
    sample = make_censored(rng, n=n, censor_prob=0.0, allow_ties=allow_ties)
    return sample


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, threads=None, cwd=None, timeout=300):
    """Run ``python *args`` in a fresh interpreter that imports this tree's
    censtail, with ``CENS_TAIL_THREADS`` unset unless ``threads`` is given;
    its CompletedProcess, stdout and stderr as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("CENS_TAIL_THREADS", None)
    if threads is not None:
        env["CENS_TAIL_THREADS"] = str(threads)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=timeout)
