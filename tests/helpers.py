"""Shared builders for the test suite."""

import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from hemocult.cli import entrypoint
from hemocult.prep import SampleTensor


def make_tensors(n, n_pos, seed=0, shift=0.8, noise=0.1):
    """Separable toy tensors: positives carry a mean shift on column 0."""
    rng = np.random.default_rng(seed)
    tensors = []
    for idx in range(n):
        label = 1 if idx < n_pos else 0
        values = rng.normal(0.0, noise, size=(72, 9))
        if label:
            values[:, 0] += shift
        tensors.append(SampleTensor(values=values, label=label,
                                    admission_id=f"t{idx:04d}"))
    return tensors


def run_cli(*args):
    """Run the CLI in a fresh interpreter; returns the completed process."""
    return subprocess.run([sys.executable, "-m", "hemocult", *map(str, args)],
                          capture_output=True, text=True)


def run_inprocess(*argv):
    """Run the CLI in this interpreter; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = entrypoint([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()
