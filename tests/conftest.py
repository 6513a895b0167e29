import contextlib
import io
import json
import os
import sys
from pathlib import Path

# numpy is the CLI's one runtime dependency: from here on `import click`
# raises ImportError, so every test runs where click cannot be imported
sys.modules["click"] = None

import numpy as np
import pytest

from pauli_simplex import _procs
from pauli_simplex.cli import cli
from pauli_simplex.oracles import exact_negative_axes

#: the pinned outputs, one entry per command line with `{out}` for its --out
#: path: the exact stdout, and the size and SHA-256 of the file written
GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())
#: the golden Monte Carlo record, which perfbench/run.py pins too
MC_SEED_42 = "measure --method mc --samples 10000000 --seed 42 --json"


def codes_of(negative):
    """Region codes of an (n, 3) bool array of negative axes: the row's
    negative axis, else -1.  No row may have two."""
    assert negative.sum(axis=1).max(initial=0) <= 1
    return np.where(negative.any(axis=1), negative.argmax(axis=1), -1)


def oracle_codes(weights):
    """Region codes of (n, 3) weight rows by the exact finite-p oracle."""
    return codes_of(exact_negative_axes(weights))


def random_weights(count, seed=0):
    """`count` weight rows, normalized exponential draws of generator `seed`."""
    rng = np.random.default_rng(seed)
    e = rng.exponential(size=(count, 3))
    return e / e.sum(axis=1, keepdims=True)


def lattice(n):
    """The int64 indices (i, j, k = n - i - j) of the resolution-n grid's rows.

    The grid reference of every test: `TestScanGrid::test_grid_matches_loop_reference`
    ties it to a loop over (i, j)."""
    rows = (n + 1) * (n + 2) // 2
    lengths = np.arange(n + 1, 0, -1)
    i = np.repeat(np.arange(n + 1, dtype=np.int64), lengths)
    j = np.arange(rows, dtype=np.int64) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return i, j, n - i - j


def lattice_codes(n):
    """Region codes of the resolution-n grid from exact integer signs.

    Row (i, j, k) is the point (i, j, k) / n.  There the x rate times a b c,
    a (b + c) - b c (1 + a), is P / n^3 with the int64
    P = i (j + k) n - j k (n + i), and the y and z rates rotate (i, j, k).
    The code is the axis whose P is negative (at most one is), else -1.
    """
    i, j, k = lattice(n)
    return codes_of(np.column_stack([
        i * (j + k) * n - j * k * (n + i),
        j * (k + i) * n - k * i * (n + j),
        k * (i + j) * n - i * j * (n + k),
    ]) < 0)


def child_env():
    """The environment for a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    )}


def invoke(args, prog_name="pauli-simplex"):
    """Run the CLI on `args` in this process; return (exit code, stdout, stderr).

    Only SystemExit is caught: any other exception fails the calling test
    with its traceback.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            cli(args, prog_name)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def run_ok(args):
    """The stdout of a CLI command that must exit 0."""
    code, stdout, stderr = invoke(args)
    assert code == 0, stderr
    return stdout


def assert_no_child_left():
    """Every process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The job of each child that `_procs.forked` forks, in order: a CSV
    worker's row range (k0, k1), a Monte Carlo worker's chunk range (c0, c1)."""
    jobs, fork = [], _procs._fork
    monkeypatch.setattr(_procs, "_fork", lambda work, job: jobs.append(job) or fork(work, job))
    return jobs


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPUs this process may run on, as `_procs.split` reads them."""

    def set_cpus(count):
        cpus = set(range(count))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    return set_cpus
