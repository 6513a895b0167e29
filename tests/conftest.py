import contextlib
import io
import json
import os
import sys
from pathlib import Path

# numpy is the CLI's one runtime dependency: from here on `import click`
# raises ImportError, so every test runs where click cannot be imported
sys.modules["click"] = None

import pytest

from pauli_simplex import geometry
from pauli_simplex.cli import cli

#: the pinned outputs, one entry per command line with `{out}` for its --out
#: path: the exact stdout, and the size and SHA-256 of the file written
GOLDEN = json.loads(Path(__file__).with_name("golden.json").read_text())
#: the golden Monte Carlo record, which perfbench/run.py pins too
MC_SEED_42 = "measure --method mc --samples 10000000 --seed 42 --json"


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


@pytest.fixture
def forks(monkeypatch):
    """The job of each child that `geometry._forked` forks, in order: a CSV
    worker's row range (k0, k1), a Monte Carlo worker's (index,)."""
    jobs, fork = [], geometry._fork

    def counting(work, job):
        jobs.append(job)
        return fork(work, job)

    monkeypatch.setattr(geometry, "_fork", counting)
    return jobs


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPUs this process may run on, as `geometry._workers` reads them."""

    def set_cpus(count):
        cpus = set(range(count))
        monkeypatch.setattr(geometry.os, "sched_getaffinity", lambda pid: cpus, raising=False)

    return set_cpus
