import pytest

from pauli_simplex import geometry


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
