"""`_procs`: how many processes share the work, which tasks each takes, and the forked jobs."""

import os
import threading
import time

import pytest
from conftest import assert_no_child_left

from pauli_simplex._procs import forked, split


class TestSplit:
    @pytest.mark.parametrize("most", [None, 2, 10**20])
    @pytest.mark.parametrize("tasks", [1, 2, 5, 39])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_one_range_per_usable_cpu_task_and_most(self, usable_cpus, cpus, tasks, most):
        usable_cpus(cpus)
        ranges = split(tasks, most)
        assert len(ranges) == min(cpus, tasks, most or tasks)
        # contiguous, in order from task 0, and of near-equal length
        assert [t for t0, t1 in ranges for t in range(t0, t1)] == list(range(tasks))
        lengths = [t1 - t0 for t0, t1 in ranges]
        assert max(lengths) - min(lengths) <= 1

    def test_cpu_count_without_an_affinity_set(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cores, count in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            assert len(split(10)) == count

    def test_one_process_without_fork_or_beside_another_thread(self, monkeypatch, usable_cpus):
        usable_cpus(4)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert split(10) == [(0, 10)]
        finally:
            stop.set()
            other.join(timeout=30)
        assert not other.is_alive()
        monkeypatch.delattr(os, "fork")
        assert split(10) == [(0, 10)]


def in_children(action):
    """A job that returns k in this process and runs action(k) in a forked child."""
    parent = os.getpid()
    return lambda k: k if os.getpid() == parent else action(k)


class TestForked:
    def test_child_error_reaches_the_caller(self):
        def failing(k):
            raise MemoryError(f"no room in job {k}")

        with pytest.raises(ChildProcessError, match="^no room in job 1$"):
            forked(in_children(failing), [(0,), (1,), (2,)], "job")
        assert_no_child_left()

    def test_caller_error_kills_and_reaps_the_children(self):
        def failing(k):
            if k == 0:  # the job of this process
                raise MemoryError("no room")
            time.sleep(60)  # a child that would outlast the test unless killed

        start = time.perf_counter()
        with pytest.raises(MemoryError, match="^no room$"):
            forked(failing, [(0,), (1,), (2,)], "job")
        assert time.perf_counter() - start < 30
        assert_no_child_left()
