"""Forked worker processes, which `scan`, `boundary` and `measure --method mc`
share their work among: how many run, which tasks each takes, how each reports."""

import os
import pickle
import sys
import threading


def split(tasks: int, most: int | None = None) -> list:
    """The task ranges (t0, t1) of the processes that share `tasks`, in order:
    contiguous and of near-equal length, the first for this process.

    One process per CPU this one may run on (its affinity set where the OS
    has one, else os.cpu_count()), at most one per task and at most `most`
    unless it is None; only this one without os.fork or beside another
    Python thread, since a forked child would hold only the calling thread,
    and any lock another held.  OpenBLAS's thread pool does not count: its
    fork handler stops it.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        count = 1
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    count = min(count, tasks, tasks if most is None else most)
    bounds = [tasks * k // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


#: in a child of `_fork`, the pid of the process that forked it
_forker = None


def stop_if_orphaned() -> None:
    """Raise SystemExit in a child of `_fork` whose forker is gone, as after a
    SIGKILL that no handler sees (its parent is then another); else a no-op."""
    if _forker is not None and os.getppid() != _forker:
        raise SystemExit


def forked(work, jobs: list, what: str) -> list:
    """[work(*job) for job in jobs]: the first job in this process, each other
    in a child forked before it (see `_fork`).  If a job fails or this
    process is stopped, the children left are killed and reaped first; a
    child's error message, or its end without a report, is raised here as a
    ChildProcessError (an OSError).  A child stays in the list while its
    report is read, until the end of its pipe shows that it has ended."""
    children = []
    try:
        for job in jobs[1:]:
            children.append(_fork(work, job))
        results = [work(*jobs[0])]
        while children:
            pid, read = children[0]
            with open(read, "rb", closefd=False) as pipe:
                report = pipe.read()
            children.pop(0)
            os.close(read)
            _, status = os.waitpid(pid, 0)
            if not report:
                raise ChildProcessError(
                    f"{what} {pid} stopped without a report (wait status {status})"
                )
            ok, value = pickle.loads(report)
            if not ok:
                raise ChildProcessError(value)
            results.append(value)
        return results
    finally:
        if children:  # left only when a job failed or this process is stopped
            import signal  # here, so that importing the package loads no more modules

            for pid, read in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(read)


def _fork(work, job: tuple) -> tuple:
    """Fork a child that sends [True, work(*job)], or [False, the message of
    the exception it met], pickled through a pipe and ends with os._exit, so
    it runs no exit handler and flushes no buffer; returns (pid, read end).
    A child stopped by Ctrl-C, which reaches the whole process group, by
    the console script's SIGTERM handler or by `stop_if_orphaned`, or one
    whose report finds the pipe closed, ends without a report or a
    traceback."""
    global _forker
    forker = os.getpid()
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    _forker, code = forker, 1
    try:
        os.close(read)
        try:
            report = [True, work(*job)]
        except Exception as exc:  # raised again by the caller
            report = [False, str(exc)]
        os.write(write, pickle.dumps(report))
        code = 0
    except (KeyboardInterrupt, SystemExit, BrokenPipeError):  # a signal, or the caller is gone
        pass
    except BaseException:  # reported here: a child never returns into the caller's frames
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)
