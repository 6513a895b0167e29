"""In-memory spans recorded around calls into the package's layers.

A span holds a name, start and end (``perf_counter`` seconds), the id of the
span that caused it, the process CPU clock at both ends and the process
high-water RSS at both ends.  Spans are kept in a list and written out once,
when the traced run ends.  This module imports nothing from numpy or the
package, so importing it costs nothing that the traced import would see.
"""

from __future__ import annotations

import functools
import itertools
import resource
import threading
import time
from contextlib import contextmanager


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; extra keyword values are stored on it as counts.

        The parent is the innermost open span of the calling thread or, for
        a pool worker with nothing open, that of the main thread.
        """
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        enclosing = stack or self._stacks.get(self._main, [])
        with self._lock:
            sid = next(self._ids)
        rec = {
            "id": sid,
            "name": name,
            "parent": enclosing[-1]["id"] if enclosing else None,
            "thread": tid,
            **attrs,
            "peak_kb_start": _peak_kb(),
            "cpu_start": time.process_time(),
            "start": time.perf_counter(),
        }
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = time.process_time()
            rec["peak_kb_end"] = _peak_kb()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, rows: bool = False) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        With rows=True the span also counts the rows of the first argument.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {"rows": len(args[0])} if rows else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        setattr(owner, attr, traced)


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        parts = sorted(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], [])
        )
        covered, reach = 0.0, s["start"]
        for lo, hi in parts:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def under(spans: list, root: str) -> list:
    """Spans named root and every span they caused, across threads."""
    by_id = {s["id"]: s for s in spans}

    def inside(s):
        while s is not None:
            if s["name"] == root:
                return True
            s = by_id.get(s["parent"])
        return False

    return [s for s in spans if inside(s)]
