"""Spans recorded around the benchmark's calls into each traversale layer.

A span is ``(name, start_ns, end_ns, parent_id)``; ``parent_id`` is the
index of the enclosing span, or -1 at the top.  Spans stay in memory while
the workload runs and are written out once, at the end.  A span covers
everything the called function does, so the self time of a span is its
duration minus the time covered by its direct children.

Untraced runs use ``NullTracer``, whose ``call`` goes straight through, so
the timed and traced runs execute the same benchmark code.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from array import array


class NullTracer:
    """Records nothing; ``call(name, fn, *args)`` is ``fn(*args)``."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    """Spans in flat integer arrays, which the garbage collector never scans."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self.counts: dict[str, list] = {}
        self._stack = [-1]

    @property
    def spans(self):
        """(name, start_ns, end_ns, parent_id) for every span, in start order."""
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self._name, self._start, self._end, self._parent)
        ]

    def call(self, name, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._end.append(0)
        self._stack.append(sid)
        self._start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self._end[sid] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name, value):
        self.counts.setdefault(name, []).append(value)

    def wrap(self, module, attr, name, on_result=None):
        """Rebind ``module.attr`` to a span-recording wrapper; returns the undo.

        Used where one traversale layer calls the next by a module-level
        name (``scene`` calling ``render``, ``cli`` calling ``scene``), so the
        span sits on the boundary without touching the program.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(module, attr, traced)
        return lambda: setattr(module, attr, original)

    def durations(self) -> dict[str, tuple[list[int], list[int]]]:
        """name -> (inclusive durations, self durations), in nanoseconds."""
        spans = self.spans
        covered = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[list[int], list[int]]] = {}
        for sid, (name, start, end, _) in enumerate(spans):
            incl, own = out.setdefault(name, ([], []))
            incl.append(end - start)
            own.append(end - start - covered[sid])
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, median inclusive and total self time."""
        return {
            name: {
                "calls": len(incl),
                "median_ns": statistics.median(incl),
                "self_total_ns": sum(own),
            }
            for name, (incl, own) in sorted(self.durations().items())
        }

    def write(self, path: str, meta: dict) -> None:
        """All spans as gzipped JSON lines, after one header line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "summary": self.summary()}) + "\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent]) + "\n")
