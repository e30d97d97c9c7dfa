"""Spans around the benchmark's calls into the library.

A span is (id, parent id, operation id, name, start, end).  The traced
run keeps spans in memory and writes them out once, at the end; the
untraced run uses NullTracer, which only forwards the call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    traced = False

    def call(self, name, fn, *args):
        return fn(*args)

    def begin_op(self, op_id: int) -> None:
        pass


class Tracer:
    traced = True

    def __init__(self):
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._op = -1

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def call(self, name, fn, *args):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(sid)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, parent, self._op, name, start, end)

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans, scale: dict[int, float]) -> dict[str, dict[str, float]]:
    """Busy time, self time and call count per span name and per layer
    (the part of the name before the first dot).  Self time is the span's
    duration minus the part covered by its child spans.  Durations are
    multiplied by their operation's factor in `scale`."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _op, _name, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
    for sid, _parent, op, name, start, end in spans:
        factor = scale.get(op, 1.0)
        for key in (name, name.split(".", 1)[0]):
            entry = out[key]
            entry["busy_s"] += (end - start) * factor
            entry["self_s"] += (end - start - child_time[sid]) * factor
            entry["calls"] += 1
    return out
