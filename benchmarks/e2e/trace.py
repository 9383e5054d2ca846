"""The benchmark's own span recorder.

Deliberately not ``repro.obs.Tracer``: the instrument must keep working
while that package is rewritten.  Spans are kept in memory and written out
once, when the traced run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    """Spans of one workload run; all share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def add(self, name, start, end, parent=None, lane="host", **attrs) -> int:
        """Record a finished span; returns its id (its index)."""
        self.spans.append(
            {"run": self.run_id, "id": len(self.spans), "parent": parent,
             "name": name, "lane": lane, "start": start, "end": end, **attrs}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name, **attrs):
        """Time the block as a child of the innermost open span."""
        sid = self.add(name, time.perf_counter(), None,
                       parent=self._open[-1] if self._open else None, **attrs)
        self._open.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self._open.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of it that its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        return {
            s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in self.spans
        }

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": selfs[s["id"]]}) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total
