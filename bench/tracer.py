"""Spans recorded around the benchmark's calls into vecopt's layers.

A span has a name, a start and an end (``time.perf_counter`` seconds),
the span that caused it, and a request id (the grid point or mini
instance it serves; children inherit it).  Counts measured at the same
boundary ride along as attributes.  Spans stay in memory and are
written out once the run ends, so the file write is never timed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """Time the body; yields the span's attribute dict for counts."""
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = parent["request"]
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "request": request,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name.

        A span's self time is its duration minus the time its direct
        children cover; children of one span never overlap here because
        every traced path runs serially.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of opening and closing one span, in seconds.

    Tracing overhead is this cost times the spans a traced run records;
    differencing a traced against an untraced run instead would bury a
    cost of a few microseconds per span in run-to-run noise.
    """
    probe = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - t0) / samples
