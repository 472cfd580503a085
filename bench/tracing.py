"""In-memory spans recorded by the harness around its calls into the package.

A span has a name, start and end (``time.perf_counter`` seconds), the id
of the span that was open when it began (its parent) and a run id shared
by every span of one workload pass.  Spans stay in memory and are written
out once, when the benchmark ends.  A disabled tracer records nothing, so
the same code path can be timed with tracing off and on.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self.run_id = "main"

    @contextmanager
    def run(self, run_id: str):
        """Tag every span opened inside with ``run_id``."""
        previous, self.run_id = self.run_id, run_id
        try:
            yield
        finally:
            self.run_id = previous

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    @staticmethod
    def span_cost_s(repeats: int = 20000) -> float:
        """Seconds one enabled span adds over a disabled one (a microbenchmark)."""
        timings = []
        for enabled in (False, True):
            tracer = Tracer(enabled)
            started = time.perf_counter()
            for _ in range(repeats):
                with tracer.span("probe"):
                    pass
            timings.append(time.perf_counter() - started)
        return (timings[1] - timings[0]) / repeats

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.span_id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        inside = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children(span)
        ]
        return span.duration - covered([iv for iv in inside if iv[1] > iv[0]])

    def find(self, name: str, run_id: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (run_id is None or s.run_id == run_id)
        ]

    def seconds(self, name: str, run_id: str | None = None) -> float:
        """Summed duration of the spans with this name (KeyError if none)."""
        found = self.find(name, run_id)
        if not found:
            raise KeyError(f"no span named {name!r} in run {run_id!r}")
        return sum(s.duration for s in found)

    def dump(self, path) -> None:
        records = [
            dict(asdict(s), self_time=self.self_time(s))
            for s in sorted(self.spans, key=lambda s: s.span_id)
        ]
        with open(path, "w") as fp:
            json.dump(records, fp, indent=1)
