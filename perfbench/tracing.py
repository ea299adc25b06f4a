"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start, end and the span that
caused it.  Spans stay in memory while the benchmark runs and are written
out once at the end, so recording one costs two clock reads and a list
append.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on one thread, timed with ``time.perf_counter``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def child_seconds(self, span: Span, name: str) -> float:
        """Total time of the direct children of ``span`` called ``name``."""
        return sum(s.seconds for s in self.children(span) if s.name == name)

    def coverage(self, span: Span) -> float:
        """Share of ``span`` that its direct children account for."""
        return sum(s.seconds for s in self.children(span)) / span.seconds

    def records(self) -> list[dict]:
        """Spans as JSON-ready dicts, times in seconds since the tracer began."""
        return [{"id": s.id, "name": s.name, "parent": s.parent,
                 "start": s.start - self._t0, "end": s.end - self._t0}
                for s in self.spans]
