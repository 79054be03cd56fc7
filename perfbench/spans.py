"""In-memory spans recorded around the benchmark's calls into each layer.

A span holds a name (``module.function``), start and end times from the
monotonic clock (``perf_counter_ns``, shared by every process on the host),
the span that caused it, the operation it belongs to, and counts taken at
the same boundary.  Spans stay in memory and are written out once, when the
run ends.  A disabled tracer records nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns


class Span:
    __slots__ = ("tracer", "name", "counts", "start", "end", "id", "parent", "op")

    def __init__(self, tracer: "Tracer", name: str, counts: dict):
        self.tracer = tracer
        self.name = name
        self.counts = counts
        self.start = self.end = 0
        self.id = self.parent = self.op = None

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else None
        self.op = tracer.op
        self.id = len(tracer.spans)
        tracer.spans.append(self)
        tracer.stack.append(self.id)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.end = perf_counter_ns()
        self.tracer.stack.pop()
        return False

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class _NullSpan:
    """Stand-in returned by a disabled tracer; counts written to it are dropped."""

    def __init__(self):
        self.counts: dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self._null = _NullSpan()

    def span(self, name: str, **counts):
        if not self.enabled:
            return self._null
        return Span(self, name, counts)

    def add(self, name: str, start: int, end: int, parent: int | None, **counts) -> None:
        """Record a span timed elsewhere, such as inside a child process."""
        if not self.enabled:
            return
        span = Span(self, name, counts)
        span.start, span.end, span.parent, span.op = start, end, parent, self.op
        span.id = len(self.spans)
        self.spans.append(span)

    def has(self, name: str, accept=None) -> bool:
        return any(s.name == name and (accept is None or accept(s)) for s in self.spans)

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the part of it covered by its children."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = []
        for span in self.spans:
            covered = 0
            edge = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, edge), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            result.append(span.duration_ns - covered)
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span, self_ns in zip(self.spans, self.self_times_ns()):
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "op": span.op, "start_ns": span.start, "end_ns": span.end,
                    "self_ns": self_ns, "counts": span.counts,
                }) + "\n")
