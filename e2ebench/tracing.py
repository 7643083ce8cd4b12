"""An in-memory span recorder for the benchmark's traced run.

Spans are opened by the benchmark around its own calls into each layer;
nothing inside ``src/`` is traced.  A span records its name, the span that
opened it, its start and end (``perf_counter_ns``) and the contract it
belongs to, the identifier that all spans of one contract share.  The
spans stay in memory and are written once, as Chrome trace-event JSON, when
the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("ident", "parent", "name", "trace", "start", "end")

    def __init__(self, ident: int, parent: Optional[int], name: str, trace: int):
        self.ident = ident
        self.parent = parent
        self.name = name
        self.trace = trace
        self.start = time.perf_counter_ns()
        self.end = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, trace: int = -1) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(
            len(self.spans),
            None if parent is None else parent.ident,
            name,
            trace if parent is None else parent.trace,
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._open.pop()

    def call(self, name: str, function, *args, **kwargs):
        """``function(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return function(*args, **kwargs)

    def children(self) -> Dict[int, List[Span]]:
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return children

    def self_times(self) -> Dict[int, int]:
        """Span id -> its duration minus the time its children cover (ns).

        Children of one span run one after another, so the part of the
        parent's interval they cover is the sum of their durations.
        """
        children = self.children()
        return {
            span.ident: span.duration
            - sum(child.duration for child in children.get(span.ident, ()))
            for span in self.spans
        }

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start / 1000.0,
                "dur": span.duration / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"span": span.ident, "parent": span.parent, "contract": span.trace},
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def recorder_cost_ns(pairs: int = 2000) -> float:
    """Mean cost of opening and closing one span on this host (ns)."""
    tracer = Tracer()
    started = time.perf_counter_ns()
    for _ in range(pairs):
        with tracer.span("probe"):
            pass
    return (time.perf_counter_ns() - started) / pairs
