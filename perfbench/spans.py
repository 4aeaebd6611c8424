"""In-memory spans recorded by the benchmark around its calls into the
program, and the per-layer self time computed from them.

A span is ``(id, name, start, end, parent, op)``: *op* is the id of the
request or operation it belongs to, shared by all its spans.  Spans stay
in a list until :meth:`Spans.dump` writes them out at the end of a run,
so recording costs one ``perf_counter`` pair and one list append.

:class:`NoSpans` is the untraced stand-in: the same interface, no
recording, so the measured code path is identical in both modes.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Spans:
    """Thread-safe span recorder (one per worker process)."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[tuple[int, str, float, float, int, int]] = []
        self._next = 1
        self._lock = threading.Lock()
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next
            self._next += 1
        return span_id

    @contextmanager
    def span(self, name: str, op: int = 0):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else 0
        span_id = self._new_id()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append((span_id, name, start, end, parent, op))

    def add(self, name: str, start: float, end: float, op: int = 0,
            parent: int | None = None) -> None:
        """Record an already-timed interval, under *parent* or else under
        this thread's current span."""
        if parent is None:
            stack = self._local.__dict__.get("stack") or [0]
            parent = stack[-1]
        self.records.append((self._new_id(), name, start, end, parent, op))

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.records:
            children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for span_id, name, start, end, _, _ in self.records:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start = max(c_start, cursor)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[name] = totals.get(name, 0.0) + (end - start - covered)
        return totals


class NoSpans:
    """Tracing off: same calls, nothing recorded."""

    enabled = False

    @contextmanager
    def span(self, name: str, op: int = 0):
        yield 0

    def add(self, name: str, start: float, end: float, op: int = 0,
            parent: int | None = None) -> None:
        pass
