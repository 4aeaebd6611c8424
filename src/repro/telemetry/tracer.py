"""Hierarchical tracing: context-manager and decorator span APIs.

A :class:`Tracer` produces a tree of :class:`~repro.telemetry.spans.Span`\\ s.
Nesting is tracked per thread (a span opened inside another span on the
same thread becomes its child), so concurrent ``repro serve`` worker
threads each build their own subtree; any other parentage — a pipeline
stage under its run-level span — is expressed by passing ``parent=``
explicitly.

The :class:`NullTracer` twin implements the same surface as cheap no-ops
(a shared singleton span, no locking, no allocation), which is what makes
``telemetry=None`` a zero-overhead default throughout the pipeline.

>>> tracer = Tracer()
>>> with tracer.span("outer") as outer:
...     with tracer.span("inner", detail="x") as inner:
...         pass
>>> [s.name for s in tracer.spans()]
['inner', 'outer']
>>> tracer.spans()[0].parent_id == outer.span_id
True
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import AbstractContextManager
from typing import Any, Callable

from repro.telemetry.spans import Span, SpanBuffer

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]


class _SpanContext(AbstractContextManager):
    """Context manager opening one span on enter and finishing it on exit."""

    __slots__ = ("_tracer", "_span", "_cpu_start")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._cpu_start = 0.0

    def __enter__(self) -> Span:
        span = self._span
        span.thread_id = threading.get_ident()
        span.start = self._tracer._clock() - self._tracer.epoch
        self._cpu_start = self._tracer._cpu_clock()
        self._tracer._push(span)
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.cpu_time = self._tracer._cpu_clock() - self._cpu_start
        span.duration = self._tracer._clock() - self._tracer.epoch - span.start
        if exc is not None:
            span.tags.setdefault("error", f"{type(exc).__name__}: {exc}")
        self._tracer._pop(span)
        return False


class Tracer:
    """Produces a hierarchical span tree with wall and CPU timings.

    Parameters
    ----------
    clock:
        Monotonic wall clock (default :func:`time.perf_counter`);
        injectable for deterministic tests.
    cpu_clock:
        Per-thread CPU clock (default :func:`time.thread_time`, falling
        back to :func:`time.process_time` where unavailable).

    Thread safety: span finish goes through a locked
    :class:`~repro.telemetry.spans.SpanBuffer`, and the active-span stack
    is thread-local, so concurrent worker threads trace correctly.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] | None = None,
    ) -> None:
        if cpu_clock is None:
            cpu_clock = getattr(time, "thread_time", time.process_time)
        self._clock = clock
        self._cpu_clock = cpu_clock
        self.epoch = clock()
        self.buffer = SpanBuffer()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- active-span bookkeeping -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.buffer.append(span)

    def current_span(self) -> Span | None:
        """The innermost span open on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- public API --------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True: this tracer records spans (the null twin reports False)."""
        return True

    def span(
        self, name: str, *, parent: Span | None = None, **tags: Any
    ) -> AbstractContextManager:
        """Open a span named *name*; use as ``with tracer.span(...) as s:``.

        The parent is the innermost span open on the calling thread
        unless *parent* names one explicitly (required when the caller
        runs on a different thread than the enclosing operation).  *tags*
        seed the span's annotations; more can be added on the yielded
        span while it is open.
        """
        if parent is None:
            parent = self.current_span()
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=None if parent is None else parent.span_id,
            tags=dict(tags),
        )
        return _SpanContext(self, span)

    def traced(
        self, name: str | None = None, **tags: Any
    ) -> Callable[[Callable], Callable]:
        """Decorator form: trace every call of the wrapped function.

        >>> tracer = Tracer()
        >>> @tracer.traced(kind="helper")
        ... def work(n):
        ...     return n * 2
        >>> work(21)
        42
        >>> tracer.spans()[0].name
        'work'
        """

        def decorate(fn: Callable) -> Callable:
            span_name = name or getattr(fn, "__name__", "call")

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(span_name, **tags):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    def spans(self) -> tuple[Span, ...]:
        """Every finished span, in finish order."""
        return self.buffer.snapshot()

    def clear(self) -> None:
        """Drop recorded spans and re-anchor the epoch."""
        self.buffer.clear()
        self.epoch = self._clock()


class _NullSpanTags:
    """Write-only tag sink: accepts annotations, stores nothing."""

    __slots__ = ()

    def __setitem__(self, key: str, value: Any) -> None:
        pass

    def setdefault(self, key: str, value: Any) -> Any:
        return value

    def update(self, *args: Any, **kwargs: Any) -> None:
        pass


class _NullSpanContext(AbstractContextManager):
    """A reusable do-nothing span context (one shared instance)."""

    __slots__ = ()

    #: Shared inert span handed to every ``with`` body.
    span = Span(name="", span_id=0, duration=0.0, cpu_time=0.0)
    span.tags = _NullSpanTags()  # type: ignore[assignment]

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The zero-overhead tracer: same surface as :class:`Tracer`, no work.

    ``span()`` returns one shared, pre-built context manager — no
    allocation, no clock reads, no locking — so instrumented code paths
    cost a few attribute lookups when telemetry is off.
    """

    __slots__ = ()

    epoch = 0.0

    @property
    def enabled(self) -> bool:
        """False: spans are discarded."""
        return False

    def span(self, name: str, *, parent: Span | None = None, **tags: Any):
        """Return the shared do-nothing span context."""
        return _NULL_SPAN_CONTEXT

    def traced(self, name: str | None = None, **tags: Any):
        """Decorator form: returns the function unchanged."""

        def decorate(fn: Callable) -> Callable:
            return fn

        return decorate

    def current_span(self) -> Span | None:
        """Always ``None``: nothing is ever open."""
        return None

    def spans(self) -> tuple[Span, ...]:
        """Always empty."""
        return ()

    def clear(self) -> None:
        """A no-op."""


#: Process-wide shared null tracer.
NULL_TRACER = NullTracer()
