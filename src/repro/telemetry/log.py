"""Structured, span-correlated NDJSON logging.

The third leg of the telemetry stool (spans measure, metrics count, logs
*narrate*): a :class:`StructuredLogger` records leveled events as one
JSON object each — event name, UTC timestamp, level, free-form fields,
and the ``span_id`` of the innermost span open on the calling thread, so
every log line is attributable to the pipeline stage or served request
that emitted it.

Events are buffered in a thread-safe list and can additionally be routed
to a *stream* (one complete ``write()`` per line, under the logger's
lock, so concurrent emitters can never interleave partial lines) —
that is what keeps the NDJSON of ``repro serve``'s worker threads
well-formed.

The :class:`NullLogger` twin follows the telemetry convention: the same
surface as cheap no-ops, shared through :data:`NULL_LOGGER`, so
``telemetry=None`` call sites pay a few attribute lookups and nothing
else.

>>> from repro.telemetry.tracer import Tracer
>>> tracer = Tracer()
>>> log = StructuredLogger(tracer=tracer)
>>> with tracer.span("stage:collect") as span:
...     _ = log.info("cache.miss", key="abc")
>>> event = log.events()[0]
>>> event.event, event.level, event.span_id == span.span_id
('cache.miss', 'info', True)
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO

from repro.errors import TelemetryError

__all__ = [
    "LOG_LEVELS",
    "LogEvent",
    "StructuredLogger",
    "NullLogger",
    "NULL_LOGGER",
]

#: Level name → numeric severity (higher = more severe).
LOG_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _severity(level: str) -> int:
    try:
        return LOG_LEVELS[level]
    except KeyError:
        raise TelemetryError(
            f"unknown log level {level!r}; expected one of "
            f"{sorted(LOG_LEVELS)}"
        ) from None


@dataclass(frozen=True, slots=True)
class LogEvent:
    """One structured log record.

    Attributes
    ----------
    event:
        Dotted event name (``"cache.evict"``, ``"stage.finish"``, ...).
    level:
        One of :data:`LOG_LEVELS`.
    ts:
        Unix timestamp (``time.time()``) of emission.
    span_id:
        ``span_id`` of the innermost open span on the emitting thread,
        or ``None`` when emitted outside any span.
    thread_id:
        ``threading.get_ident()`` of the emitting thread.
    fields:
        Free-form key → value payload (must be JSON-representable via
        ``default=str``).
    """

    event: str
    level: str
    ts: float
    span_id: int | None = None
    thread_id: int = 0
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict (``type: "log"``, fields flattened under
        ``fields`` so event metadata can never collide with payload keys)."""
        return {
            "type": "log",
            "event": self.event,
            "level": self.level,
            "ts": self.ts,
            "span_id": self.span_id,
            "thread_id": self.thread_id,
            "fields": dict(self.fields),
        }

    def to_json(self) -> str:
        """The event as one NDJSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


class StructuredLogger:
    """Leveled, span-correlated, thread-safe structured logger.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.telemetry.tracer.Tracer`; when bound,
        every event is stamped with the emitting thread's innermost open
        span id (``None`` otherwise).
    level:
        Minimum level recorded (default ``"debug"``: keep everything —
        the buffer is in memory and runs are short).
    stream:
        Optional text stream; each accepted event is additionally
        written to it as one NDJSON line in a single ``write()`` call
        under the logger's lock, so concurrent emitters cannot interleave.
    """

    def __init__(
        self,
        *,
        tracer: Any = None,
        level: str = "debug",
        stream: IO[str] | None = None,
    ) -> None:
        self._min_severity = _severity(level)
        self.level = level
        self.tracer = tracer
        self._stream = stream
        self._lock = threading.Lock()
        self._events: list[LogEvent] = []

    @property
    def enabled(self) -> bool:
        """True: this logger records events (the null twin reports False)."""
        return True

    # -- emission ----------------------------------------------------------------

    def log(self, level: str, event: str, **fields: Any) -> LogEvent | None:
        """Record one event; returns it, or ``None`` when filtered out."""
        if _severity(level) < self._min_severity:
            return None
        span_id = None
        if self.tracer is not None:
            current = self.tracer.current_span()
            if current is not None:
                span_id = current.span_id
        record = LogEvent(
            event=event,
            level=level,
            ts=time.time(),
            span_id=span_id,
            thread_id=threading.get_ident(),
            fields=fields,
        )
        line = record.to_json() + "\n" if self._stream is not None else None
        with self._lock:
            self._events.append(record)
            if line is not None:
                # One complete line per write(): concurrent emitters can
                # never tear a line even on unbuffered streams.
                self._stream.write(line)
        return record

    def debug(self, event: str, **fields: Any) -> LogEvent | None:
        """Record a ``debug`` event."""
        return self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> LogEvent | None:
        """Record an ``info`` event."""
        return self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> LogEvent | None:
        """Record a ``warning`` event."""
        return self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> LogEvent | None:
        """Record an ``error`` event."""
        return self.log("error", event, **fields)

    # -- inspection & export -----------------------------------------------------

    def events(self, *, min_level: str = "debug") -> tuple[LogEvent, ...]:
        """Recorded events at or above *min_level*, in emission order."""
        severity = _severity(min_level)
        with self._lock:
            snapshot = tuple(self._events)
        if severity <= _severity("debug"):
            return snapshot
        return tuple(e for e in snapshot if _severity(e.level) >= severity)

    def lines(self) -> list[str]:
        """Every recorded event as an NDJSON line (no trailing newlines)."""
        return [event.to_json() for event in self.events()]

    def write_ndjson(self, path: str | os.PathLike) -> Path:
        """Write the buffered events as an NDJSON file; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        lines = self.lines()
        target.write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )
        return target

    def clear(self) -> None:
        """Drop every buffered event."""
        with self._lock:
            self._events.clear()


class NullLogger:
    """The zero-overhead logger: same surface, nothing recorded."""

    __slots__ = ()

    level = "error"
    tracer = None

    @property
    def enabled(self) -> bool:
        """False: events are discarded."""
        return False

    def log(self, level: str, event: str, **fields: Any) -> None:
        """Discard the event."""
        return None

    def debug(self, event: str, **fields: Any) -> None:
        """Discard the event."""
        return None

    def info(self, event: str, **fields: Any) -> None:
        """Discard the event."""
        return None

    def warning(self, event: str, **fields: Any) -> None:
        """Discard the event."""
        return None

    def error(self, event: str, **fields: Any) -> None:
        """Discard the event."""
        return None

    def events(self, *, min_level: str = "debug") -> tuple[LogEvent, ...]:
        """Always empty."""
        return ()

    def lines(self) -> list[str]:
        """Always empty."""
        return []

    def clear(self) -> None:
        """A no-op."""


#: Process-wide shared disabled logger.
NULL_LOGGER = NullLogger()
