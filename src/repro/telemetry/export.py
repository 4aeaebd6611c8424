"""Exporters: NDJSON event streams and Chrome ``chrome://tracing`` files.

Two on-disk formats, both derived from the same span tree:

* **NDJSON events** (:func:`write_events_jsonl`) — one JSON object per
  line: every span, followed by one ``metric`` record per instrument.
  Greppable, streamable, trivially machine-readable.
* **Chrome trace** (:func:`write_chrome_trace`) — the Trace Event Format
  consumed by ``chrome://tracing`` and https://ui.perfetto.dev: complete
  (``"ph": "X"``) events with microsecond timestamps, one row per
  thread, so requests handled by concurrent ``repro serve`` worker
  threads render as overlapping bars.

:func:`load_chrome_trace` reads a saved trace back (for ``repro trace``),
raising :class:`~repro.errors.TelemetryError` on unreadable input.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import TelemetryError
from repro.telemetry.hooks import Telemetry
from repro.telemetry.spans import Span

__all__ = [
    "span_events",
    "write_events_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
]


def span_events(telemetry: Telemetry) -> list[dict[str, Any]]:
    """Every finished span plus a metric record per instrument, as dicts."""
    events: list[dict[str, Any]] = [
        span.to_event() for span in telemetry.tracer.spans()
    ]
    for name, summary in telemetry.metrics.snapshot().items():
        events.append({"type": "metric", "name": name, **summary})
    return events


def write_events_jsonl(
    telemetry: Telemetry, path: str | os.PathLike
) -> Path:
    """Write :func:`span_events` as newline-delimited JSON; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        json.dumps(event, sort_keys=True, default=str)
        for event in span_events(telemetry)
    ]
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


def _thread_rows(spans: Sequence[Span]) -> dict[int, int]:
    """Map real thread idents to small stable row numbers (0 = first seen)."""
    rows: dict[int, int] = {}
    for span in spans:
        if span.thread_id not in rows:
            rows[span.thread_id] = len(rows)
    return rows


def chrome_trace(telemetry: Telemetry) -> dict[str, Any]:
    """The span tree in Chrome Trace Event Format (a JSON-ready dict).

    Spans become complete events (``"ph": "X"``) with ``ts``/``dur`` in
    microseconds relative to the tracer epoch; thread metadata events
    name each row.  The final metrics snapshot rides along under
    ``otherData`` (ignored by viewers, kept for humans).
    """
    spans = telemetry.tracer.spans()
    rows = _thread_rows(spans)
    pid = os.getpid()
    events: list[dict[str, Any]] = []
    for ident, row in rows.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": row,
                "args": {"name": f"thread-{row}" if row else "main"},
            }
        )
    for span in spans:
        args: dict[str, Any] = {str(k): v for k, v in span.tags.items()}
        if span.cpu_time is not None:
            args["cpu_ms"] = round(span.cpu_time * 1e3, 3)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span.start * 1e6, 1),
                "dur": round((span.duration or 0.0) * 1e6, 1),
                "pid": pid,
                "tid": rows[span.thread_id],
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"metrics": telemetry.metrics.snapshot()},
    }


def write_chrome_trace(
    telemetry: Telemetry, path: str | os.PathLike
) -> Path:
    """Write :func:`chrome_trace` as JSON; returns the path.

    The file loads directly in ``chrome://tracing`` ("Load" button) and
    in https://ui.perfetto.dev.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(chrome_trace(telemetry), sort_keys=True, default=str),
        encoding="utf-8",
    )
    return target


def load_chrome_trace(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Read a saved Chrome trace; returns its duration (``"X"``) events.

    Accepts both the object form (``{"traceEvents": [...]}``) this module
    writes and the bare JSON-array form other tools emit.  Metadata
    events are filtered out.  Raises
    :class:`~repro.errors.TelemetryError` when the file is missing, not
    JSON, or not a trace.
    """
    source = Path(path)
    try:
        payload = json.loads(source.read_text(encoding="utf-8"))
    except OSError as exc:
        raise TelemetryError(f"trace file {source} is unreadable: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"trace file {source} is not JSON: {exc}") from exc
    if isinstance(payload, dict):
        events: Iterable[Any] = payload.get("traceEvents", ())
    elif isinstance(payload, list):
        events = payload
    else:
        raise TelemetryError(
            f"trace file {source} is not a Chrome trace (got "
            f"{type(payload).__name__})"
        )
    duration_events = [
        event
        for event in events
        if isinstance(event, dict) and event.get("ph") == "X"
    ]
    if not duration_events:
        raise TelemetryError(
            f"trace file {source} contains no duration events"
        )
    return duration_events
