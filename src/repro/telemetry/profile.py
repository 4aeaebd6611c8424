"""Plain-text profiling views: the profile report and an ASCII trace.

:func:`profile_report` turns one run's telemetry into the table a person
reads first: per-stage wall/CPU/self time, execution vs cache-hit counts,
stage-duration percentiles, and the artifact-cache totals.  *Self* time is a span's wall time minus its children's — the
time attributable to the stage itself rather than to nested work — which
is what makes the "top stages" ranking honest for hierarchical spans.

:func:`render_trace` draws the duration events of a saved Chrome trace
(see :func:`repro.telemetry.export.load_chrome_trace`) as an ASCII
timeline, one bar per span, grouped by thread — a quick look without
leaving the terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.telemetry.hooks import Telemetry
from repro.telemetry.spans import Span

__all__ = ["StageProfile", "stage_profiles", "profile_report", "render_trace"]

#: Spans named ``stage:<name>`` are pipeline stages (see the runner).
STAGE_PREFIX = "stage:"


@dataclass
class StageProfile:
    """Aggregated timings of one pipeline stage across a trace.

    Attributes
    ----------
    name:
        The stage name (without the ``stage:`` span prefix).
    executions, cache_hits:
        How many spans recorded the stage executing vs being served from
        the artifact cache.
    wall, self_time, cpu:
        Total wall seconds, wall minus nested children (self), and CPU
        seconds across all executions.
    """

    name: str
    executions: int = 0
    cache_hits: int = 0
    wall: float = 0.0
    self_time: float = 0.0
    cpu: float = 0.0
    errors: int = 0
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float | None:
        """Cache hits / lookups for this stage (``None`` when never looked up)."""
        lookups = self.executions + self.cache_hits
        if not lookups:
            return None
        return self.cache_hits / lookups


def _self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Per-span self time: duration minus the sum of child durations."""
    child_total: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None and span.duration is not None:
            child_total[span.parent_id] = (
                child_total.get(span.parent_id, 0.0) + span.duration
            )
    return {
        span.span_id: max(
            0.0, (span.duration or 0.0) - child_total.get(span.span_id, 0.0)
        )
        for span in spans
    }


def stage_profiles(spans: Sequence[Span]) -> list[StageProfile]:
    """Aggregate ``stage:*`` spans into per-stage profiles.

    Returns profiles sorted by total self time, descending — the order a
    profiler should present them in.
    """
    self_times = _self_times(spans)
    profiles: dict[str, StageProfile] = {}
    for span in spans:
        if not span.name.startswith(STAGE_PREFIX):
            continue
        name = str(span.tags.get("stage", span.name[len(STAGE_PREFIX):]))
        profile = profiles.setdefault(name, StageProfile(name))
        outcome = span.tags.get("outcome")
        if outcome == "cached":
            profile.cache_hits += 1
            continue
        profile.executions += 1
        profile.wall += span.duration or 0.0
        profile.self_time += self_times.get(span.span_id, 0.0)
        profile.cpu += span.cpu_time or 0.0
        if "error" in span.tags:
            profile.errors += 1
    return sorted(
        profiles.values(), key=lambda p: (-p.self_time, p.name)
    )


def _format_bytes(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{size:.1f} GiB"  # pragma: no cover - unreachable


def profile_report(
    telemetry: Telemetry,
    *,
    top: int | None = None,
    cache_stats: Mapping[str, Any] | None = None,
) -> str:
    """The human-readable profile of one traced run.

    Parameters
    ----------
    telemetry:
        The telemetry that observed the run.  Disabled telemetry yields
        a one-line report saying so (rather than an empty table).
    top:
        Show only the *top* stages by self time (default: all).
    cache_stats:
        An :meth:`repro.pipeline.cache.ArtifactCache.stats` snapshot for
        the cache totals line; falls back to the ``cache.*`` metric
        counters when omitted.
    """
    if not telemetry.enabled:
        return (
            "profile: telemetry was disabled for this run "
            "(pass telemetry=Telemetry() or --profile)"
        )
    spans = telemetry.tracer.spans()
    profiles = stage_profiles(spans)
    if top is not None:
        shown = profiles[:top]
    else:
        shown = profiles
    snapshot = telemetry.metrics.snapshot()

    run_wall = max(
        (s.duration or 0.0 for s in spans if s.parent_id is None),
        default=sum(p.wall for p in profiles),
    )
    lines: list[str] = []
    title = (
        f"Profile — {len(spans)} span(s), "
        f"{sum(p.executions for p in profiles)} stage execution(s), "
        f"wall {run_wall * 1e3:.2f} ms"
    )
    lines.append(title)
    lines.append("=" * max(len(title), 64))

    header = (
        f"{'stage':<12} {'runs':>4} {'hits':>4} {'wall ms':>9} "
        f"{'self ms':>9} {'cpu ms':>9} {'hit ratio':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for profile in shown:
        ratio = profile.hit_ratio
        ratio_text = "-" if ratio is None else f"{ratio * 100:.0f}%"
        flag = " !" if profile.errors else ""
        lines.append(
            f"{profile.name:<12} {profile.executions:>4} "
            f"{profile.cache_hits:>4} {profile.wall * 1e3:>9.2f} "
            f"{profile.self_time * 1e3:>9.2f} {profile.cpu * 1e3:>9.2f} "
            f"{ratio_text:>9}{flag}"
        )
    if len(shown) < len(profiles):
        lines.append(
            f"... {len(profiles) - len(shown)} more stage(s) omitted "
            f"(top={top})"
        )
    if not profiles:
        lines.append("(no stage spans recorded)")

    stage_seconds = snapshot.get("pipeline.stage_seconds", {})
    if stage_seconds.get("count"):
        lines.append(
            "stage duration percentiles: "
            f"p50 {stage_seconds['p50'] * 1e3:.2f} ms, "
            f"p90 {stage_seconds['p90'] * 1e3:.2f} ms, "
            f"p99 {stage_seconds['p99'] * 1e3:.2f} ms"
        )

    if cache_stats is None:
        counters = {
            key: snapshot.get(f"cache.{key}", {}).get("value", 0)
            for key in ("hits", "misses", "stores", "evictions")
        }
        counters["disk_bytes"] = snapshot.get("cache.bytes_written", {}).get(
            "value", 0
        )
        cache_stats = counters
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    ratio_text = (
        f"{cache_stats.get('hits', 0) / lookups * 100:.1f}%"
        if lookups
        else "n/a"
    )
    lines.append(
        f"cache: {cache_stats.get('hits', 0)} hit(s), "
        f"{cache_stats.get('misses', 0)} miss(es) ({ratio_text} hit ratio), "
        f"{cache_stats.get('stores', 0)} store(s), "
        f"{cache_stats.get('evictions', 0)} eviction(s), "
        f"{_format_bytes(cache_stats.get('disk_bytes', 0))} on disk"
    )
    return "\n".join(lines)


def render_trace(
    events: Sequence[Mapping[str, Any]],
    *,
    width: int = 60,
    max_events: int = 80,
) -> str:
    """ASCII timeline of Chrome-trace duration events, grouped by thread.

    Each event renders as one bar positioned on a shared time axis; the
    longest *max_events* events are kept when a trace is larger, so the
    output stays terminal-sized.
    """
    if not events:
        return "(empty trace)"
    events = sorted(events, key=lambda e: (e.get("tid", 0), e.get("ts", 0)))
    if len(events) > max_events:
        keep = set(
            id(e)
            for e in sorted(
                events, key=lambda e: -float(e.get("dur", 0))
            )[:max_events]
        )
        omitted = len(events) - max_events
        events = [e for e in events if id(e) in keep]
    else:
        omitted = 0

    start = min(float(e.get("ts", 0)) for e in events)
    end = max(
        float(e.get("ts", 0)) + float(e.get("dur", 0)) for e in events
    )
    total = max(end - start, 1e-9)
    name_width = min(24, max(len(str(e.get("name", ""))) for e in events))

    lines = [
        f"trace — {len(events)} event(s), span {total / 1e3:.2f} ms"
        + (f" ({omitted} shorter event(s) omitted)" if omitted else "")
    ]
    current_tid: Any = object()
    for event in events:
        tid = event.get("tid", 0)
        if tid != current_tid:
            current_tid = tid
            lines.append(f"-- thread {tid} --")
        ts = float(event.get("ts", 0))
        dur = float(event.get("dur", 0))
        offset = int((ts - start) / total * width)
        length = max(1, int(dur / total * width))
        length = min(length, width - offset) or 1
        bar = " " * offset + "#" * length
        name = str(event.get("name", ""))[:name_width]
        lines.append(
            f"{name:<{name_width}} |{bar:<{width}}| {dur / 1e3:9.2f} ms"
        )
    return "\n".join(lines)
