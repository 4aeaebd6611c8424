"""Counters, gauges, and histograms behind a :class:`MetricsRegistry`.

Three instrument kinds cover the pipeline's observability needs:

* :class:`Counter` — monotonically increasing totals (cache hits, bytes
  written);
* :class:`Gauge` — a settable level with a high-watermark, used with
  :meth:`Gauge.add` as an in-flight counter whose ``max`` is the
  parallelism actually achieved;
* :class:`Histogram` — distribution of observations (stage and request
  durations) held in a :class:`~repro.stats.sketch.QuantileSketch`, so
  its p50/p90/p99 cover every observation within 1% relative error and
  snapshots from separate threads or processes merge exactly.

All instruments are thread-safe (one lock per instrument), and every
instrument has a zero-overhead null twin so the disabled-telemetry path
costs nothing (see :mod:`repro.telemetry.hooks`).

>>> registry = MetricsRegistry.for_pipeline()
>>> registry.counter("cache.hits").inc()
1
>>> registry.histogram("pipeline.stage_seconds").observe(0.25)
>>> registry.snapshot()["cache.hits"]["value"]
1
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import TelemetryError
from repro.stats.sketch import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PIPELINE_METRICS",
]

#: The metrics :meth:`MetricsRegistry.for_pipeline` pre-registers, with
#: the instrument kind each name maps to.
PIPELINE_METRICS = {
    "pipeline.stage_seconds": "histogram",
    "pipeline.stages_executed": "counter",
    "pipeline.stages_cached": "counter",
    "pipeline.parallelism": "gauge",
    "cache.hits": "counter",
    "cache.misses": "counter",
    "cache.stores": "counter",
    "cache.evictions": "counter",
    "cache.bytes_written": "counter",
    "manifest.writes": "counter",
}


class Counter:
    """A thread-safe monotonically increasing total."""

    __slots__ = ("name", "_lock", "_value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int | float = 1) -> int | float:
        """Add *amount* (must be >= 0); returns the new total."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int | float:
        """The current total."""
        return self._value

    def summary(self) -> dict[str, Any]:
        """Snapshot: ``{"kind": "counter", "value": ...}``."""
        return {"kind": self.kind, "value": self._value}


class Gauge:
    """A thread-safe settable level tracking its high-watermark.

    ``set`` records an absolute level; ``add`` moves it relatively —
    ``add(+1)``/``add(-1)`` around a work item turns the gauge into an
    in-flight counter whose :attr:`max` is the peak concurrency reached.
    """

    __slots__ = ("name", "_lock", "_value", "_max")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        """Set the level to *value*."""
        with self._lock:
            self._value = value
            self._max = max(self._max, value)

    def add(self, delta: float) -> float:
        """Move the level by *delta*; returns the new level."""
        with self._lock:
            self._value += delta
            self._max = max(self._max, self._value)
            return self._value

    @property
    def value(self) -> float:
        """The current level."""
        return self._value

    @property
    def max(self) -> float:
        """The highest level ever reached."""
        return self._max

    def summary(self) -> dict[str, Any]:
        """Snapshot: ``{"kind": "gauge", "value": ..., "max": ...}``."""
        return {"kind": self.kind, "value": self._value, "max": self._max}


class Histogram:
    """Distribution of observations, summarized by a :class:`QuantileSketch`.

    Every observation lands in the sketch, so percentiles cover the
    whole stream within the sketch's relative error ``alpha`` (1%), at
    any count and any scale from microseconds to minutes.  Exact
    ``count``/``total``/``max`` ride alongside.  The sketch state is a
    pure function of the observed multiset, so the ``sketch`` payloads
    of summaries taken in separate registries, workers or processes
    merge exactly through :meth:`QuantileSketch.merge`.
    """

    __slots__ = ("name", "_lock", "_sketch", "_count", "_total", "_max")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._sketch = QuantileSketch()
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._sketch.add(value)
            self._count += 1
            self._total += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """How many observations were recorded."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self._total

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self._total / self._count if self._count else 0.0

    def summary(self) -> dict[str, Any]:
        """Snapshot with count/mean/max, the sketch state, and
        p50/p90/p99 when non-empty."""
        with self._lock:
            sketch = self._sketch.copy()
            count, total, peak = self._count, self._total, self._max
        summary: dict[str, Any] = {
            "kind": self.kind,
            "count": count,
            "total": total,
            "mean": total / count if count else 0.0,
            "max": peak,
            "sketch": sketch.to_dict(),
        }
        if count:
            summary.update(
                p50=sketch.quantile(0.5),
                p90=sketch.quantile(0.9),
                p99=sketch.quantile(0.99),
            )
        return summary


class MetricsRegistry:
    """Named instruments, created on first use and snapshottable.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a name creates the instrument, later calls return the same one.
    Asking for an existing name as a different kind is a
    :class:`~repro.errors.TelemetryError` (it would silently split the
    data).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Any] = {}

    @classmethod
    def for_pipeline(cls) -> "MetricsRegistry":
        """A registry with every :data:`PIPELINE_METRICS` pre-registered."""
        registry = cls()
        for name, kind in PIPELINE_METRICS.items():
            getattr(registry, kind)(name)
        return registry

    def _get_or_create(self, name: str, kind: str, factory) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise TelemetryError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter registered under *name* (created on first use)."""
        return self._get_or_create(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under *name* (created on first use)."""
        return self._get_or_create(name, "gauge", lambda: Gauge(name))

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under *name* (created on first use)."""
        return self._get_or_create(name, "histogram", lambda: Histogram(name))

    def names(self) -> tuple[str, ...]:
        """Every registered metric name, sorted."""
        with self._lock:
            return tuple(sorted(self._instruments))

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Name → :meth:`summary` for every registered instrument."""
        with self._lock:
            instruments = dict(self._instruments)
        return {
            name: instruments[name].summary() for name in sorted(instruments)
        }
