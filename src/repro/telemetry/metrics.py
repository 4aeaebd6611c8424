"""Counters and histograms behind a :class:`MetricsRegistry`.

Two instrument kinds cover the pipeline's and the server's
observability needs:

* :class:`Counter` — monotonically increasing totals (cache hits, bytes
  written);
* :class:`Histogram` — distribution of observations (stage and request
  durations) held in one :class:`~repro.stats.sketch.RunningStat`, the
  package's one streaming summary: its p50/p90/p99 cover every
  observation within 1% relative error, snapshots from separate
  workers or processes merge exactly, and the summary's ``total`` is
  ``mean × count``.

All instruments are thread-safe (one lock per instrument), because the
``repro serve`` worker threads record into one shared registry.  Every
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
from repro.stats.sketch import RunningStat

__all__ = [
    "Counter",
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
    "cache.hits": "counter",
    "cache.misses": "counter",
    "cache.stores": "counter",
    "cache.evictions": "counter",
    "cache.bytes_written": "counter",
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


class Histogram:
    """Distribution of observations, summarized by a :class:`RunningStat`.

    Percentiles cover the whole stream within the stat's sketch error
    ``alpha`` (1%), at any scale from microseconds to minutes; ``count``,
    ``mean`` and ``max`` are exact, and ``total`` is ``mean × count``
    (the stat keeps a running mean, not a sum).  The ``sketch`` payloads
    of summaries from separate registries, workers or processes merge
    exactly through :meth:`~repro.stats.sketch.QuantileSketch.merge`.
    """

    __slots__ = ("name", "_lock", "_stat")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._stat = RunningStat()

    def observe(self, value: float) -> None:
        """Record one observation (a non-finite one raises StatsError)."""
        value = float(value)
        with self._lock:
            self._stat.add(value)

    @property
    def count(self) -> int:
        """How many observations were recorded."""
        return self._stat.count

    @property
    def total(self) -> float:
        """Sum of all observations, as ``mean × count``."""
        return self._stat.mean * self._stat.count

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self._stat.mean

    def summary(self) -> dict[str, Any]:
        """Snapshot with count/total/mean/max, the sketch state, and
        p50/p90/p99 when non-empty."""
        with self._lock:
            stat = self._stat.copy()
        count = stat.count
        summary: dict[str, Any] = {
            "kind": self.kind,
            "count": count,
            "total": stat.mean * count,
            "mean": stat.mean,
            "max": stat.max if count else 0.0,
            "sketch": stat.sketch.to_dict(),
        }
        if count:
            summary.update(
                p50=stat.quantile(0.5),
                p90=stat.quantile(0.9),
                p99=stat.quantile(0.99),
            )
        return summary


class MetricsRegistry:
    """Named instruments, created on first use and snapshottable.

    ``counter``/``histogram`` are get-or-create: the first call
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
