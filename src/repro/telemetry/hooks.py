"""The :class:`Telemetry` facade and its zero-overhead null twin.

Instrumented code (:mod:`repro.pipeline`, the CLI) takes an optional
``telemetry=`` parameter and normalizes it through :func:`ensure`::

    tel = ensure(telemetry)          # None -> the shared NULL_TELEMETRY
    with tel.tracer.span("work"):
        tel.metrics.counter("items").inc()

With the default ``None`` every call lands on a shared, stateless no-op
object — no clocks read, no locks taken, nothing allocated — so the
instrumentation can stay inline on hot paths.  Passing
``Telemetry()`` switches the exact same call sites to real recording.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.telemetry.log import NULL_LOGGER, NullLogger, StructuredLogger
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY", "ensure"]


class _NullCounter:
    """Counter twin that discards increments."""

    __slots__ = ()

    kind = "counter"
    name = ""
    value = 0

    def inc(self, amount: int | float = 1) -> int:
        return 0

    def summary(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": 0}


class _NullHistogram:
    """Histogram twin that discards observations."""

    __slots__ = ()

    kind = "histogram"
    name = ""
    count = 0
    total = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> dict[str, Any]:
        return {"kind": self.kind, "count": 0}


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry:
    """Registry twin: every lookup returns a shared inert instrument."""

    __slots__ = ()

    def counter(self, name: str) -> _NullCounter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def histogram(self, name: str) -> _NullHistogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def names(self) -> tuple[str, ...]:
        """Always empty."""
        return ()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Always empty."""
        return {}


class Telemetry:
    """One tracing + metrics context threaded through a pipeline run.

    Attributes
    ----------
    tracer:
        The :class:`~repro.telemetry.tracer.Tracer` recording the span
        tree.
    metrics:
        The :class:`~repro.telemetry.metrics.MetricsRegistry`; by default
        pre-registered with the pipeline metrics
        (:data:`~repro.telemetry.metrics.PIPELINE_METRICS`).
    log:
        The :class:`~repro.telemetry.log.StructuredLogger` recording
        leveled NDJSON events; by default bound to :attr:`tracer` so
        events carry the emitting thread's current span id.

    Examples
    --------
    >>> tel = Telemetry()
    >>> with tel.tracer.span("stage:analyze", stage="analyze"):
    ...     tel.metrics.counter("pipeline.stages_executed").inc()
    1
    >>> tel.enabled
    True
    """

    #: True when spans and metrics are actually recorded.  A plain class
    #: attribute (not a property): hot paths branch on it per stage.
    enabled = True

    def __init__(
        self,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        log: StructuredLogger | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry.for_pipeline()
        )
        self.log = (
            log if log is not None else StructuredLogger(tracer=self.tracer)
        )


class NullTelemetry(Telemetry):
    """The disabled telemetry: shared null tracer + null registry.

    All instances behave identically; use the module-level
    :data:`NULL_TELEMETRY` singleton (what :func:`ensure` hands out for
    ``None``).
    """

    #: Always False: spans and metrics are discarded.
    enabled = False

    def __init__(self) -> None:
        self.tracer: NullTracer = NULL_TRACER  # type: ignore[assignment]
        self.metrics: NullMetricsRegistry = (  # type: ignore[assignment]
            NullMetricsRegistry()
        )
        self.log: NullLogger = NULL_LOGGER  # type: ignore[assignment]


#: Process-wide shared disabled telemetry.
NULL_TELEMETRY = NullTelemetry()


def ensure(telemetry: Optional[Telemetry]) -> Telemetry:
    """Normalize an optional ``telemetry=`` argument (None → no-op)."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
