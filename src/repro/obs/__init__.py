"""``repro.obs`` — mission observability: tracing + metrics.

One bundle, :class:`Observability`, threads through the whole stack
(EMR runtime, ILD detector, checksum guard, fault injector, the
``Radshield`` facade). Components hold a reference and guard every
instrumentation site with ``if self.obs.enabled:`` — the disabled
default, :data:`NULL_OBS`, costs one attribute read per site, which is
what keeps tracing-off inside the <2 % overhead budget.

See ``docs/observability.md`` for the record schema, the metric
catalog, and the operator story (reading an incident timeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    TraceRecord,
    TraceRecorder,
    merge_task_records,
    read_trace,
    write_records,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_TRACER",
    "Observability",
    "TRACE_SCHEMA_VERSION",
    "TraceRecord",
    "TraceRecorder",
    "merge_task_records",
    "read_trace",
    "summarize_records",
    "write_records",
]


@dataclass
class Observability:
    """Tracer + metrics, passed together as one ``obs`` parameter."""

    tracer: TraceRecorder = field(default_factory=lambda: NULL_TRACER)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Master switch every instrumentation site checks first.
    enabled: bool = True

    @classmethod
    def off(cls) -> "Observability":
        """The shared disabled bundle (see :data:`NULL_OBS`)."""
        return NULL_OBS

    @classmethod
    def on(
        cls,
        trace_sink: "str | Path | object | None" = None,
        ring_size: "int | None" = 4096,
        clock: "object | None" = None,
    ) -> "Observability":
        """An enabled bundle: ring-buffer tracing (plus an optional
        JSONL sink) and a fresh metrics registry."""
        return cls(
            tracer=TraceRecorder(sink=trace_sink, ring_size=ring_size, clock=clock),
            metrics=MetricsRegistry(),
        )


#: The disabled singleton every component defaults to.
NULL_OBS = Observability(tracer=NULL_TRACER, metrics=MetricsRegistry(), enabled=False)


from .summarize import summarize_records  # noqa: E402  (re-export)
