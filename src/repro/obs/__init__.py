"""repro.obs — the tiered observability contract.

The pieces of one contract:

* :mod:`repro.obs.level` — how much a run records
  (``off``/``counters``/``series``/``full``), carried in
  :class:`repro.core.config.SystemParams` and consulted by the
  simulator; ``full`` is byte-identical to the pre-contract behaviour.
* :mod:`repro.obs.probe` — the one instrumentation point of a
  configured system: created by the first observer, it wraps the
  step, shell, bus, fabric, checkpoint and fault hooks once per
  instance and hands typed ``on_*`` events to its consumers (the span
  tracer and :class:`repro.trace.oplog.OpLog`).
* :mod:`repro.obs.spans` — the one span type: :class:`SpanEvent` and
  the bounded :class:`SpanRecorder` with Chrome-trace/Perfetto export,
  used on the wall clock by the layers above the simulator
  (runner/supervisor/sweep service/ingest).
* :mod:`repro.obs.tracer` — :class:`SpanTracer`, a recorder on the
  simulator clock fed by the probe (``repro trace`` on the CLI).
* :mod:`repro.obs.metrics` — typed counters/gauges/histograms with
  stable names, aggregated by the runner and the resilience
  supervisor into canonical JSON metrics blocks.

See ``docs/observability.md`` for the full contract.
"""

from repro.obs.level import LEVELS, ObservabilityLevel, resolve_level
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import CHROME_TRACE_SCHEMA, SpanEvent, SpanRecorder
from repro.obs.tracer import SpanTracer

__all__ = [
    "ObservabilityLevel",
    "LEVELS",
    "resolve_level",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanEvent",
    "SpanRecorder",
    "SpanTracer",
    "CHROME_TRACE_SCHEMA",
]
