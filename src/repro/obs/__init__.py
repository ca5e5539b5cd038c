"""The unified observability plane: metrics, sim-time tracing, introspection.

Three layers, one import (``from repro.obs import Observability``):

* :mod:`repro.obs.registry` -- :class:`MetricsRegistry`: labeled counters,
  gauges and histograms, absorbing existing
  :class:`~repro.core.costmodel.CostModel` / scheduler / kernel counter
  stores as snapshot-time *sources*; deterministic sorted JSON plus
  Prometheus text exposition.
* :mod:`repro.obs.tracing` -- :class:`Tracer`: sim-clock spans
  (``span("pmc.solve", pod=3)``) wired around engine windows, controller
  cycles, PMC shard solves, aggregator closes and watchdog churn replays.
  Byte-identical across ``REPRO_JOBS`` settings; JSONL and
  ``chrome://tracing`` exports.
* :mod:`repro.obs.introspect` -- live serve-mode introspection: streaming
  metrics JSONL, status lines, the one-window cProfile hook.

:class:`Observability` bundles the three for the engine.  Tracing defaults
off (the free-function span API costs one ``is None`` test when inactive);
the ``REPRO_TRACE`` environment variable turns it on globally, following the
same resolution pattern as ``REPRO_JOBS`` / ``REPRO_MP_START`` so CI can run a
whole tier-1 leg traced without threading flags anywhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from .export import COUNTERS_SCHEMA, REPORT_SCHEMA, counters_block, write_bench_report
from .introspect import (
    MetricsJSONWriter,
    WindowProfiler,
    format_status_line,
    write_snapshot,
)
from .registry import (
    DETECTION_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import (
    Span,
    Tracer,
    activated,
    current_tracer,
    record,
    span,
    spans_from_chrome_trace,
    to_chrome_trace,
)

__all__ = [
    "COUNTERS_SCHEMA",
    "DETECTION_LATENCY_BUCKETS",
    "REPORT_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsJSONWriter",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
    "WindowProfiler",
    "activated",
    "counters_block",
    "current_tracer",
    "format_status_line",
    "record",
    "span",
    "spans_from_chrome_trace",
    "to_chrome_trace",
    "tracing_enabled",
    "write_bench_report",
    "write_snapshot",
]

_TRACE_ENV = "REPRO_TRACE"
_FALSEY = {"", "0", "false", "no", "off"}


def tracing_enabled(default: bool = False) -> bool:
    """Resolve the global tracing switch from ``REPRO_TRACE``.

    Mirrors :func:`repro.parallel.resolve_jobs`: the environment supplies a
    process-wide default that explicit arguments (CLI ``--trace``) override.
    """
    raw = os.environ.get(_TRACE_ENV)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSEY


@dataclass
class Observability:
    """The bundle a :class:`~repro.engine.TelemetryEngine` carries.

    ``registry`` always exists (registering sources and bumping counters is
    cheap); ``tracer`` is ``None`` unless tracing was requested, keeping the
    span free functions on their no-op path; ``profile_path`` arms the
    one-window :class:`WindowProfiler`.
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Optional[Tracer] = None
    profile_path: Optional[str] = None

    @classmethod
    def create(
        cls,
        tracing: Optional[bool] = None,
        profile_path: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "Observability":
        """Build a bundle; ``tracing=None`` defers to ``REPRO_TRACE``."""
        enabled = tracing_enabled() if tracing is None else tracing
        return cls(
            registry=registry if registry is not None else MetricsRegistry(),
            tracer=Tracer() if enabled else None,
            profile_path=profile_path,
        )

    @classmethod
    def from_env(cls) -> "Observability":
        """The engine's default bundle: registry always, tracer per env."""
        return cls.create()

    def bind_clock(self, clock) -> None:
        """Point the tracer at a sim clock (first binder wins)."""
        if self.tracer is not None and self.tracer.clock is None:
            self.tracer.clock = clock
