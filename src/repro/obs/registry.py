"""Labeled metrics registry: counters, gauges, histograms, snapshot sources.

The registry is the metrics half of the observability plane
(:mod:`repro.obs`).  It follows the same determinism contract the cost model
does (:mod:`repro.core.costmodel`): every *semantic* series -- work counters,
detection-latency histograms, cache-hit ratios -- must be byte-identical
across ``REPRO_JOBS`` and machines for a fixed seed, while anything
wall-clock flavoured (event rates, build info) is registered with
``informational=True`` and excluded from the deterministic snapshot.

Three metric kinds, all label-aware:

* :class:`Counter` -- monotonically increasing integers (floats allowed but
  unusual), e.g. ``windows_closed`` or ``controller_cycles{mode="incremental"}``;
* :class:`Gauge` -- last-write-wins values, e.g. ``pmc_shard_cache_hit_ratio``;
* :class:`Histogram` -- fixed-bucket distributions with pinned boundaries,
  e.g. ``detection_latency_seconds`` over :data:`DETECTION_LATENCY_BUCKETS`.

Beyond its own metrics the registry *absorbs* existing counter stores as
**sources**: :meth:`MetricsRegistry.register_source` takes a callable
returning a flat ``{name: int}`` mapping (a :class:`~repro.core.costmodel.CostModel`'s
``as_dict``, a scheduler's telemetry view) that is merged into the counter
section at snapshot time -- no double bookkeeping on the hot path.

Snapshots come in two renderings: :meth:`MetricsRegistry.to_json` (sorted-key
JSON, the byte-gateable export) and :meth:`MetricsRegistry.to_prometheus`
(Prometheus text exposition for humans and scrapers).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "DETECTION_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Pinned latency-histogram boundaries (seconds, upper bounds; +Inf implied).
#: The grid brackets the paper's operating points: a 30 s aggregation window
#: (detection resolution) and a 600 s controller cycle.  Tests pin these
#: values -- changing them is a schema change, not a tweak.
DETECTION_LATENCY_BUCKETS: Tuple[float, ...] = (
    15.0,
    30.0,
    60.0,
    120.0,
    300.0,
    600.0,
    1800.0,
)

Number = Union[int, float]
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    """Canonical series key: label items as sorted ``(key, str(value))`` pairs."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, key: LabelKey) -> str:
    """Rendered series id, Prometheus style: ``name{k="v",...}``."""
    if not key:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return f"{name}{{{inner}}}"


def _format_bound(bound: float) -> str:
    """Bucket-boundary key: trim trailing zeros (``15.0`` -> ``"15"``)."""
    return f"{bound:g}"


class _Family:
    """Shared plumbing of one named metric family (all its label series)."""

    __slots__ = ("name", "help", "informational", "_series")

    kind = "untyped"

    def __init__(self, name: str, help: str = "", informational: bool = False):
        self.name = name
        self.help = help
        self.informational = informational
        self._series: Dict[LabelKey, object] = {}

    def series(self) -> Dict[str, object]:
        """Rendered ``{series_id: value}`` view in sorted series order."""
        return {
            _series_name(self.name, key): self._render(self._series[key])
            for key in sorted(self._series)
        }

    def _render(self, value):
        return value


class Counter(_Family):
    """Monotonic counter family; ``inc(amount, **labels)`` per series."""

    kind = "counter"

    def inc(self, amount: Number = 1, **labels) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> Number:
        return self._series.get(_label_key(labels), 0)

    def total(self) -> Number:
        """Sum over every label series of the family."""
        return sum(self._series.values())


class Gauge(_Family):
    """Last-write-wins value family; ``set(value, **labels)`` per series."""

    kind = "gauge"

    def set(self, value: Number, **labels) -> None:
        self._series[_label_key(labels)] = value

    def value(self, default: Number = 0, **labels) -> Number:
        return self._series.get(_label_key(labels), default)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, num_buckets: int):
        self.bucket_counts = [0] * (num_buckets + 1)  # trailing slot is +Inf
        self.count = 0
        self.sum = 0.0


class Histogram(_Family):
    """Fixed-bucket distribution family (cumulative rendering, like Prometheus).

    Buckets are **upper bounds** in ascending order; an implicit ``+Inf``
    bucket always exists.  Boundaries are part of the export schema, so they
    are fixed at construction and re-registration with different buckets is an
    error.
    """

    kind = "histogram"

    __slots__ = ("buckets",)

    def __init__(
        self,
        name: str,
        buckets: Tuple[float, ...],
        help: str = "",
        informational: bool = False,
    ):
        super().__init__(name, help, informational)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a non-empty ascending tuple")
        self.buckets = tuple(float(b) for b in buckets)

    def observe(self, value: Number, **labels) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        slot = len(self.buckets)  # +Inf unless a finite bound catches it
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                slot = i
                break
        series.bucket_counts[slot] += 1
        series.count += 1
        series.sum += value

    def _render(self, series: _HistogramSeries) -> Dict[str, object]:
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, series.bucket_counts):
            running += count
            cumulative[_format_bound(bound)] = running
        cumulative["+Inf"] = series.count
        return {"buckets": cumulative, "count": series.count, "sum": series.sum}


class MetricsRegistry:
    """One process-local bag of metric families plus snapshot-time sources.

    ``counter`` / ``gauge`` / ``histogram`` create-or-fetch a family by name
    (kind mismatches raise -- a name means one thing).  Families and sources
    created with ``informational=True`` carry wall-clock-flavoured data and
    are dropped from ``snapshot(deterministic=True)``, the view the
    byte-identity gates run on.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._sources: List[Tuple[str, Callable[[], Mapping[str, Number]], bool]] = []

    # -------------------------------------------------------------- families
    def counter(self, name: str, help: str = "", informational: bool = False) -> Counter:
        return self._family(Counter, name, help, informational)

    def gauge(self, name: str, help: str = "", informational: bool = False) -> Gauge:
        return self._family(Gauge, name, help, informational)

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DETECTION_LATENCY_BUCKETS,
        help: str = "",
        informational: bool = False,
    ) -> Histogram:
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(f"metric {name!r} already registered as {existing.kind}")
            if existing.buckets != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{existing.buckets}, got {tuple(buckets)}"
                )
            return existing
        family = Histogram(name, tuple(buckets), help, informational)
        self._families[name] = family
        return family

    def _family(self, cls, name: str, help: str, informational: bool):
        existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(f"metric {name!r} already registered as {existing.kind}")
            return existing
        family = cls(name, help, informational)
        self._families[name] = family
        return family

    # --------------------------------------------------------------- sources
    def register_source(
        self,
        name: str,
        provider: Callable[[], Mapping[str, Number]],
        informational: bool = False,
    ) -> None:
        """Merge ``provider()`` into the counter section at snapshot time.

        Re-registering a name replaces the previous provider (the engine
        re-registers its per-cycle views).  Keys colliding across sources or
        with direct counters are summed, matching
        :meth:`~repro.core.costmodel.CostModel.merge` semantics.
        """
        self._sources = [entry for entry in self._sources if entry[0] != name]
        self._sources.append((name, provider, informational))

    # ------------------------------------------------------------- snapshots
    def snapshot(self, deterministic: bool = False) -> Dict[str, Dict[str, object]]:
        """Nested ``{"counters": ..., "gauges": ..., "histograms": ...}`` view.

        ``deterministic=True`` drops informational families and sources; the
        result is then byte-identical across jobs counts and machines for a fixed seed (the property the obs test matrix gates).
        """
        counters: Dict[str, Number] = {}
        gauges: Dict[str, Number] = {}
        histograms: Dict[str, object] = {}
        for name in sorted(self._families):
            family = self._families[name]
            if deterministic and family.informational:
                continue
            target = {
                "counter": counters,
                "gauge": gauges,
                "histogram": histograms,
            }[family.kind]
            target.update(family.series())
        for _, provider, informational in sorted(self._sources, key=lambda e: e[0]):
            if deterministic and informational:
                continue
            for key, value in provider().items():
                counters[key] = counters.get(key, 0) + value
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def to_json(self, deterministic: bool = False, indent: Optional[int] = None) -> str:
        """Sorted-key JSON rendering of :meth:`snapshot` (byte-gateable)."""
        return json.dumps(
            self.snapshot(deterministic=deterministic),
            sort_keys=True,
            indent=indent,
            separators=(",", ": ") if indent else (",", ":"),
        )

    def to_prometheus(self) -> str:
        """Prometheus text exposition (informational series included)."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            if isinstance(family, Histogram):
                for key in sorted(family._series):
                    series = family._series[key]
                    running = 0
                    for bound, count in zip(family.buckets, series.bucket_counts):
                        running += count
                        le_key = key + (("le", _format_bound(bound)),)
                        lines.append(f"{_series_name(name + '_bucket', le_key)} {running}")
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(f"{_series_name(name + '_bucket', inf_key)} {series.count}")
                    lines.append(f"{_series_name(name + '_sum', key)} {series.sum}")
                    lines.append(f"{_series_name(name + '_count', key)} {series.count}")
            else:
                for series_id, value in family.series().items():
                    lines.append(f"{series_id} {value}")
        for source_name, provider, _ in sorted(self._sources, key=lambda e: e[0]):
            lines.append(f"# TYPE repro_source_{source_name} counter")
            for key, value in sorted(provider().items()):
                lines.append(f"{key} {value}")
        return "\n".join(lines) + "\n"

    # ----------------------------------------------------------- conveniences
    def value(self, name: str, default: Number = 0) -> Number:
        """Total of a counter family (summed over labels) or a plain-series
        gauge, falling back to source-provided counters of that name."""
        family = self._families.get(name)
        if isinstance(family, Counter):
            return family.total()
        if isinstance(family, Gauge):
            return family.value(default)
        total: Number = 0
        found = False
        for _, provider, _ in self._sources:
            values = provider()
            if name in values:
                total += values[name]
                found = True
        return total if found else default
