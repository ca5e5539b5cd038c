"""Sim-time tracing spans: a deterministic, near-zero-overhead span API.

The tracer is the second layer of the observability plane.  Spans are
timestamped off the engine's **simulated clock**, not the wall clock, which
buys a property real tracing systems cannot have: for a fixed seed the entire
span tree -- ids, nesting, names, labels, start/end times -- is byte-identical
across ``REPRO_JOBS`` and machines, so trace exports are
gateable in CI exactly like cost counters.  Wall-clock duration, when a caller
measures it, rides along as an *informational* field excluded from the
deterministic JSONL export.

Instrumentation sites call the module-level free functions::

    with tracing.span("pmc.construct", subproblems=5):
        ...
    tracing.record("pmc.solve", pod=3, selected=17, wall_seconds=w)

Both are no-ops (one attribute load + ``is None`` test) unless a
:class:`Tracer` is installed, which the engine does around :meth:`run` /
serve advances via :func:`activated` -- the hot probe path pays nothing when
tracing is off, preserving the 5M events/s serve gate.

Some instrumentation sites are inherently machine- or ``jobs``-dependent:
``pool.spawn`` only fires when a process pool is actually provisioned and
``shm.export`` only when a shared-memory segment is created, neither of
which happens at ``jobs=1``.  Those sites pass ``informational=True``:
informational spans draw ids from a separate (negative) counter, never
parent other spans, and are excluded from the deterministic JSONL export,
so the byte-gateable span stream stays identical across ``REPRO_JOBS``
while the spans remain visible in :meth:`Tracer.finished_spans` and the
chrome trace.

Exports: :meth:`Tracer.export_jsonl` (one sorted-key JSON object per span,
the byte-gateable form) and :func:`to_chrome_trace` /
:func:`spans_from_chrome_trace` (the ``chrome://tracing`` "trace event"
format and its inverse, round-trip tested).
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .. import contracts

__all__ = [
    "Span",
    "Tracer",
    "activated",
    "current_tracer",
    "record",
    "span",
    "to_chrome_trace",
    "spans_from_chrome_trace",
]


@dataclass
class Span:
    """One finished or open span on the simulated timeline.

    ``span_id`` is the creation index (0-based, per tracer), ``parent_id``
    the enclosing span's id or ``None`` at the root -- both deterministic
    because spans are only ever created from the single-threaded sim loop.
    ``wall_seconds`` is informational (machine-dependent) and excluded from
    the deterministic export.  ``informational`` marks whole spans whose
    very existence depends on the machine or ``REPRO_JOBS`` (pool spawns,
    shm exports): they carry *negative* ids from a separate counter so the
    deterministic 0-based sequence is untouched, and :meth:`Tracer.export_jsonl`
    drops them unless asked.
    """

    span_id: int
    name: str
    start: float
    parent_id: Optional[int] = None
    end: Optional[float] = None
    labels: Dict[str, object] = field(default_factory=dict)
    wall_seconds: float = 0.0
    informational: bool = False

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self, include_wall: bool = False) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "labels": dict(sorted(self.labels.items())),
        }
        if include_wall:
            payload["wall_seconds"] = self.wall_seconds
        if self.informational:
            payload["informational"] = True
        return payload


class Tracer:
    """Collects spans against a sim clock (anything with a ``now`` attribute).

    With no clock bound, timestamps default to 0.0 -- callers that only use
    explicit ``start``/``end`` overrides (or :func:`record` with both bounds)
    still produce meaningful spans.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._next_info_id = 0
        self._drained = 0

    # ------------------------------------------------------------------ time
    def _now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    # ----------------------------------------------------------------- spans
    @contextmanager
    def span(
        self,
        name: str,
        start: Optional[float] = None,
        informational: bool = False,
        **labels,
    ):
        """Open a span for the duration of the ``with`` body.

        ``start`` backdates the span (the engine stamps a window span with
        the window's *open* time while creating it at close time); the end is
        always the clock's value on exit.  Yields the :class:`Span` so the
        body can attach labels it only learns along the way.
        ``informational=True`` routes the span to the machine-dependent side
        stream (negative id, never a parent, excluded from the deterministic
        export).
        """
        sp = self._open(name, start, labels, informational)
        try:
            yield sp
        finally:
            self._close(sp)

    def record(
        self,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        wall_seconds: float = 0.0,
        informational: bool = False,
        **labels,
    ) -> Span:
        """Append an already-finished span (an instant event by default)."""
        now = self._now()
        sp = Span(
            span_id=self._take_id(informational),
            name=name,
            start=now if start is None else float(start),
            parent_id=self._stack[-1].span_id if self._stack else None,
            end=now if end is None else float(end),
            labels=dict(labels),
            wall_seconds=wall_seconds,
            informational=informational,
        )
        self._spans.append(sp)
        return sp

    def _take_id(self, informational: bool) -> int:
        # Informational spans burn ids from their own (negative) counter so
        # their presence or absence cannot shift the deterministic sequence.
        if informational:
            self._next_info_id += 1
            return -self._next_info_id
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _open(
        self,
        name: str,
        start: Optional[float],
        labels: Dict[str, object],
        informational: bool = False,
    ) -> Span:
        sp = Span(
            span_id=self._take_id(informational),
            name=name,
            start=self._now() if start is None else float(start),
            parent_id=self._stack[-1].span_id if self._stack else None,
            labels=dict(labels),
            informational=informational,
        )
        self._spans.append(sp)
        if not informational:
            self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = self._now()
        if sp.informational:
            return  # never on the stack, never a parent
        # Tolerate exception-unwound stacks: pop through to this span.
        while self._stack:
            top = self._stack.pop()
            if top is sp:
                break

    # --------------------------------------------------------------- exports
    def finished_spans(self) -> List[Span]:
        """Every closed span so far, in creation order (open spans excluded)."""
        return [sp for sp in self._spans if sp.end is not None]

    def drain(self) -> List[Span]:
        """Finished spans appended since the last drain (streaming writers)."""
        fresh = [sp for sp in self._spans[self._drained :] if sp.end is not None]
        self._drained = len(self._spans)
        return fresh

    def export_jsonl(
        self,
        spans: Optional[Iterable[Span]] = None,
        include_wall: bool = False,
        include_informational: bool = False,
    ) -> str:
        """One sorted-key JSON object per line; deterministic unless
        ``include_wall`` adds the informational wall-clock field or
        ``include_informational`` keeps the machine-dependent side stream."""
        chosen = self.finished_spans() if spans is None else list(spans)
        if not include_informational:
            chosen = [sp for sp in chosen if not sp.informational]
        return "".join(
            json.dumps(sp.to_dict(include_wall=include_wall), sort_keys=True) + "\n"
            for sp in chosen
        )


# ---------------------------------------------------------------------------
# module-global active tracer (the near-zero-overhead indirection)
#
# The actual global lives in ``repro.contracts`` -- the dependency-free seam
# layers below the observability plane use to emit spans without importing
# ``repro.obs`` (layer rule REP007).  These free functions are the
# obs-flavoured face of the same slot.
# ---------------------------------------------------------------------------


def current_tracer() -> Optional[Tracer]:
    return contracts.active_tracer()


def span(
    name: str,
    start: Optional[float] = None,
    informational: bool = False,
    **labels,
):
    """Context manager: a span on the active tracer, or a no-op without one."""
    tracer = contracts.active_tracer()
    if tracer is None:
        return nullcontext()
    return tracer.span(name, start=start, informational=informational, **labels)


def record(
    name: str,
    start: Optional[float] = None,
    end: Optional[float] = None,
    wall_seconds: float = 0.0,
    informational: bool = False,
    **labels,
) -> Optional[Span]:
    """A finished span on the active tracer, or ``None`` without one."""
    tracer = contracts.active_tracer()
    if tracer is None:
        return None
    return tracer.record(
        name,
        start=start,
        end=end,
        wall_seconds=wall_seconds,
        informational=informational,
        **labels,
    )


@contextmanager
def activated(tracer: Optional[Tracer]):
    """Install *tracer* as the process-global active tracer for the body.

    ``None`` simply runs the body untraced.  The previous tracer is restored
    on exit, so nested engines (snapshot windows inside an experiment
    harness) cannot leak spans into each other.
    """
    if tracer is None:
        yield None
        return
    previous = contracts.install_tracer(tracer)
    try:
        yield tracer
    finally:
        contracts.install_tracer(previous)


# ---------------------------------------------------------------------------
# chrome://tracing converter (and its inverse, for the round-trip gate)
# ---------------------------------------------------------------------------

def to_chrome_trace(spans: Iterable[Span], include_wall: bool = False) -> Dict[str, object]:
    """Render spans as Chrome "trace event format" complete events.

    Sim seconds map to trace microseconds.  ``args`` carries the span's
    labels plus the ``span_id``/``parent_id``/exact-bound bookkeeping that
    makes the conversion exactly invertible (:func:`spans_from_chrome_trace`)
    -- the ``ts``/``dur`` microsecond floats alone would round.
    """
    events: List[Dict[str, object]] = []
    for sp in spans:
        if sp.end is None:
            continue
        args: Dict[str, object] = {
            "labels": dict(sorted(sp.labels.items())),
            "span_id": sp.span_id,
            "parent_id": sp.parent_id,
            "start": sp.start,
            "end": sp.end,
        }
        if include_wall:
            args["wall_seconds"] = sp.wall_seconds
        if sp.informational:
            args["informational"] = True
        events.append(
            {
                "name": sp.name,
                "ph": "X",
                "ts": sp.start * 1e6,
                "dur": (sp.end - sp.start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def spans_from_chrome_trace(payload: Dict[str, object]) -> List[Span]:
    """Invert :func:`to_chrome_trace` (spans in ``span_id`` order)."""
    spans: List[Span] = []
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        start = float(args.get("start", float(event["ts"]) / 1e6))
        end = float(args.get("end", start + float(event["dur"]) / 1e6))
        spans.append(
            Span(
                span_id=int(args["span_id"]),
                name=str(event["name"]),
                start=start,
                parent_id=args.get("parent_id"),
                end=end,
                labels=dict(args.get("labels", {})),
                wall_seconds=float(args.get("wall_seconds", 0.0)),
                informational=bool(args.get("informational", False)),
            )
        )
    return sorted(spans, key=lambda sp: sp.span_id)
