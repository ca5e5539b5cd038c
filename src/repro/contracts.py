"""The repo's written invariants, as declarable source-level markers.

The reproduction's headline guarantee -- selections, counters, snapshots and
traces byte-identical across ``REPRO_JOBS`` and machines -- rests on a
handful of conventions:

* all randomness flows through :class:`repro.simulation.rng.SeededStreams`,
* wall-clock reads are confined to *informational* outputs (never gates),
* only picklable, slotted, plain-data types cross the
  :func:`repro.parallel.pool_map` boundary,
* worker processes never trace (spans are parent-side only), and
* ``REPRO_*`` environment reads happen only in the designated resolvers.

This module is where those conventions become *declarations* the static
analyzer (``repro lint``, :mod:`repro.analysis`) can check instead of prose it
cannot.  It is a **leaf**: it imports nothing from ``repro``, so every layer
-- including :mod:`repro.core`, which must not depend on the observability
plane -- may import it (rule REP007).

Markers
-------
``@informational_wall(reason)``
    Declares that a function reads the wall clock *only* to produce
    informational output (an ``elapsed_seconds`` field, a benchmark's
    recorded wall time).  Wall-clock calls outside such functions are
    REP002 findings.

``@informational_fields(*names)``
    Declares dataclass/record fields that carry wall-clock-flavoured data,
    mirroring how :class:`repro.obs.registry.MetricsRegistry` excludes
    ``informational=True`` series from deterministic snapshots.  Tests
    assert these fields never appear in deterministic exports.

``@pool_payload``
    Declares a class that is shipped across the process-pool boundary.
    REP003 requires such classes to be slotted (``__slots__`` or
    ``@dataclass(slots=True)``) so their pickled form stays plain data.

Tracer seam
-----------
:func:`trace_span` / :func:`trace_record` are the *dependency-free* face of
the sim-time tracer: :mod:`repro.obs.tracing` installs the active tracer here
(via :func:`install_tracer`) and lower layers emit spans through this seam
without importing ``repro.obs``.  When no tracer is installed both calls cost
one global load and an ``is None`` test.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Optional, Tuple, TypeVar

__all__ = [
    "informational_wall",
    "informational_fields",
    "pool_payload",
    "is_pool_payload",
    "wall_clock_reason",
    "declared_informational_fields",
    "install_tracer",
    "active_tracer",
    "trace_span",
    "trace_record",
]

T = TypeVar("T")

#: Attribute set by :func:`informational_wall` (the linter checks the
#: *decorator name* statically; the attribute is the runtime counterpart).
WALL_ATTR = "__repro_informational_wall__"
FIELDS_ATTR = "__repro_informational_fields__"
PAYLOAD_ATTR = "__repro_pool_payload__"


# ---------------------------------------------------------------------------
# invariant markers
# ---------------------------------------------------------------------------

def informational_wall(reason: str) -> Callable[[T], T]:
    """Mark a function whose wall-clock reads feed informational output only.

    The *reason* is mandatory and should say where the measurement surfaces
    (e.g. ``"PMCStats.elapsed_seconds is informational; gates use
    cost_counters()"``).  The decorator returns the function unchanged --
    decorated module-level functions stay picklable for the process pool.
    """
    if not isinstance(reason, str) or not reason.strip():
        raise ValueError("informational_wall requires a non-empty reason")

    def mark(obj: T) -> T:
        setattr(obj, WALL_ATTR, reason)
        return obj

    return mark


def informational_fields(*names: str) -> Callable[[type], type]:
    """Declare record fields as informational (excluded from deterministic views).

    Composable: applying it twice extends the tuple.  The declaration lives
    on the class as ``__repro_informational_fields__``.
    """
    if not names or any(not isinstance(n, str) or not n for n in names):
        raise ValueError("informational_fields requires at least one field name")

    def mark(cls: type) -> type:
        existing = tuple(cls.__dict__.get(FIELDS_ATTR, ()))
        setattr(cls, FIELDS_ATTR, existing + tuple(names))
        return cls

    return mark


def declared_informational_fields(cls: type) -> Tuple[str, ...]:
    """Every informational field declared on *cls* or its bases."""
    fields: Tuple[str, ...] = ()
    for base in reversed(cls.__mro__):
        fields += tuple(base.__dict__.get(FIELDS_ATTR, ()))
    return fields


def pool_payload(cls: type) -> type:
    """Declare a class as crossing the :func:`repro.parallel.pool_map` boundary.

    REP003 statically requires the class body to declare ``__slots__`` (or
    use ``@dataclass(slots=True)``); the runtime pickle round-trip pins live
    in the pod-shard test suite.
    """
    setattr(cls, PAYLOAD_ATTR, True)
    return cls


def is_pool_payload(cls: type) -> bool:
    return bool(getattr(cls, PAYLOAD_ATTR, False))


def wall_clock_reason(obj: Any) -> Optional[str]:
    """The :func:`informational_wall` reason attached to *obj*, if any."""
    return getattr(obj, WALL_ATTR, None)


# ---------------------------------------------------------------------------
# tracer seam (installed by repro.obs.tracing; consumed by lower layers)
# ---------------------------------------------------------------------------

_ACTIVE_TRACER: Optional[Any] = None


def install_tracer(tracer: Optional[Any]) -> Optional[Any]:
    """Install (or clear, with ``None``) the process-global active tracer.

    Returns the previously installed tracer so callers can restore it --
    :func:`repro.obs.tracing.activated` is the only intended caller.
    """
    global _ACTIVE_TRACER
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    return previous


def active_tracer() -> Optional[Any]:
    return _ACTIVE_TRACER


def trace_span(
    name: str,
    start: Optional[float] = None,
    informational: bool = False,
    **labels,
):
    """Context manager: a sim-time span on the active tracer, or a no-op.

    The dependency-free twin of :func:`repro.obs.tracing.span`; layers below
    the observability plane (e.g. :mod:`repro.core.pmc`) emit their spans
    through this seam so the layer DAG stays acyclic (REP007).
    ``informational=True`` is for spans whose existence depends on the
    machine or ``REPRO_JOBS`` (pool spawns, shm exports): the tracer keeps
    them out of the deterministic export and id sequence.
    """
    tracer = _ACTIVE_TRACER
    if tracer is None:
        return nullcontext()
    return tracer.span(name, start=start, informational=informational, **labels)


def trace_record(
    name: str,
    start: Optional[float] = None,
    end: Optional[float] = None,
    wall_seconds: float = 0.0,
    informational: bool = False,
    **labels,
):
    """An instant/finished span on the active tracer, or ``None`` without one."""
    tracer = _ACTIVE_TRACER
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
