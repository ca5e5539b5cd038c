"""Simulated time and the binary-heap event loop.

The paper's monitoring system is inherently temporal: pingers probe
continuously, the diagnoser closes a 30-second aggregation window, the
controller re-plans every 10 minutes.  :class:`SimClock` carries the current
simulated time and :class:`EventLoop` orders callbacks on a binary heap keyed
by ``(time, priority, sequence)`` -- the sequence counter makes processing
order fully deterministic, which is what lets a seeded engine run reproduce
byte-identical detection timelines.

A *frozen* clock turns the loop into a zero-duration executor: events may be
scheduled and run at the current instant but any attempt to advance time
raises.  The legacy snapshot pipeline (``DetectorSystem.run_window``) runs as
exactly that -- a one-tick engine run on a frozen clock.

A *batch source* (:meth:`EventLoop.set_batch_source`) is a coalescing timer
tier for homogeneous high-rate events (the probe streams).  The loop asks it
for its next due time and, whenever that precedes every regular heap event,
lets it drain **all** firings due before the next regular event in one
vectorized pass instead of N heap pops + N callbacks.  Because every regular
engine event (fault transition, window close, controller cycle) outranks
probes at equal timestamps, draining strictly up to the next regular event
preserves the ``(time, priority, sequence)`` ordering contract exactly.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Protocol

__all__ = ["SimClock", "EventHandle", "BatchEventSource", "EventLoop"]


class SimClock:
    """Monotonic simulated time, optionally frozen at the current instant."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._frozen = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Pin the clock: advancing past the current instant becomes an error."""
        self._frozen = True

    def advance(self, to: float) -> None:
        if to < self._now:
            raise ValueError(f"cannot rewind simulated time from {self._now} to {to}")
        if self._frozen and to > self._now:
            raise RuntimeError(
                f"frozen clock cannot advance from {self._now} to {to}; "
                "snapshot runs must schedule every event at the current instant"
            )
        self._now = to


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("time", "priority", "_cancelled", "_loop")

    def __init__(self, time: float, priority: int, loop: Optional["EventLoop"] = None):
        self.time = time
        self.priority = priority
        self._cancelled = False
        self._loop = loop

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        if self._cancelled:
            return
        self._cancelled = True
        if self._loop is not None:
            self._loop._note_cancelled()


class BatchEventSource(Protocol):
    """A coalescing tier of homogeneous timed events (duck-typed protocol).

    ``next_time()`` returns the earliest pending firing time (``None`` when
    idle); ``drain(until, strict=..., limit=...)`` processes every firing with
    time ``< until`` (``<= until`` when ``strict`` is false), advancing the
    loop's clock and ``events_processed`` itself, and returns the number of
    logical firings processed.
    """

    def next_time(self) -> Optional[float]:  # pragma: no cover - protocol
        ...

    def drain(
        self, until: float, strict: bool = False, limit: Optional[int] = None
    ) -> int:  # pragma: no cover - protocol
        ...


class EventLoop:
    """Deterministic discrete-event scheduler over a :class:`SimClock`.

    Events due at the same simulated time run in ascending ``priority`` order
    (fault transitions before window closes before probe batches, by the
    engine's convention) and, within a priority, in scheduling order.
    """

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        self._heap: List[tuple] = []
        self._sequence = itertools.count()
        self._cancelled = 0
        self._batch_source: Optional[BatchEventSource] = None
        self.events_processed = 0

    # -------------------------------------------------------------- schedule
    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule an event at {time} before the current time {self.clock.now}"
            )
        handle = EventHandle(time, priority, self)
        heapq.heappush(self._heap, (time, priority, next(self._sequence), handle, callback))
        return handle

    def schedule_after(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.clock.now + delay, callback, priority)

    # ------------------------------------------------------------------ state
    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events still in the heap.

        O(1): a live counter tracks cancellations instead of scanning the
        heap on every call.
        """
        return len(self._heap) - self._cancelled

    def telemetry(self) -> dict:
        """Loop counters for a metrics-registry source.

        ``loop_events_processed`` is deterministic (pinned across backends by
        the streaming differential tests); ``loop_pending_events`` reflects
        heap occupancy at snapshot time, which is also deterministic because
        snapshots are taken at window boundaries of the sim timeline.
        """
        return {
            "loop_events_processed": self.events_processed,
            "loop_pending_events": self.pending,
        }

    def next_event_time(self) -> Optional[float]:
        self._drop_cancelled()
        regular = self._heap[0][0] if self._heap else None
        if self._batch_source is not None:
            batch = self._batch_source.next_time()
            if batch is not None and (regular is None or batch < regular):
                return batch
        return regular

    def set_batch_source(self, source: Optional[BatchEventSource]) -> None:
        """Install (or clear) the loop's coalescing batch-event tier."""
        self._batch_source = source

    def _note_cancelled(self) -> None:
        # Eagerly compact once cancelled entries outnumber live ones, so a
        # mass cancellation does not linger in the heap until the (possibly
        # far-future) times of its entries surface.
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap):
            self._heap = [entry for entry in self._heap if not entry[3].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1

    # -------------------------------------------------------------------- run
    def step(self) -> bool:
        """Run the next event; returns ``False`` when nothing is pending.

        When the batch source's next firing precedes every regular event it
        is drained one logical firing at a time, so single-stepping remains
        exact under coalescing.
        """
        self._drop_cancelled()
        regular = self._heap[0][0] if self._heap else None
        if self._batch_source is not None:
            batch = self._batch_source.next_time()
            if batch is not None and (regular is None or batch < regular):
                return self._batch_source.drain(batch, strict=False, limit=1) > 0
        if not self._heap:
            return False
        time, _, _, handle, callback = heapq.heappop(self._heap)
        handle._loop = None  # a later cancel() must not desync the counter
        self.clock.advance(time)
        self.events_processed += 1
        callback()
        return True

    def run_until(self, deadline: float) -> int:
        """Run every event due at or before ``deadline``; returns events run.

        The clock is left at ``deadline`` (or its starting point, if later)
        even when the last event fired earlier, so back-to-back ``run_until``
        calls partition simulated time cleanly.

        With a batch source installed, all of its firings falling strictly
        before the next regular heap event are drained in one pass.  The
        strict bound is what keeps coalescing exact: probe firings at the
        *same* timestamp as a fault transition / window close / controller
        cycle must run after it (higher priority value), against the state
        that event installs.
        """
        processed = 0
        source = self._batch_source
        while True:
            self._drop_cancelled()
            regular = self._heap[0][0] if self._heap else None
            if source is not None:
                batch = source.next_time()
                if (
                    batch is not None
                    and batch <= deadline
                    and (regular is None or batch < regular)
                ):
                    if regular is None or regular > deadline:
                        processed += source.drain(deadline, strict=False)
                    else:
                        processed += source.drain(regular, strict=True)
                    continue
            if regular is None or regular > deadline:
                break
            time, _, _, handle, callback = heapq.heappop(self._heap)
            handle._loop = None  # a later cancel() must not desync the counter
            self.clock.advance(time)
            self.events_processed += 1
            callback()
            processed += 1
        if deadline > self.clock.now:
            self.clock.advance(deadline)
        return processed

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the heap (bounded by ``max_events`` when given)."""
        processed = 0
        while (max_events is None or processed < max_events) and self.step():
            processed += 1
        return processed
