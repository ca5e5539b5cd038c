"""Timed probe emission: per-pinger probe events at configurable rates.

Each pinger of the current controller cycle becomes a *stream*: a recurring
event that, every ``batch_seconds`` of simulated time (jittered so the fleet
does not fire in lockstep, exactly like staggered real pingers), spends the
probe budget accrued since its last firing.  The budget is
``probes_per_second * elapsed`` with fractional carry, distributed round-robin
over the pinger's pinglist entries from a persistent cursor -- over time every
entry receives its fair share, matching the paper's "loop over the pinglist"
behaviour (§3.1) at any rate.

Outcomes are pushed as ``(path_index, time, sent, lost)`` batches into a sink
(the engine wires the :class:`~repro.engine.aggregator.StreamAggregator`
here).  Per-event firings use the vectorized
:meth:`~repro.simulation.ProbeSimulator.probe_path_batch` kernel, so
failure-free paths -- the vast majority -- cost one dictionary lookup each.

Two scheduling regimes share the stream model, byte-identical in every
observable (probe outcomes, random draws, counters):

* **per-event** -- each stream is a :meth:`~repro.engine.loop.EventLoop.schedule_every`
  recurrence: one heap event and one Python callback per firing.  One
  persistent callable (the stream object itself) serves every firing; no
  closures are allocated on the hot path.
* **coalesced** (``coalesce=True``) -- the scheduler registers itself as the
  loop's *batch source* and keeps the streams in a private mini-heap keyed
  ``(time, tie)``.  The loop lets it drain every firing falling strictly
  before the next regular event in one pass: budgets and jitter are drawn
  per firing in pop order (reproducing the per-event sequence exactly), but
  the round-robin expansion to ``(path, count, start_sequence)`` rows, the
  sequence-counter bumps, and the probing itself run as columnar numpy
  passes through :meth:`~repro.simulation.ProbeSimulator.probe_paths_bulk`,
  which answers clean and deterministic-loss rows without per-row Python and
  random-loss rows one compiled kernel call each, in row order -- on every
  observable what ``probe_path_batch`` returns row by row.
  Below ``bulk_batch_threshold`` rows the expansion falls back to the scalar
  per-entry loop (same arrays, same order, same bytes).

When the controller installs a new cycle the engine calls
:meth:`ProbeScheduler.set_pingers`; the previous cycle's streams are retired
immediately (recurrences cancelled / tier heap rebuilt) with a generation
counter as backstop, and fresh streams start at the current instant.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Mapping, Optional, TYPE_CHECKING

import numpy as np

from .loop import EventLoop, RecurringEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..monitor.pinger import Pinger
    from ..simulation.network import ProbeSimulator

__all__ = ["ProbeScheduler"]

# Priority convention of the engine's event classes at equal timestamps:
# fault transitions run first (the loop default, 0), then window closes, then
# controller cycles, then probe batches -- so a probe fired exactly at a
# boundary lands in the *new* window, against the *new* pinglists.
PRIORITY_FAULT = 0
PRIORITY_WINDOW = 10
PRIORITY_CYCLE = 20
PRIORITY_PROBE = 30


class _PingerStream:
    """Per-pinger probing state: budget carry, entry cursor, sequence counters.

    The stream object itself is the recurring event's callable -- calling it
    fires one probe batch -- so the per-event path allocates no closure per
    firing.  ``generation`` backstops retirement: a stale stream returns
    ``False``, stopping its recurrence.
    """

    __slots__ = (
        "scheduler",
        "pinger",
        "entries",
        "config",
        "confirm_losses",
        "rate",
        "carry",
        "cursor",
        "sequence",
        "last_fired",
        "generation",
        "slice_start",
    )

    def __init__(
        self, scheduler: "ProbeScheduler", pinger: "Pinger", start_time: float, generation: int
    ):
        self.scheduler = scheduler
        self.pinger = pinger
        self.entries = list(pinger.pinglist.entries)
        self.config = pinger.probe_config()
        self.confirm_losses = pinger.confirm_losses
        self.rate = 0.0
        self.carry = 0.0
        self.cursor = 0
        # Per-entry next probe sequence (drives source-port/DSCP entropy).
        # The coalesced tier uses the scheduler's shared columnar array
        # instead (``slice_start`` locates this stream's slice).
        self.sequence: List[int] = [0] * len(self.entries)
        self.last_fired = start_time
        self.generation = generation
        self.slice_start = 0

    def __call__(self) -> Optional[bool]:
        scheduler = self.scheduler
        if self.generation != scheduler._generation:
            return False  # a newer controller cycle replaced this stream
        scheduler._fire(self)
        return None


class ProbeScheduler:
    """Fires per-pinger probe batches at a configurable rate with jitter."""

    def __init__(
        self,
        loop: EventLoop,
        rng: np.random.Generator,
        probes_per_second: Optional[float] = None,
        batch_seconds: float = 1.0,
        jitter_fraction: float = 0.1,
        batched: bool = True,
        coalesce: bool = False,
        coalesce_horizon: Optional[float] = None,
        bulk_batch_threshold: int = 64,
    ):
        if batch_seconds <= 0:
            raise ValueError("batch_seconds must be positive")
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must lie in [0, 1)")
        if probes_per_second is not None and probes_per_second <= 0:
            raise ValueError("probes_per_second must be positive")
        if coalesce_horizon is not None and coalesce_horizon <= 0:
            raise ValueError("coalesce_horizon must be positive")
        if bulk_batch_threshold < 0:
            raise ValueError("bulk_batch_threshold must be non-negative")
        self._loop = loop
        self._rng = rng
        self._rate_override = probes_per_second
        self.batch_seconds = float(batch_seconds)
        self.jitter_fraction = float(jitter_fraction)
        self._batched = batched
        self._coalesce = coalesce
        self.coalesce_horizon = coalesce_horizon
        self.bulk_batch_threshold = int(bulk_batch_threshold)
        self._streams: Dict[str, _PingerStream] = {}
        self._recurring: List[RecurringEvent] = []
        self._generation = 0
        # Coalesced-tier state: a private (time, tie, stream) mini-heap plus
        # columnar per-entry tables shared by all streams of one generation.
        self._tier_heap: List[tuple] = []
        self._tie = itertools.count()
        self._entry_paths = np.zeros(0, dtype=np.int64)
        self._entry_seq = np.zeros(0, dtype=np.int64)
        self._simulator: Optional["ProbeSimulator"] = None
        self.sink: Optional[Callable[[int, float, int, int], None]] = None
        self.sink_batch: Optional[
            Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]
        ] = None
        self.probes_sent = 0
        self.probes_lost = 0
        self.batches_fired = 0
        # Informational drain statistics (not part of the deterministic cost
        # counters: they differ between scheduling regimes by design).
        self.drains = 0
        self.drain_rows_total = 0
        self.drain_rows_max = 0
        if coalesce:
            loop.set_batch_source(self)

    # ------------------------------------------------------------- pinger set
    def set_pingers(self, pingers: Mapping[str, "Pinger"]) -> None:
        """Install the pingers of a (new) controller cycle.

        Streams of the previous cycle are retired immediately: per-event
        recurrences are cancelled (the loop compacts their heap entries) and
        the coalesced tier's heap is rebuilt, with the generation counter as
        backstop.  Every new stream's first firing lands one jittered batch
        interval from now, staggered per pinger.
        """
        self._generation += 1
        generation = self._generation
        now = self._loop.clock.now
        for recurring in self._recurring:
            recurring.cancel()
        self._recurring = []
        streams: Dict[str, _PingerStream] = {}
        for name, pinger in pingers.items():
            if not pinger.pinglist.entries:
                continue
            stream = _PingerStream(self, pinger, now, generation)
            stream.rate = self._rate_for(stream)
            streams[name] = stream
        self._streams = streams
        if self._coalesce:
            self._tier_heap = []
            offset = 0
            paths: List[int] = []
            for stream in streams.values():
                stream.slice_start = offset
                offset += len(stream.entries)
                paths.extend(entry.path_index for entry in stream.entries)
            self._entry_paths = np.asarray(paths, dtype=np.int64)
            self._entry_seq = np.zeros(offset, dtype=np.int64)
            self._simulator = (
                next(iter(streams.values())).pinger.simulator if streams else None
            )
            for stream in streams.values():
                heapq.heappush(
                    self._tier_heap,
                    (now + self._jittered_interval(), next(self._tie), stream),
                )
        else:
            for stream in streams.values():
                self._recurring.append(
                    self._loop.schedule_every(
                        self._jittered_interval,
                        stream,
                        PRIORITY_PROBE,
                        first_delay=self._jittered_interval(),
                    )
                )

    def _rate_for(self, stream: _PingerStream) -> float:
        if self._rate_override is not None:
            return self._rate_override
        return stream.pinger.pinglist.probes_per_second

    def _jittered_interval(self) -> float:
        jitter = self.jitter_fraction
        if jitter == 0.0:
            return self.batch_seconds
        return self.batch_seconds * (1.0 + jitter * float(self._rng.uniform(-1.0, 1.0)))

    # ------------------------------------------------- per-event firing path
    def _fire(self, stream: _PingerStream) -> None:
        now = self._loop.clock.now
        elapsed = now - stream.last_fired
        stream.last_fired = now
        budget = stream.carry + stream.rate * elapsed
        probes = int(budget)
        stream.carry = budget - probes
        if probes <= 0 or not stream.entries:
            return
        self.batches_fired += 1
        num_entries = len(stream.entries)
        # Round-robin from the persistent cursor: the first (probes % n)
        # entries after the cursor get one extra probe.
        base, extra = divmod(probes, num_entries)
        send = stream.pinger.probe_entry_batched if self._batched else stream.pinger.probe_entry
        for offset in range(num_entries):
            count = base + (1 if offset < extra else 0)
            if count == 0:
                break
            position = (stream.cursor + offset) % num_entries
            entry = stream.entries[position]
            sent, lost = send(entry, count, stream.sequence[position], stream.config)
            stream.sequence[position] += count
            self.probes_sent += sent
            self.probes_lost += lost
            if self.sink is not None:
                self.sink(entry.path_index, now, sent, lost)
        stream.cursor = (stream.cursor + extra) % num_entries if num_entries else 0

    # ------------------------------------------------- coalesced (batch) tier
    def next_time(self) -> Optional[float]:
        """Earliest pending probe firing (the loop's batch-source protocol)."""
        return self._tier_heap[0][0] if self._tier_heap else None

    def drain(self, until: float, strict: bool = False, limit: Optional[int] = None) -> int:
        """Process every stream firing due before ``until`` in one pass.

        Budget, carry, cursor, and jitter draws are computed per firing in
        mini-heap pop order -- exactly the order the per-event path fires in
        -- but nothing probes until the end of the drain, when all accumulated
        firings expand into one columnar ``(path, count, start_sequence)``
        batch.  ``strict`` excludes firings at exactly ``until`` (used by the
        loop to stop before a regular event at that timestamp);
        ``coalesce_horizon`` caps a single drain's time span.
        """
        heap = self._tier_heap
        if not heap:
            return 0
        bound = until
        inclusive = not strict
        if self.coalesce_horizon is not None:
            cap = heap[0][0] + self.coalesce_horizon
            if cap < bound:
                bound, inclusive = cap, True
        loop = self._loop
        clock = loop.clock
        generation = self._generation
        fired = 0
        f_streams: List[_PingerStream] = []
        f_times: List[float] = []
        f_base: List[int] = []
        f_extra: List[int] = []
        f_cursor: List[int] = []
        while heap:
            head = heap[0][0]
            if head > bound or (not inclusive and head == bound):
                break
            if limit is not None and fired >= limit:
                break
            time, _, stream = heapq.heappop(heap)
            clock.advance(time)
            loop.events_processed += 1
            fired += 1
            if stream.generation != generation:
                continue  # backstop; set_pingers rebuilds the tier heap
            elapsed = time - stream.last_fired
            stream.last_fired = time
            budget = stream.carry + stream.rate * elapsed
            probes = int(budget)
            stream.carry = budget - probes
            if probes > 0:
                self.batches_fired += 1
                num_entries = len(stream.entries)
                base, extra = divmod(probes, num_entries)
                f_streams.append(stream)
                f_times.append(time)
                f_base.append(base)
                f_extra.append(extra)
                f_cursor.append(stream.cursor)
                stream.cursor = (stream.cursor + extra) % num_entries
            heapq.heappush(
                heap, (time + self._jittered_interval(), next(self._tie), stream)
            )
        if f_streams:
            self._emit(f_streams, f_times, f_base, f_extra, f_cursor)
        return fired

    def _emit(
        self,
        streams: List[_PingerStream],
        times: List[float],
        bases: List[int],
        extras: List[int],
        cursors: List[int],
    ) -> None:
        """Expand accumulated firings into one columnar probe batch."""
        num_firings = len(streams)
        n_entries = np.fromiter((len(s.entries) for s in streams), np.int64, num_firings)
        base = np.fromiter(bases, np.int64, num_firings)
        extra = np.fromiter(extras, np.int64, num_firings)
        # A firing touches all n entries when every entry's share is >= 1,
        # otherwise only the `extra` entries after the cursor (the per-entry
        # loop breaks at the first zero count).
        rows_per_firing = np.where(base > 0, n_entries, extra)
        total_rows = int(rows_per_firing.sum())
        self.drains += 1
        self.drain_rows_total += total_rows
        if total_rows > self.drain_rows_max:
            self.drain_rows_max = total_rows
        if total_rows < self.bulk_batch_threshold:
            self._emit_scalar(streams, times, bases, extras, cursors)
            return
        cursor = np.fromiter(cursors, np.int64, num_firings)
        t_arr = np.fromiter(times, np.float64, num_firings)
        firing_of_row = np.repeat(np.arange(num_firings), rows_per_firing)
        row_start = np.cumsum(rows_per_firing) - rows_per_firing
        offset = np.arange(total_rows, dtype=np.int64) - row_start[firing_of_row]
        count = base[firing_of_row] + (offset < extra[firing_of_row])
        position = (cursor[firing_of_row] + offset) % n_entries[firing_of_row]
        slice_start = np.fromiter((s.slice_start for s in streams), np.int64, num_firings)
        entry_index = slice_start[firing_of_row] + position
        # Start sequences: rows hitting the same entry within one drain must
        # chain (each starts where the previous left off).  Group rows by
        # entry (stable, so firing order is preserved inside a group) and
        # prefix-sum the counts within each group.
        order = np.argsort(entry_index, kind="stable")
        entry_sorted = entry_index[order]
        count_sorted = count[order]
        before = np.cumsum(count_sorted) - count_sorted
        group_first = np.ones(total_rows, dtype=bool)
        group_first[1:] = entry_sorted[1:] != entry_sorted[:-1]
        # `before` is globally non-decreasing, so propagating each group's
        # first value with a running maximum yields the group baseline.
        group_base = np.maximum.accumulate(np.where(group_first, before, -1))
        start_seq = np.empty(total_rows, dtype=np.int64)
        start_seq[order] = self._entry_seq[entry_sorted] + (before - group_base)
        num_entries_total = len(self._entry_seq)
        self._entry_seq += np.bincount(
            entry_index, weights=count, minlength=num_entries_total
        ).astype(np.int64)
        path_indices = self._entry_paths[entry_index]
        sent, lost = self._simulator.probe_paths_bulk(
            path_indices,
            count,
            start_seq,
            configs=[s.config for s in streams],
            config_of=firing_of_row,
            confirms=[s.confirm_losses for s in streams],
        )
        self._deliver(path_indices, t_arr[firing_of_row], sent, lost)

    def _emit_scalar(
        self,
        streams: List[_PingerStream],
        times: List[float],
        bases: List[int],
        extras: List[int],
        cursors: List[int],
    ) -> None:
        """Small-drain fallback: the per-entry loop over the shared tables.

        Byte-identical to :meth:`_emit` (same row order, same sequence
        arrays, same probing kernel) -- only the expansion is scalar.
        """
        row_paths: List[int] = []
        row_times: List[float] = []
        row_sent: List[int] = []
        row_lost: List[int] = []
        entry_seq = self._entry_seq
        for stream, time, base, extra, cursor in zip(streams, times, bases, extras, cursors):
            num_entries = len(stream.entries)
            config = stream.config
            for offset in range(num_entries):
                count = base + (1 if offset < extra else 0)
                if count == 0:
                    break
                position = (cursor + offset) % num_entries
                entry_index = stream.slice_start + position
                entry = stream.entries[position]
                sent, lost = stream.pinger.probe_entry_batched(
                    entry, count, int(entry_seq[entry_index]), config
                )
                entry_seq[entry_index] += count
                row_paths.append(entry.path_index)
                row_times.append(time)
                row_sent.append(sent)
                row_lost.append(lost)
        self._deliver(
            np.asarray(row_paths, dtype=np.int64),
            np.asarray(row_times, dtype=np.float64),
            np.asarray(row_sent, dtype=np.int64),
            np.asarray(row_lost, dtype=np.int64),
        )

    def _deliver(
        self, paths: np.ndarray, times: np.ndarray, sent: np.ndarray, lost: np.ndarray
    ) -> None:
        self.probes_sent += int(sent.sum())
        self.probes_lost += int(lost.sum())
        if self.sink_batch is not None:
            self.sink_batch(paths, times, sent, lost)
        elif self.sink is not None:
            sink = self.sink
            for i in range(len(paths)):
                sink(int(paths[i]), float(times[i]), int(sent[i]), int(lost[i]))

    # ------------------------------------------------------------------ views
    @property
    def num_streams(self) -> int:
        return len(self._streams)

    def telemetry(self) -> Dict[str, int]:
        """Deterministic probe counters, shaped for a metrics-registry source.

        Byte-identical across backends, jobs counts and machines for a fixed
        seed and scheduling regime (the same contract as the engine's cost
        model, which these join in
        :meth:`~repro.engine.TelemetryEngine.build_result`).
        """
        return {
            "probes_sent": self.probes_sent,
            "probes_lost": self.probes_lost,
            "probe_batches_fired": self.batches_fired,
        }

    def drain_telemetry(self) -> Dict[str, int]:
        """Informational coalescing statistics (regime-dependent by design)."""
        return {
            "coalesced_drains": self.drains,
            "coalesced_rows_total": self.drain_rows_total,
            "coalesced_rows_max": self.drain_rows_max,
        }
