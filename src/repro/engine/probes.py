"""Timed probe emission: per-pinger probe streams at configurable rates.

Each pinger of the current controller cycle becomes a *stream* that, every
``batch_seconds`` of simulated time (jittered so the fleet does not fire in
lockstep, exactly like staggered real pingers), spends the probe budget
accrued since its last firing.  The budget is ``probes_per_second * elapsed``
with fractional carry, distributed round-robin over the pinger's pinglist
entries from a persistent cursor -- over time every entry receives its fair
share, matching the paper's "loop over the pinglist" behaviour (§3.1) at any
rate.

The scheduler is the event loop's *batch source*: it keeps the streams in a
private mini-heap keyed ``(time, tie)`` and the loop lets it drain every
firing falling strictly before the next regular event in one pass.  Budgets
and jitter are drawn per firing in pop order, but the round-robin expansion
to ``(path, count, start_sequence)`` rows, the sequence-counter bumps and the
probing itself run as columnar numpy passes through
:meth:`~repro.simulation.ProbeSimulator.probe_paths_bulk`, which answers
clean and deterministic-loss rows without per-row Python and random-loss rows
one compiled kernel call each, in row order.  Outcomes leave as one columnar
``sink(paths, times, sent, lost)`` call per drain (the engine wires
:meth:`~repro.engine.aggregator.StreamAggregator.record_batch` here).

The reference this is held to is the one-heap-event-per-firing scheduler in
``tests/per_event_oracle.py`` (scalar round-robin, one
:meth:`~repro.simulation.ProbeSimulator.probe_path_batch` call per row): the
differential tests require every observable -- probe outcomes, random draws,
counters -- to match it byte for byte at any drain size.

When the controller installs a new cycle the engine calls
:meth:`ProbeScheduler.set_pingers`: the mini-heap and the per-entry tables
are rebuilt from the new pingers, which retires every stream of the previous
cycle, and fresh streams start at the current instant.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Mapping, Optional, TYPE_CHECKING

import numpy as np

from .loop import EventLoop

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
    """Per-pinger probing state: rate, budget carry and entry cursor.

    The per-entry sequence counters live in the scheduler's shared columnar
    array; ``slice_start`` locates this stream's slice of it.
    """

    __slots__ = (
        "num_entries",
        "config",
        "confirm_losses",
        "rate",
        "carry",
        "cursor",
        "last_fired",
        "slice_start",
    )

    def __init__(self, pinger: "Pinger", rate: float, start_time: float, slice_start: int):
        self.num_entries = len(pinger.pinglist.entries)
        self.config = pinger.probe_config()
        self.confirm_losses = pinger.confirm_losses
        self.rate = rate
        self.carry = 0.0
        self.cursor = 0
        self.last_fired = start_time
        self.slice_start = slice_start


class ProbeScheduler:
    """The event loop's batch source: drains per-pinger probe firings columnar."""

    def __init__(
        self,
        loop: EventLoop,
        rng: np.random.Generator,
        probes_per_second: Optional[float] = None,
        batch_seconds: float = 1.0,
        jitter_fraction: float = 0.1,
        coalesce_horizon: Optional[float] = None,
    ):
        if batch_seconds <= 0:
            raise ValueError("batch_seconds must be positive")
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError("jitter_fraction must lie in [0, 1)")
        if probes_per_second is not None and probes_per_second <= 0:
            raise ValueError("probes_per_second must be positive")
        if coalesce_horizon is not None and coalesce_horizon <= 0:
            raise ValueError("coalesce_horizon must be positive")
        self._loop = loop
        self._rng = rng
        self._rate_override = probes_per_second
        self.batch_seconds = float(batch_seconds)
        self.jitter_fraction = float(jitter_fraction)
        self.coalesce_horizon = coalesce_horizon
        self._streams: Dict[str, _PingerStream] = {}
        # A private (time, tie, stream) mini-heap plus columnar per-entry
        # tables shared by all streams of one controller cycle.
        self._tier_heap: List[tuple] = []
        self._tie = itertools.count()
        self._entry_paths = np.zeros(0, dtype=np.int64)
        self._entry_seq = np.zeros(0, dtype=np.int64)
        self._simulator: Optional["ProbeSimulator"] = None
        self.sink: Optional[
            Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]
        ] = None
        self.probes_sent = 0
        self.probes_lost = 0
        self.batches_fired = 0
        # Informational drain statistics (not part of the deterministic cost
        # counters: they vary with the coalescing horizon by design).
        self.drains = 0
        self.drain_rows_total = 0
        self.drain_rows_max = 0
        loop.set_batch_source(self)

    # ------------------------------------------------------------- pinger set
    def set_pingers(self, pingers: Mapping[str, "Pinger"]) -> None:
        """Install the pingers of a (new) controller cycle.

        The mini-heap and the per-entry tables are rebuilt from scratch, so
        no stream of the previous cycle can fire again.  Every new stream's
        first firing lands one jittered batch interval from now, staggered
        per pinger.
        """
        now = self._loop.clock.now
        streams: Dict[str, _PingerStream] = {}
        paths: List[int] = []
        self._simulator = None
        for name, pinger in pingers.items():
            entries = pinger.pinglist.entries
            if not entries:
                continue
            rate = self._rate_override
            if rate is None:
                rate = pinger.pinglist.probes_per_second
            streams[name] = _PingerStream(pinger, rate, now, len(paths))
            paths.extend(entry.path_index for entry in entries)
            self._simulator = pinger.simulator
        self._streams = streams
        self._entry_paths = np.asarray(paths, dtype=np.int64)
        self._entry_seq = np.zeros(len(paths), dtype=np.int64)
        self._tier_heap = []
        for stream in streams.values():
            heapq.heappush(
                self._tier_heap,
                (now + self._jittered_interval(), next(self._tie), stream),
            )

    def _jittered_interval(self) -> float:
        jitter = self.jitter_fraction
        if jitter == 0.0:
            return self.batch_seconds
        return self.batch_seconds * (1.0 + jitter * float(self._rng.uniform(-1.0, 1.0)))

    # ------------------------------------------------- batch-source protocol
    def next_time(self) -> Optional[float]:
        """Earliest pending probe firing (the loop's batch-source protocol)."""
        return self._tier_heap[0][0] if self._tier_heap else None

    def drain(self, until: float, strict: bool = False, limit: Optional[int] = None) -> int:
        """Process every stream firing due before ``until`` in one pass.

        Budget, carry, cursor, and jitter draws are computed per firing in
        mini-heap pop order -- exactly the order a one-event-per-firing
        scheduler fires in -- but nothing probes until the end of the drain,
        when all accumulated firings expand into one columnar
        ``(path, count, start_sequence)`` batch.  ``strict`` excludes firings
        at exactly ``until`` (used by the loop to stop before a regular event
        at that timestamp); ``coalesce_horizon`` caps a single drain's time
        span.
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
            elapsed = time - stream.last_fired
            stream.last_fired = time
            budget = stream.carry + stream.rate * elapsed
            probes = int(budget)
            stream.carry = budget - probes
            if probes > 0:
                self.batches_fired += 1
                # Round-robin from the persistent cursor: the first
                # (probes % n) entries after the cursor get one extra probe.
                base, extra = divmod(probes, stream.num_entries)
                f_streams.append(stream)
                f_times.append(time)
                f_base.append(base)
                f_extra.append(extra)
                f_cursor.append(stream.cursor)
                stream.cursor = (stream.cursor + extra) % stream.num_entries
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
        n_entries = np.fromiter((s.num_entries for s in streams), np.int64, num_firings)
        base = np.fromiter(bases, np.int64, num_firings)
        extra = np.fromiter(extras, np.int64, num_firings)
        # A firing touches all n entries when every entry's share is >= 1,
        # otherwise only the `extra` entries after the cursor.
        rows_per_firing = np.where(base > 0, n_entries, extra)
        total_rows = int(rows_per_firing.sum())
        self.drains += 1
        self.drain_rows_total += total_rows
        if total_rows > self.drain_rows_max:
            self.drain_rows_max = total_rows
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
        self._entry_seq += np.bincount(
            entry_index, weights=count, minlength=len(self._entry_seq)
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
        self.probes_sent += int(sent.sum())
        self.probes_lost += int(lost.sum())
        if self.sink is not None:
            self.sink(path_indices, t_arr[firing_of_row], sent, lost)

    # ------------------------------------------------------------------ views
    @property
    def num_streams(self) -> int:
        return len(self._streams)

    def telemetry(self) -> Dict[str, int]:
        """Deterministic probe counters, shaped for a metrics-registry source.

        Byte-identical across jobs counts and machines for a fixed
        seed (the same contract as the engine's cost model, which these join
        in :meth:`~repro.engine.TelemetryEngine.build_result`).
        """
        return {
            "probes_sent": self.probes_sent,
            "probes_lost": self.probes_lost,
            "probe_batches_fired": self.batches_fired,
        }

    def drain_telemetry(self) -> Dict[str, int]:
        """Informational coalescing statistics (they vary with the horizon)."""
        return {
            "coalesced_drains": self.drains,
            "coalesced_rows_total": self.drain_rows_total,
            "coalesced_rows_max": self.drain_rows_max,
        }
