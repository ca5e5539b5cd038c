"""Timed probe emission: per-pinger probe streams at configurable rates.

Each pinger of the current controller cycle becomes a *stream* that, every
``batch_seconds`` of simulated time (jittered so the fleet does not fire in
lockstep, exactly like staggered real pingers), spends the probe budget
accrued since its last firing.  The budget is ``probes_per_second * elapsed``
with fractional carry, distributed round-robin over the pinger's pinglist
entries from a persistent cursor -- over time every entry receives its fair
share, matching the paper's "loop over the pinglist" behaviour (§3.1) at any
rate.

The scheduler is the event loop's *batch source*: it keeps the streams as
per-stream arrays (next firing time, tie number, rate, carry, probes spent,
last firing and pinglist length, beside one per-entry table of paths)
and the loop lets it drain every firing falling strictly before the next
regular event in one pass.  A drain walks *slabs* of simulated time
``batch_seconds * (1 - jitter_fraction)`` wide -- the shortest interval a
jittered re-arm can draw -- so no stream fires twice inside one slab: within a
slab the firings are the due streams in ``(time, tie)`` order (one
``lexsort``), their budgets, carries, probe totals and next times update
elementwise and their jitter comes from one block of uniform variates, which
equals one scalar draw per firing in that order.

The round-robin deals a stream's probes to its entries one at a time in
pinglist order, so the ``k``-th probe a stream spends goes to entry
``k mod n``: the cursor is the stream's probe total modulo ``n``, and an
entry's next sequence number is the count of earlier probes dealt to it,
:func:`dealt`, a closed form of that total.  A drain costs what its *dirty*
entries cost -- those whose path crosses a failed link, by the simulator's
:meth:`~repro.simulation.ProbeSimulator.dirty_paths` mask:

* a *clean* entry's outcome is ``(count, 0)`` whatever its sequence numbers,
  so its rows are never built: over the drain, entry ``p`` of an ``n``-entry
  stream whose total went from ``T0`` to ``T1`` received
  ``dealt(T1, p, n) - dealt(T0, p, n)`` probes, one vector pass over the
  entries (:class:`CleanRows`);
* only the ``(firing, dirty entry)`` pairs that spend become
  ``(path, count, start_sequence)`` rows, in the ``(firing, offset from the
  cursor)`` order the round-robin deals them, and go through
  :meth:`~repro.simulation.ProbeSimulator.probe_paths_bulk`, which answers
  deterministic-loss rows without per-row Python and all random-loss rows of
  the drain in one plain-Python pass, in row order, over one block of uniform
  variates.

Outcomes leave as one ``sink(paths, times, sent, lost, clean)`` call per
drain, the dirty rows columnar and the clean ones in closed form (the engine
wires :meth:`~repro.engine.aggregator.StreamAggregator.record_batch` here),
after one ``probe_paths_bulk`` call per drain, with zero rows on a healthy
fabric.  Every count -- rows per class, events folded, probes sent -- is the
one the expanded rows would give.

The reference this is held to is the one-heap-event-per-firing scheduler in
``tests/per_event_oracle.py`` (scalar round-robin, one
:meth:`~repro.simulation.ProbeSimulator.probe_path_batch` call per row): the
differential tests require every observable -- probe outcomes, random draws,
counters -- to match it byte for byte at any drain size.

When the controller installs a new cycle the engine calls
:meth:`ProbeScheduler.set_pingers`: the per-stream arrays and the per-entry
tables are rebuilt from the new pingers, which retires every stream of the
previous cycle, and fresh streams start at the current instant.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..obs import tracing
from .loop import EventLoop

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..monitor.pinger import Pinger
    from ..simulation.network import ProbeSimulator

__all__ = ["CleanRows", "ProbeScheduler", "dealt"]

# Priority convention of the engine's event classes at equal timestamps:
# fault transitions run first (the loop default, 0), then window closes, then
# controller cycles, then probe batches -- so a probe fired exactly at a
# boundary lands in the *new* window, against the *new* pinglists.
PRIORITY_FAULT = 0
PRIORITY_WINDOW = 10
PRIORITY_CYCLE = 20
PRIORITY_PROBE = 30

_EMPTY_INT = np.zeros(0, dtype=np.int64)
_EMPTY_FLOAT = np.zeros(0, dtype=np.float64)


def dealt(total, position, n):
    """Probes a round-robin over ``n`` entries deals to entry ``position``
    out of a stream's first ``total`` (probe ``k`` goes to entry ``k mod
    n``): the entry's next start sequence.  Elementwise on arrays."""
    return (total - position + n - 1) // n


class _Entries(NamedTuple):
    """The per-entry table of one controller cycle's streams, entry by entry
    in stream order: the entry's primed path, its stream, its position in
    the stream's pinglist and that pinglist's length."""

    paths: np.ndarray
    stream: np.ndarray
    position: np.ndarray
    length: np.ndarray


class CleanRows:
    """A drain's rows on clean entries (no failed link), in closed form.

    ``times`` holds the drain's firing times, in firing order.  A clean row's
    outcome is ``(count, 0)``, so a sink takes the clean rows as counts --
    :meth:`rows` and the per-path :meth:`fold` -- over the firings from
    ``first`` on.
    """

    __slots__ = (
        "times", "_streams", "_spends", "_rows", "_dirty_firing", "_totals", "_clean", "_entries"
    )

    def __init__(self, times, streams, spends, rows, dirty_firing, totals, clean, entries):
        self.times = times
        # Per firing: its stream, its probes and its rows, clean or not.
        self._streams = streams
        self._spends = spends
        self._rows = rows
        self._dirty_firing = dirty_firing  # the firing of each dirty row, ascending
        self._totals = totals  # per stream: probes spent after the drain
        self._clean = clean  # per entry
        self._entries = entries

    def rows(self, first: int = 0) -> int:
        """Clean rows of firings ``first`` onward: their rows less the dirty."""
        dirty = len(self._dirty_firing) - int(np.searchsorted(self._dirty_firing, first))
        return int(self._rows[first:].sum()) - dirty

    def fold(self, first: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """``(path_indices, sent)`` over every entry: the clean probes dealt
        by firings ``first`` onward (zero on dirty entries).

        A stream's firings from ``first`` on are its last of the drain, so
        they dealt its probes ``T0 .. T1 - 1``: ``T1`` its total after the
        drain, ``T0`` that minus those firings' probes.  Entry ``p`` of an
        ``n``-entry stream received ``dealt(T1, p, n) - dealt(T0, p, n)``.
        """
        entries = self._entries
        drained = np.bincount(
            self._streams[first:], weights=self._spends[first:], minlength=len(self._totals)
        ).astype(np.int64)
        after = self._totals[entries.stream]
        before = after - drained[entries.stream]
        sent = dealt(after, entries.position, entries.length)
        sent -= dealt(before, entries.position, entries.length)
        sent *= self._clean
        return entries.paths, sent


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
        # The shortest interval a re-arm can draw, computed with the very
        # operations of `_intervals` at the variate -1.0: rounding is
        # monotone, so every drawn interval is at least this wide.
        self._slab_width = self.batch_seconds * (1.0 + self.jitter_fraction * -1.0)
        # Per-stream state, positional over the streams of one controller
        # cycle, plus the columnar per-entry tables they share.
        self._next_time = _EMPTY_FLOAT
        self._tie = _EMPTY_INT
        self._rate = _EMPTY_FLOAT
        self._carry = _EMPTY_FLOAT
        self._spent = _EMPTY_INT
        self._last_fired = _EMPTY_FLOAT
        self._num_entries = _EMPTY_INT
        self._configs: List = []
        self._confirms: List[int] = []
        self._next_tie = 0
        self._head: Optional[float] = None  # earliest pending firing
        self._entries = _Entries(_EMPTY_INT, _EMPTY_INT, _EMPTY_INT, _EMPTY_INT)
        self._simulator: Optional["ProbeSimulator"] = None
        self.sink: Optional[
            Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray, CleanRows], None]
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

        The per-stream arrays and the per-entry tables are rebuilt from
        scratch, so no stream of the previous cycle can fire again.  Every
        new stream's first firing lands one jittered batch interval from now,
        staggered per pinger.
        """
        now = self._loop.clock.now
        rates: List[float] = []
        lengths: List[int] = []
        paths: List[int] = []
        self._configs = []
        self._confirms = []
        self._simulator = None
        for pinger in pingers.values():
            entries = pinger.pinglist.entries
            if not entries:
                continue
            rate = self._rate_override
            if rate is None:
                rate = pinger.pinglist.probes_per_second
            rates.append(rate)
            lengths.append(len(entries))
            paths.extend(entry.path_index for entry in entries)
            self._configs.append(pinger.probe_config())
            self._confirms.append(pinger.confirm_losses)
            self._simulator = pinger.simulator
        num_streams = len(rates)
        self._rate = np.asarray(rates, dtype=np.float64)
        self._num_entries = np.asarray(lengths, dtype=np.int64)
        slice_start = np.cumsum(self._num_entries) - self._num_entries
        self._carry = np.zeros(num_streams, dtype=np.float64)
        self._spent = np.zeros(num_streams, dtype=np.int64)
        self._last_fired = np.full(num_streams, now, dtype=np.float64)
        stream = np.repeat(np.arange(num_streams), self._num_entries)
        self._entries = _Entries(
            np.asarray(paths, dtype=np.int64),
            stream,
            np.arange(len(stream)) - slice_start[stream],
            self._num_entries[stream],
        )
        self._next_time = now + self._intervals(num_streams)
        self._tie = self._next_tie + np.arange(num_streams, dtype=np.int64)
        self._next_tie += num_streams
        self._head = float(self._next_time.min()) if num_streams else None

    def _intervals(self, count: int) -> np.ndarray:
        """``count`` jittered batch intervals, one variate each, in order."""
        jitter = self.jitter_fraction
        if jitter == 0.0 or count == 0:
            return np.full(count, self.batch_seconds)
        return self.batch_seconds * (1.0 + jitter * self._rng.uniform(-1.0, 1.0, size=count))

    # ------------------------------------------------- batch-source protocol
    def next_time(self) -> Optional[float]:
        """Earliest pending probe firing (the loop's batch-source protocol)."""
        return self._head

    def drain(self, until: float, strict: bool = False, limit: Optional[int] = None) -> int:
        """Process every stream firing due before ``until`` in one pass.

        Firings are taken slab by slab: the streams due before the head time
        plus one slab width fire in ``(time, tie)`` order -- exactly the order
        a one-event-per-firing scheduler fires in, since a re-armed stream
        lands at or past the slab's end -- but nothing probes until the end
        of the drain, when the accumulated firings' dirty rows go out as one
        columnar ``(path, count, start_sequence)`` batch and their clean rows
        in closed form (:meth:`_emit`).  ``strict`` excludes firings
        at exactly ``until`` (used by the loop to stop before a regular event
        at that timestamp); ``coalesce_horizon`` caps a single drain's time
        span and ``limit`` its number of firings.
        """
        if self._head is None:
            return 0
        bound = until
        inclusive = not strict
        if self.coalesce_horizon is not None:
            cap = self._head + self.coalesce_horizon
            if cap < bound:
                bound, inclusive = cap, True
        next_time, tie = self._next_time, self._tie
        fired = slabs = 0
        chunks = []
        while True:
            start = self._head
            if start > bound or (not inclusive and start == bound):
                break
            if limit is not None and fired >= limit:
                break
            end = start + self._slab_width
            if end == start:  # the width vanishes at this magnitude
                end = np.nextafter(start, np.inf)
            due = next_time < end
            due &= (next_time <= bound) if inclusive else (next_time < bound)
            due = np.flatnonzero(due)
            order = due[np.lexsort((tie[due], next_time[due]))]
            if limit is not None:
                order = order[: limit - fired]
            count = len(order)
            times = next_time[order]
            budget = self._carry[order] + self._rate[order] * (times - self._last_fired[order])
            probes = budget.astype(np.int64)
            self._carry[order] = budget - probes
            self._last_fired[order] = times
            spent = self._spent[order]
            self._spent[order] = spent + probes
            next_time[order] = times + self._intervals(count)
            tie[order] = self._next_tie + np.arange(count, dtype=np.int64)
            self._next_tie += count
            self._head = float(next_time.min())
            spends = probes > 0
            chunks.append((order[spends], times[spends], probes[spends], spent[spends]))
            fired += count
            slabs += 1
        if not fired:
            return 0
        self._loop.clock.advance(float(times[-1]))
        self._loop.events_processed += fired
        columns = [np.concatenate(column) for column in zip(*chunks)]
        rows = 0
        if len(columns[0]):
            self.batches_fired += len(columns[0])
            rows = self._emit(*columns)
        tracing.record(
            "scheduler.drain", informational=True, firings=fired, slabs=slabs, rows=rows
        )
        return fired

    def _emit(
        self, streams: np.ndarray, times: np.ndarray, probes: np.ndarray, spent: np.ndarray
    ) -> int:
        """Probe accumulated firings: dirty rows expanded, clean ones folded.

        The arrays are per firing, in firing order: the stream index, the
        firing time, the probes it spends and the probes its stream spent
        before it; the per-stream totals already include the drain.  Only
        the ``(firing, entry)`` rows of entries whose path crosses a failed
        link go through the bulk kernel; every other entry's probes over the
        whole drain follow in closed form from its stream's totals
        (:class:`CleanRows`).  Returns the number of rows the drain stands
        for, clean and dirty.
        """
        n_entries = self._num_entries[streams]
        # Round-robin from the cursor (spent % n): every entry gets `base`
        # probes and the first `extra` entries after the cursor one more, so
        # a firing touches all n entries when base >= 1, otherwise `extra`.
        base, extra = np.divmod(probes, n_entries)
        rows_per_firing = np.where(base > 0, n_entries, extra)
        total_rows = int(rows_per_firing.sum())
        self.drains += 1
        self.drain_rows_total += total_rows
        if total_rows > self.drain_rows_max:
            self.drain_rows_max = total_rows
        entries = self._entries
        entry_dirty = self._simulator.dirty_paths()[entries.paths]
        firing_of_row, entry, offset = self._dirty_rows(streams, spent, base, extra, entry_dirty)
        count = base[firing_of_row] + (offset < extra[firing_of_row])
        start_seq = dealt(spent[firing_of_row], entries.position[entry], entries.length[entry])
        stream_of_row = streams[firing_of_row]
        path_indices = entries.paths[entry]
        sent, lost = self._simulator.probe_paths_bulk(
            path_indices,
            count,
            start_seq,
            configs=self._configs,
            config_of=stream_of_row,
            confirms=self._confirms,
            clean_rows=total_rows - len(path_indices),
        )
        clean = CleanRows(
            times,
            streams,
            probes,
            rows_per_firing,
            firing_of_row,
            self._spent.copy(),
            ~entry_dirty,
            entries,
        )
        self.probes_sent += int(probes.sum()) - int(count.sum()) + int(sent.sum())
        self.probes_lost += int(lost.sum())
        if self.sink is not None:
            self.sink(path_indices, times[firing_of_row], sent, lost, clean)
        return total_rows

    def _dirty_rows(
        self,
        streams: np.ndarray,
        spent: np.ndarray,
        base: np.ndarray,
        extra: np.ndarray,
        entry_dirty: np.ndarray,
    ):
        """``(firing, entry, offset from the cursor)`` of every row that
        spends on a dirty entry, in ``(firing, offset)`` order -- the order
        the round-robin deals them."""
        dirty = np.flatnonzero(entry_dirty)
        if not len(dirty):
            return _EMPTY_INT, _EMPTY_INT, _EMPTY_INT
        entries = self._entries
        per_stream = np.bincount(entries.stream[dirty], minlength=len(self._rate))
        first = np.cumsum(per_stream) - per_stream
        per_firing = per_stream[streams]
        firing = np.repeat(np.arange(len(streams)), per_firing)
        rank = np.arange(len(firing)) - np.repeat(np.cumsum(per_firing) - per_firing, per_firing)
        entry = dirty[first[streams[firing]] + rank]
        offset = (entries.position[entry] - spent[firing]) % entries.length[entry]
        spends = (base[firing] > 0) | (offset < extra[firing])
        firing, entry, offset = firing[spends], entry[spends], offset[spends]
        # Each firing's dirty entries ascend by position, so their offsets are
        # a rotation: one sort on (firing, offset) restores deal order.
        order = np.argsort(firing * int(self._num_entries.max()) + offset)
        return firing[order], entry[order], offset[order]

    # ------------------------------------------------------------------ views
    @property
    def num_streams(self) -> int:
        return len(self._rate)

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
        """Informational coalescing statistics (they vary with the horizon).

        Rows count every ``(firing, entry)`` pair that spends, clean ones
        included, although only the dirty ones are built."""
        return {
            "coalesced_drains": self.drains,
            "coalesced_rows_total": self.drain_rows_total,
            "coalesced_rows_max": self.drain_rows_max,
        }
