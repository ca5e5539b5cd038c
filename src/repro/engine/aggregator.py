"""Tumbling-window aggregation of probe outcome streams.

The diagnoser of §3.1 consumes 30-second aggregation windows; under the
discrete-event engine those windows are not one merge of per-pinger reports
but a *stream* of timestamped probe batches arriving from many pingers.  :class:`StreamAggregator` folds that stream into
flat per-path counters and, through the vectorized
:class:`~repro.core.incidence.IncidenceIndex` kernels, into per-link
sent/lost/lossy-path counters -- the quantities detection latency is defined
over.

Window semantics:

* events are *tumbling-window* bucketed: an event belongs to the window whose
  ``[start, start + window_seconds)`` interval contains its timestamp;
* late events (timestamp before the open window's start) are **rejected** and
  counted -- a pinger report delayed past its window must not corrupt a later
  one (§5.1 discards such data during pre-processing);
* events timestamped at or past the open window's end are an engine ordering
  bug and raise: the engine closes windows before delivering later probes;
* :meth:`close_window` emits a :class:`WindowReport` (observations plus
  per-link counter snapshots) and opens the next window.

Folding every observation of a window's pinger reports at one instant, then
one :meth:`close_window`, reproduces the merge of those reports exactly
(tested in ``tests/test_engine.py``).

**Sharding.**  With ``num_shards > 1`` the open window's per-path counters
are split across shards (the serve-mode analogue of running one aggregator
per pod): each accepted event folds into the shard owning its path, and the
shards merge by exact integer sums when the window closes.  Because the
per-path counters are plain integer sums and the per-link kernels run
exactly once on the *merged* arrays, every window
report, observation set, and kernel-invocation counter is invariant in the
shard count (tested in ``tests/test_engine_streaming.py``).
:meth:`record_batch` folds the probe scheduler's columnar outcome batches
with the acceptance semantics and cost-counter totals of the equivalent
sequence of :meth:`record` calls, except that it validates the whole batch
before it folds any of it: a batch that raises leaves no trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.costmodel import CostModel
from ..core.incidence import IncidenceIndex
from ..localization import ObservationSet
from ..obs import tracing

__all__ = ["WindowReport", "StreamAggregator"]


@dataclass
class WindowReport:
    """Everything one closed aggregation window produced.

    Per-link vectors are positional over ``link_ids`` (the incidence
    universe): ``link_sent[i]`` / ``link_lost[i]`` count probes through link
    ``link_ids[i]``, ``link_lossy_paths[i]`` the distinct lossy paths crossing
    it.
    """

    index: int
    start: float
    end: float
    observations: ObservationSet
    probes_sent: int
    probes_lost: int
    rejected_events: int
    link_ids: Sequence[int]
    link_sent: Sequence[int]
    link_lost: Sequence[int]
    link_lossy_paths: Sequence[int]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def loss_rate(self) -> float:
        return self.probes_lost / self.probes_sent if self.probes_sent else 0.0

    def lossy_links(self) -> List[int]:
        """Links crossed by at least one lossy path this window."""
        return [
            link
            for link, lossy in zip(self.link_ids, self.link_lossy_paths)
            if lossy > 0
        ]


class StreamAggregator:
    """Folds timestamped probe outcomes into per-path and per-link counters."""

    def __init__(
        self,
        incidence: IncidenceIndex,
        window_seconds: float,
        start_time: float = 0.0,
        cost: Optional[CostModel] = None,
        num_shards: int = 1,
        shard_of_path: Optional[Sequence[int]] = None,
    ):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        # Deterministic work counters (events folded/rejected, windows
        # closed, probes aggregated).  A caller-supplied model keeps
        # accumulating across aggregator rollovers -- the telemetry engine
        # passes its own so one run's counters survive controller re-arms.
        self.cost = cost if cost is not None else CostModel()
        self._index = incidence
        self.window_seconds = float(window_seconds)
        self.num_shards = num_shards
        if num_shards > 1:
            if shard_of_path is None:
                # Default assignment: contiguous round-robin over paths.
                shard_of_path = [i % num_shards for i in range(incidence.num_paths)]
            if len(shard_of_path) != incidence.num_paths:
                raise ValueError("shard_of_path must assign every path a shard")
            self._shard_of = np.asarray(shard_of_path, dtype=np.int64)
            if len(self._shard_of) and (
                int(self._shard_of.min()) < 0 or int(self._shard_of.max()) >= num_shards
            ):
                raise ValueError("shard_of_path values must lie in [0, num_shards)")
        else:
            self._shard_of = None
        self._window_index = 0
        self._window_start = float(start_time)
        self._reset_counters()
        self._probes_sent = 0
        self._probes_lost = 0
        self._accepted = 0
        self._rejected = 0
        self.total_rejected = 0

    def _reset_counters(self) -> None:
        # One row of per-path counters per shard.
        shape = (self.num_shards, self._index.num_paths)
        self._shard_sent = np.zeros(shape, dtype=np.int64)
        self._shard_lost = np.zeros(shape, dtype=np.int64)

    # Deterministic shard merge: exact integer sums over the shard axis.
    # With one shard this is the shard array itself (no copy).
    def _merged(self, shards):
        return shards[0] if self.num_shards == 1 else shards.sum(axis=0)

    # ------------------------------------------------------------------ state
    @property
    def incidence(self) -> IncidenceIndex:
        return self._index

    @property
    def window_index(self) -> int:
        return self._window_index

    @property
    def window_start(self) -> float:
        return self._window_start

    @property
    def window_end(self) -> float:
        return self._window_start + self.window_seconds

    # ----------------------------------------------------------------- folding
    def record(self, path_index: int, time: float, sent: int = 1, lost: int = 0) -> bool:
        """Fold one probe outcome batch; returns ``False`` when rejected.

        ``time`` is the outcome's timestamp.  Late events (before the open
        window) are rejected and counted; events past the window's end raise,
        because the engine guarantees window-close events run first.
        """
        if time < self._window_start:
            self._rejected += 1
            self.total_rejected += 1
            self.cost.add("aggregator_events_rejected")
            return False
        if time >= self.window_end:
            raise ValueError(
                f"event at t={time} belongs to a later window than "
                f"[{self._window_start}, {self.window_end}); close the window first"
            )
        if not 0 <= path_index < self._index.num_paths:
            raise IndexError(f"path index {path_index} outside the probe matrix")
        if lost > sent:
            raise ValueError("lost exceeds sent")
        shard = 0 if self._shard_of is None else int(self._shard_of[path_index])
        self._shard_sent[shard][path_index] += sent
        self._shard_lost[shard][path_index] += lost
        self._probes_sent += sent
        self._probes_lost += lost
        self._accepted += 1
        self.cost.add("aggregator_events_accepted")
        self.cost.add("aggregator_probes_folded", sent)
        return True

    def record_batch(self, path_indices, times, sent, lost, clean=None) -> int:
        """Fold a columnar batch of probe outcomes; returns events accepted.

        The checks run in :meth:`record`'s order -- a future timestamp
        raises, late rows are rejected and counted, and only the rows that
        remain must have an in-range path and ``lost <= sent`` -- but over
        the whole batch before anything is folded or counted, so a batch
        that raises leaves the aggregator untouched.  The accepted rows then
        fold into the shard counters as ``bincount`` scatter-adds.

        ``clean`` holds the loss-free rows of the same drain in closed form
        (:class:`~repro.engine.probes.CleanRows`: the firing times, plus the
        clean rows and the per-path fold of any suffix of the firings).  They
        count and fold as if each had been passed as a row: the firings are
        in time order, so the late ones are a prefix whose rows are rejected
        by count, and the rest fold per path.
        """
        path_indices = np.asarray(path_indices, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        sent = np.asarray(sent, dtype=np.int64)
        lost = np.asarray(lost, dtype=np.int64)
        if clean is not None and not len(clean.times):
            clean = None
        if not len(path_indices) and clean is None:
            return 0
        end = self.window_end
        future = times[times >= end]
        if clean is not None and clean.times[-1] >= end:
            future = np.concatenate((future, clean.times[clean.times >= end]))
        if len(future):
            raise ValueError(
                f"event at t={float(future.min())} belongs to a later window than "
                f"[{self._window_start}, {end}); close the window first"
            )
        on_time = times >= self._window_start
        num_late = len(times) - int(on_time.sum())
        if num_late:
            path_indices = path_indices[on_time]
            sent = sent[on_time]
            lost = lost[on_time]
        accepted = len(path_indices)
        if clean is not None:
            late_firings = int(np.searchsorted(clean.times, self._window_start))
            clean_rows = clean.rows(late_firings)
            if late_firings:
                num_late += clean.rows() - clean_rows
            accepted += clean_rows
            # The clean part follows the on-time rows: `lost` covers only
            # the rows, a prefix of the concatenated columns.
            clean_paths, clean_sent = clean.fold(late_firings)
            path_indices = np.concatenate((path_indices, clean_paths))
            sent = np.concatenate((sent, clean_sent))
        num_paths = self._index.num_paths
        out_of_range = (path_indices < 0) | (path_indices >= num_paths)
        if out_of_range.any():
            raise IndexError(
                f"path index {int(path_indices[out_of_range][0])} outside the probe matrix"
            )
        if (lost > sent[: len(lost)]).any():
            raise ValueError("lost exceeds sent")
        if num_late:
            self._rejected += num_late
            self.total_rejected += num_late
            self.cost.add("aggregator_events_rejected", num_late)
        if accepted == 0:
            return 0
        # One scatter-add over the flat (shard, path) index of the shard
        # counters (a loss-free batch skips the lost one).  bincount-with-
        # weights returns float64; the sums are exact well past any realistic
        # probe volume (2**53), so the int64 cast is lossless.
        flat = path_indices if self._shard_of is None else (
            self._shard_of[path_indices] * num_paths + path_indices
        )
        for counters, values in ((self._shard_sent, sent), (self._shard_lost, lost)):
            if not values.any():
                continue
            folded = np.bincount(flat[: len(values)], weights=values, minlength=counters.size)
            counters += folded.astype(np.int64).reshape(counters.shape)
        total_sent = int(sent.sum())
        self._probes_sent += total_sent
        self._probes_lost += int(lost.sum())
        self._accepted += accepted
        self.cost.add("aggregator_events_accepted", accepted)
        self.cost.add("aggregator_probes_folded", total_sent)
        return accepted

    # ---------------------------------------------------------------- rollover
    def close_window(self, end_time: Optional[float] = None) -> WindowReport:
        """Emit the open window's report and roll over to the next window.

        ``end_time`` defaults to the nominal window end; passing the engine's
        horizon closes a final partial window.
        """
        end = self.window_end if end_time is None else float(end_time)
        if end < self._window_start:
            raise ValueError("window cannot end before it starts")
        self.cost.add("aggregator_windows_closed")
        with tracing.span(
            "aggregator.close",
            window=self._window_index,
            shards=self.num_shards,
            events=self._accepted,
            rejected=self._rejected,
        ):
            # Each link kernel runs exactly once on the *merged* per-path
            # arrays, so the kernel-invocation counters are invariant in the
            # shard count.
            merged_sent = self._merged(self._shard_sent)
            merged_lost = self._merged(self._shard_lost)
            report = WindowReport(
                index=self._window_index,
                start=self._window_start,
                end=end,
                observations=ObservationSet.from_counters(merged_sent, merged_lost),
                probes_sent=self._probes_sent,
                probes_lost=self._probes_lost,
                rejected_events=self._rejected,
                link_ids=self._index.link_ids,
                link_sent=self._index.weighted_col_counts(merged_sent),
                link_lost=self._index.weighted_col_counts(merged_lost),
                link_lossy_paths=self._index.masked_col_counts(merged_lost > 0),
            )
        self._window_index += 1
        self._window_start = max(end, self.window_end)
        self._reset_counters()
        self._probes_sent = 0
        self._probes_lost = 0
        self._accepted = 0
        self._rejected = 0
        return report
