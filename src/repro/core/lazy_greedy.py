"""Lazy (CELF-style) candidate selection for the PMC greedy (§4.3, Observation 2).

The strawman greedy re-scores every candidate path in every iteration.  The
lazy variant keeps a min-heap keyed by the last known score of each path and
only refreshes the score of the path at the top: if the refreshed score keeps
it at the top, it is selected without touching the other candidates.  This is
the standard CELF optimisation of Leskovec et al., adapted to a minimisation
objective.

Both queues of the greedy pop through one ``pop(rescore_batch)`` call and
keep the same logical counters (``evaluations``, ``lazy_skips``), at every
``beta``:

* :class:`BucketQueue`, the lazy queue, keeps one FIFO per integer Eq. (1)
  score and rescores in batches;
* :class:`EagerQueue`, the strawman's, rescores every surviving row in one
  batch per pop and selects through a heap.

Their oracle is the one-candidate-at-a-time CELF heap of
``tests/lazy_heap_oracle.py``, which rescores one row per evaluation.
"""

from __future__ import annotations

import bisect
import heapq
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as _np

__all__ = ["BucketQueue", "EagerQueue", "ShardedSolutionCache"]


class EagerQueue:
    """The strawman queue (no lazy update): every pop rescores every surviving row.

    A pop rescores the survivors in one ``rescore_batch`` call, heapifies
    the fresh ``(score, insertion order, row)`` entries and pops the
    smallest: the oracle heap's eager pop, batch-scored.  An eager pop never
    pushes an entry back, so insertion order breaks ties exactly as the
    oracle's counter does, and the queue needs no initial scores.

    The selection is a heap of Python tuples, as in the one-candidate
    greedy, rather than a vectorised ``argmin``: this queue is the
    unoptimised baseline that Table 2 and the lazy-update ablation measure
    CELF against, and an ``argmin`` would optimise the baseline itself (on
    Fattree(6) it then runs as fast as the lazy queue).
    """

    def __init__(self, rows):
        self._heap = [(0, order, row) for order, row in enumerate(_np.asarray(rows).tolist())]
        self.evaluations = 0
        self.lazy_skips = 0  # always 0: nothing is cached between pops

    def __len__(self) -> int:
        return len(self._heap)

    def pop(self, rescore_batch: Callable[[object], object]) -> Optional[Tuple[int, int]]:
        """Pop the row with the smallest fresh score: ``(score, row)``, or ``None`` if empty."""
        if not self._heap:
            return None
        self.evaluations += len(self._heap)
        rows = _np.array([row for _, _, row in self._heap], dtype=_np.int64)
        fresh = _np.asarray(rescore_batch(rows)).tolist()
        self._heap = [(score, order, row) for score, (_, order, row) in zip(fresh, self._heap)]
        heapq.heapify(self._heap)
        score, _, row = heapq.heappop(self._heap)
        return score, row


#: Stands in for "no score": above every Eq. (1) score, so it never wins a comparison.
_INF = 2**63 - 1


def _concat(parts):
    return parts[0] if len(parts) == 1 else _np.concatenate(parts)


class _Fifo:
    """One score's entries in push order: ``rows[head:]``, then the ``tail`` segments."""

    __slots__ = ("rows", "head", "tail")

    def __init__(self, rows):
        self.rows = rows
        self.head = 0
        self.tail: List[object] = []

    def __bool__(self) -> bool:
        return self.head < len(self.rows) or bool(self.tail)

    def segments(self) -> Iterator[object]:
        if self.head < len(self.rows):
            yield self.rows[self.head :]
        yield from self.tail

    def drop(self, count: int) -> int:
        """Remove up to *count* entries from the front; returns how many are still owed."""
        while True:
            available = len(self.rows) - self.head
            if count < available:
                self.head += count
                return 0
            count -= available
            if not self.tail:
                self.rows, self.head = self.rows[:0], 0
                return count
            self.rows, self.head, self.tail = _concat(self.tail), 0, []


class BucketQueue:
    """CELF queue over integer scores: one FIFO per score, batch-rescored pops.

    The lazy queue of the PMC greedy at every ``beta``.  It pops the same
    entries, with the same logical counters, as the oracle heap's lazy pop
    called at a new iteration for every pop.  One FIFO per score *is* that
    heap:

    * the heap orders entries by ``(score, counter)``, and a pushed-back entry
      gets a counter newer than every live one, so appending it to the FIFO
      of its score keeps every FIFO in counter order, and the heap's minimum
      is the head of the lowest non-empty FIFO;
    * the Eq. (1) score is an integer (every non-empty row starts at -1), so
      there is one FIFO per distinct score: a dozen or so at ``beta <= 1``,
      more in the virtual-link space, where a row touches more cells.

    **Contract: one pop per greedy iteration**, so every entry is stale when
    a pop starts and none carries a stamp.  A pop walks the entries in
    (score, FIFO) order in chunks of ``batch_size``, twice that, ..., rescores
    each chunk in one ``rescore_batch`` call and replays the unbatched loop;
    the rows it pushes back stay virtual until the decision.  With ``best``
    the smallest fresh score before walk position ``i`` (its earliest holder
    is the oldest push-back, which wins ties among them):

    * rule 1: ``best < cached[i]`` -- a push-back is the top, and the holder
      of ``best`` is selected at its cached score (a lazy skip);
    * rule 2: ``fresh[i] <= min(cached[i + 1], best)`` -- the refreshed entry
      stays the top and is selected;
    * the walk runs out -- only push-backs are left, and the holder of
      ``best`` is selected (a lazy skip).

    Then the walked prefix leaves the FIFOs and the rows rescored but not
    selected join those of their fresh scores in walk order.  Chunk overshoot
    takes no part in a decision and stays put: ``evaluations`` counts the
    unbatched loop's rescores.
    """

    def __init__(self, rows, scores, batch_size: int = 32):
        self.batch_size = batch_size  # the first chunk of every pop
        self._buckets: Dict[int, _Fifo] = {}
        self._keys: List[int] = []  # scores of the non-empty FIFOs, ascending
        self._size = 0
        # Logical counters, identical to the oracle's for the same pops.
        self.evaluations = 0
        self.lazy_skips = 0
        self._push(_np.asarray(rows, dtype=_np.int64), _np.asarray(scores, dtype=_np.int64))

    def __len__(self) -> int:
        return self._size

    def _push(self, rows, scores) -> None:
        """Append *rows* to the FIFOs of their *scores*, in their order within a score."""
        if not len(rows):
            return
        order = _np.argsort(scores, kind="stable")
        rows, scores = rows[order], scores[order]
        cuts = _np.flatnonzero(scores[1:] != scores[:-1]) + 1
        for score, segment in zip(scores[_np.r_[0, cuts]].tolist(), _np.split(rows, cuts)):
            fifo = self._buckets.get(score)
            if fifo is None:
                self._buckets[score] = _Fifo(segment)
                bisect.insort(self._keys, score)
            else:
                fifo.tail.append(segment)
        self._size += len(rows)

    def _drop(self, count: int) -> None:
        """Remove the first *count* entries in pop order."""
        self._size -= count
        keys, buckets = self._keys, self._buckets
        while count:
            fifo = buckets[keys[0]]
            count = fifo.drop(count)
            if not fifo:
                del buckets[keys.pop(0)]

    def _chunks(self, size: int) -> Iterator[Tuple[object, object, int]]:
        """The entries in pop order, as ``(rows, cached scores, next cached score)``.

        Chunk sizes double from *size*; after the last entry the next cached
        score is ``_INF``.
        """
        pieces = (
            (score, segment)
            for score in self._keys
            for segment in self._buckets[score].segments()
        )
        pending = next(pieces, None)
        while pending is not None:
            rows: List[object] = []
            cached: List[object] = []
            want = size
            while want and pending is not None:
                score, segment = pending
                part = segment[:want]
                rows.append(part)
                cached.append(_np.full(len(part), score, dtype=_np.int64))
                want -= len(part)
                if len(part) < len(segment):
                    pending = (score, segment[len(part) :])
                else:
                    pending = next(pieces, None)
            yield _concat(rows), _concat(cached), _INF if pending is None else pending[0]
            size *= 2

    def pop(self, rescore_batch: Callable[[object], object]) -> Optional[Tuple[int, int]]:
        """Pop the row with the smallest up-to-date score: ``(score, row)``, or ``None`` if empty.

        ``rescore_batch`` maps an int64 array of rows to the int64 array of
        their fresh scores.  Call once per greedy iteration (see the class).
        """
        if not self._size:
            return None
        walked_rows: List[object] = []
        walked_fresh: List[object] = []
        best, best_at, offset = _INF, -1, 0
        for rows, cached, after in self._chunks(self.batch_size):
            fresh = _np.asarray(rescore_batch(rows), dtype=_np.int64)
            walked_rows.append(rows)
            walked_fresh.append(fresh)
            # ``before[i]``: the smallest fresh score walked before position i.
            before = _np.minimum.accumulate(_np.concatenate(([best], fresh[:-1])))
            rule1 = before < cached
            rule2 = fresh <= _np.minimum(_np.append(cached[1:], after), before)
            hits = _np.flatnonzero(rule1 | rule2)
            if hits.size:
                i = int(hits[0])
                limit = offset + i
                if rule1[i]:
                    if before[i] < best:  # its holder was walked in this chunk
                        best_at = offset + int(_np.argmin(fresh[:i]))
                    selected, consumed = best_at, limit
                    self.lazy_skips += 1
                else:
                    selected, consumed = limit, limit + 1
                    self.evaluations += 1
                break
            low = int(fresh.min())
            if low < best:
                best, best_at = low, offset + int(_np.argmin(fresh))
            offset += len(fresh)
        else:
            limit = consumed = offset
            selected = best_at
            self.lazy_skips += 1
        self.evaluations += limit

        rows = _concat(walked_rows)[:consumed]
        fresh = _concat(walked_fresh)[:consumed]
        popped = (int(fresh[selected]), int(rows[selected]))
        self._drop(consumed)
        pushed = _np.arange(limit) != selected
        self._push(rows[:limit][pushed], fresh[:limit][pushed])
        return popped


class ShardedSolutionCache:
    """Memo of completed CELF runs: one bounded LRU bucket per shard.

    The incremental controller re-runs the lazy greedy after every churn
    delta, but a CELF run is a pure function of its inputs: the candidate
    rows, their link sets and the options.  A decomposition subproblem an
    earlier cycle solved -- untouched by the delta, or isomorphic to one that
    was -- replays that selection instead of rebuilding the heap.  Keys are
    caller-supplied digests and values the selected *ranks* (see
    :func:`repro.core.pmc._subproblem_digest`), so entries stay tiny even when
    a subproblem spans half a million candidate rows.

    Buckets are keyed by ``Subproblem.pod`` and created on first use: every
    unsharded subproblem shares the ``None`` bucket, a pod-sharded controller
    gets one bucket per pod plus ``RESIDUAL_POD`` for the residual shard --
    so churn confined to one pod can only evict entries of that pod's bucket
    and the residual one; the other pods keep their digests and replay
    without solving.  Inserting beyond ``capacity_per_shard`` evicts the
    bucket's least recently used entry.
    """

    def __init__(self, capacity_per_shard: int = 64):
        if capacity_per_shard < 1:
            raise ValueError("capacity_per_shard must be >= 1")
        self._capacity = capacity_per_shard
        self._buckets: Dict[Optional[int], OrderedDict[Hashable, object]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, pod: Optional[int], key: Hashable) -> Optional[object]:
        """The solution cached for *key* in *pod*'s bucket, or ``None`` (counts hit/miss)."""
        bucket = self._buckets.get(pod)
        entry = bucket.get(key) if bucket is not None else None
        if entry is None:
            self.misses += 1
            return None
        bucket.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, pod: Optional[int], key: Hashable, solution: object) -> None:
        bucket = self._buckets.setdefault(pod, OrderedDict())
        bucket[key] = solution
        bucket.move_to_end(key)
        while len(bucket) > self._capacity:
            bucket.popitem(last=False)

    def pods(self) -> List[Optional[int]]:
        return list(self._buckets)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def clear(self) -> None:
        self._buckets.clear()
