"""Lazy (CELF-style) candidate selection for the PMC greedy (§4.3, Observation 2).

The strawman greedy re-scores every candidate path in every iteration.  The
lazy variant keeps a min-heap keyed by the last known score of each path and
only refreshes the score of the path at the top: if the refreshed score keeps
it at the top, it is selected without touching the other candidates.  This is
the standard CELF optimisation of Leskovec et al., adapted to a minimisation
objective.

:class:`LazyMinHeap` is agnostic about what a "score" is and rescores one
candidate per step; it is the reference.  :class:`BucketQueue`, the numpy
backend's queue at ``beta <= 1``, keeps one FIFO per integer Eq. (1) score
and rescores in batches, with the same selections and logical counters.
"""

from __future__ import annotations

import bisect
import heapq
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, Iterable, Iterator, List, Optional, Tuple, TypeVar

try:  # the bucket queue is the numpy backend's
    import numpy as _np
except ImportError:  # pragma: no cover - numpy backend is then unavailable
    _np = None

__all__ = ["LazyMinHeap", "BucketQueue", "ShardedSolutionCache"]

T = TypeVar("T")


class LazyMinHeap(Generic[T]):
    """Min-heap with deferred score refresh.

    Parameters
    ----------
    items:
        Iterable of (initial_score, item) pairs.
    """

    def __init__(self, items: Iterable[Tuple[float, T]] = ()):
        self._heap: List[Tuple[float, int, int, T]] = []
        self._counter = 0
        # Logical work counters: one *evaluation* per candidate whose score
        # was (re)computed for a selection decision, one *lazy skip* per pop
        # that trusted a score cached earlier in the same iteration.  These
        # count decisions, not kernel work, so they are identical for every
        # implementation of the same CELF pop sequence (see BucketQueue).
        self.evaluations = 0
        self.lazy_skips = 0
        for score, item in items:
            self.push(score, item, stamp=-1)

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, score: float, item: T, stamp: int) -> None:
        """Insert *item* with the given score, recorded at iteration *stamp*."""
        heapq.heappush(self._heap, (score, self._counter, stamp, item))
        self._counter += 1

    def pop_lazy(
        self,
        current_iteration: int,
        rescore: Callable[[T], float],
    ) -> Optional[Tuple[float, T]]:
        """Pop the item with the smallest *up-to-date* score.

        The entry at the top of the heap is refreshed with *rescore* unless it
        was already scored in *current_iteration*.  If the refreshed score no
        longer keeps it at the top it is pushed back and the process repeats.
        The popped item is removed from the heap (the caller decides whether
        to select or discard it).

        Returns ``None`` when the heap is empty.
        """
        while self._heap:
            score, _, stamp, item = heapq.heappop(self._heap)
            if stamp == current_iteration:
                self.lazy_skips += 1
                return score, item
            fresh = rescore(item)
            self.evaluations += 1
            if not self._heap or fresh <= self._heap[0][0]:
                return fresh, item
            self.push(fresh, item, stamp=current_iteration)
        return None

    def pop_eager(self, rescore: Callable[[T], float]) -> Optional[Tuple[float, T]]:
        """Strawman behaviour: re-score *every* remaining item, pop the minimum.

        Used when the lazy-update optimisation is disabled so that the
        running-time comparison of Table 2 can be reproduced with the same
        code path.
        """
        if not self._heap:
            return None
        self.evaluations += len(self._heap)
        rescored = [(rescore(item), counter, stamp, item) for _, counter, stamp, item in self._heap]
        heapq.heapify(rescored)
        best_score, _, _, best_item = heapq.heappop(rescored)
        self._heap = rescored
        return best_score, best_item

    def pop_eager_batch(
        self, rescore_batch: Callable[[List[T]], List[float]]
    ) -> Optional[Tuple[float, T]]:
        """:meth:`pop_eager` with all candidates refreshed in one batch call.

        Selections are identical to :meth:`pop_eager` (same scores, same
        counters); the batch signature lets an array backend rescore the
        whole candidate set in one vectorized kernel per iteration.
        """
        if not self._heap:
            return None
        self.evaluations += len(self._heap)
        fresh = rescore_batch([entry[3] for entry in self._heap])
        rescored = [
            (score, counter, stamp, item)
            for score, (_, counter, stamp, item) in zip(fresh, self._heap)
        ]
        heapq.heapify(rescored)
        best_score, _, _, best_item = heapq.heappop(rescored)
        self._heap = rescored
        return best_score, best_item


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

    The numpy backend's queue for the PMC greedy at ``beta <= 1``.  It pops
    the same entries, with the same logical counters, as
    :meth:`LazyMinHeap.pop_lazy` called at a new iteration for every pop.  One
    FIFO per score *is* that heap:

    * the heap orders entries by ``(score, counter)``, and a pushed-back entry
      gets a counter newer than every live one, so appending it to the FIFO
      of its score keeps every FIFO in counter order, and the heap's minimum
      is the head of the lowest non-empty FIFO;
    * the Eq. (1) score is a small integer (every non-empty row starts at
      -1), so there are a dozen or so FIFOs.

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

    def __init__(self, rows, scores):
        self._buckets: Dict[int, _Fifo] = {}
        self._keys: List[int] = []  # scores of the non-empty FIFOs, ascending
        self._size = 0
        # Logical counters, identical to LazyMinHeap's for the same pops.
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

    def pop(
        self, rescore_batch: Callable[[object], object], batch_size: int = 32
    ) -> Optional[Tuple[int, int]]:
        """Pop the row with the smallest up-to-date score: ``(score, row)``, or ``None`` if empty.

        ``rescore_batch`` maps an int64 array of rows to the int64 array of
        their fresh scores.  Call once per greedy iteration (see the class).
        """
        if not self._size:
            return None
        walked_rows: List[object] = []
        walked_fresh: List[object] = []
        best, best_at, offset = _INF, -1, 0
        for rows, cached, after in self._chunks(batch_size):
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
