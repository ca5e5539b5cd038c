"""Lazy (CELF-style) candidate selection for the PMC greedy (§4.3, Observation 2).

The strawman greedy re-scores every candidate path in every iteration.  The
lazy variant keeps a min-heap keyed by the last known score of each path and
only refreshes the score of the path at the top: if the refreshed score keeps
it at the top, it is selected without touching the other candidates.  This is
the standard CELF optimisation of Leskovec et al., adapted to a minimisation
objective.

The heap is agnostic about what a "score" is; the PMC algorithm plugs in the
Eq. (1) score.  Entries carry the iteration stamp of their last refresh so the
selector can decide whether the cached score is still trustworthy.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, Iterable, List, Optional, Tuple, TypeVar

__all__ = ["LazyMinHeap", "BatchCELFHeap", "ShardedSolutionCache"]

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
        # implementation of the same CELF pop sequence (see BatchCELFHeap).
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


class BatchCELFHeap:
    """Integer-keyed CELF heap with chunked, batch-rescored pops.

    A drop-in replacement for :class:`LazyMinHeap` + :meth:`~LazyMinHeap.pop_lazy`
    built for the array incidence backend: candidate scores are *integers*
    (Eq. 1 sums minus cell counts), so a heap entry packs ``(score, counter)``
    into one Python int -- ``score * 2**41 + counter`` -- making every heap
    operation a scalar comparison instead of a tuple compare.  Pops collect a
    whole chunk of stale entries, refresh them in ONE ``rescore_batch`` call
    (one vectorized kernel), then *replay* the unbatched CELF pop sequence
    over the precomputed fresh scores with a prefix-minimum scan.

    The replay is decision-for-decision identical to :meth:`LazyMinHeap.pop_lazy`:

    * a refreshed entry pushed back this iteration wins the next pop exactly
      when its fresh score is strictly below the next stale cached score (on
      score ties the older counter wins, and pushed-back counters are newer);
    * a just-refreshed entry is selected exactly when its fresh score is
      ``<=`` the minimum of the best pushed-back score and the next cached
      score (the heap-top comparison of the unbatched loop);
    * entries past the selection point are restored untouched.

    Only the *values* of the counters differ from the unbatched run (skipped
    pushes shift them); their relative order -- the only thing pop order
    depends on -- is preserved, so selections are byte-identical.
    """

    SHIFT_BITS = 41
    _SHIFT = 1 << SHIFT_BITS  # counters stay below this; scores are small ints

    def __init__(self, items: Iterable[Tuple[int, T]] = ()):
        self._items: List[T] = []
        self._stamps: List[int] = []
        # Logical counters matching LazyMinHeap's exactly: `evaluations`
        # counts the rescores the *unbatched* replay performs (chunk
        # overshoot excluded -- overshoot entries are restored with their
        # stale keys and never influenced a decision), `lazy_skips` the pops
        # resolved from a score cached earlier in the same iteration.
        self.evaluations = 0
        self.lazy_skips = 0
        keys: List[int] = []
        shift = self._SHIFT
        for score, item in items:
            counter = len(self._items)
            self._items.append(item)
            self._stamps.append(-1)
            keys.append(score * shift + counter)
        heapq.heapify(keys)
        self._heap = keys

    def __len__(self) -> int:
        return len(self._heap)

    def _compact(self) -> None:
        """Renumber counters to bound ``_items``/``_stamps`` growth.

        Each item has at most one live heap entry, but every push-back
        allocates a fresh counter slot, so the side arrays grow with total
        rescores rather than heap size.  Renumbering entries in current
        (score, counter) order preserves the relative order of every entry --
        the only thing pop order depends on -- so selections are unaffected.
        """
        order = sorted(self._heap)
        mask = self._SHIFT - 1
        bits = self.SHIFT_BITS
        shift = self._SHIFT
        items = self._items
        stamps = self._stamps
        new_items: List[T] = []
        new_stamps: List[int] = []
        new_heap: List[int] = []
        for new_counter, key in enumerate(order):
            counter = key & mask
            new_items.append(items[counter])
            new_stamps.append(stamps[counter])
            new_heap.append((key >> bits) * shift + new_counter)
        self._items = new_items
        self._stamps = new_stamps
        self._heap = new_heap  # ascending order is a valid min-heap

    def pop_lazy_batch(
        self,
        current_iteration: int,
        rescore_batch: Callable[[List[T]], List[int]],
        batch_size: int = 32,
    ) -> Optional[Tuple[int, T]]:
        heap = self._heap
        if not heap:
            return None
        if len(self._items) > max(4 * len(heap), 65536):
            self._compact()
            heap = self._heap
        mask = self._SHIFT - 1
        bits = self.SHIFT_BITS
        items = self._items
        stamps = self._stamps
        heappop = heapq.heappop
        heappush = heapq.heappush
        # Per-iteration refresh demand is bursty (symmetric fabrics alternate
        # near-free selections with big refresh waves), so no hint from the
        # previous iteration predicts it well.  Start small and grow the
        # refill geometrically: overshoot stays a constant factor of the true
        # demand while refills stay logarithmic.
        chunk_size = batch_size

        popped_keys: List[int] = []  # stale keys in pop order (ascending)
        popped_scores: List[int] = []  # their cached scores, pre-decoded
        fresh: List[int] = []  # their batch-computed fresh scores
        boundary_key: Optional[int] = None  # first fresh entry reached, if any
        boundary_score = 0
        best: Optional[int] = None  # prefix-min of fresh ("sim top" of replay)
        best_j = -1
        i = 0
        n = 0
        kind = ""
        while True:
            if i >= n and boundary_key is None and heap:
                chunk_keys: List[int] = []
                chunk_items: List[T] = []
                while heap and len(chunk_keys) < chunk_size:
                    key = heappop(heap)
                    counter = key & mask
                    if stamps[counter] == current_iteration:
                        boundary_key = key
                        boundary_score = key >> bits
                        break
                    chunk_keys.append(key)
                    chunk_items.append(items[counter])
                if chunk_keys:
                    fresh.extend(rescore_batch(chunk_items))
                    popped_keys.extend(chunk_keys)
                    popped_scores.extend(k >> bits for k in chunk_keys)
                    n = len(popped_keys)
                chunk_size *= 2

            if i < n:
                # Rule 1: an already-refreshed entry outranks this stale one
                # (score strictly lower; on ties the older stale counter wins).
                if best is not None and best < popped_scores[i]:
                    kind = "sim"
                    break
                fresh_i = fresh[i]
                # Smallest competing cached score: popped is in ascending key
                # order and boundary / heap top rank above all of it.
                i1 = i + 1
                if i1 < n:
                    nxt = popped_scores[i1]
                elif boundary_key is not None:
                    nxt = boundary_score
                elif heap:
                    nxt = heap[0] >> bits
                else:
                    nxt = None
                if best is not None and (nxt is None or best < nxt):
                    nxt = best
                # Rule 2: the refreshed score keeps this entry at the top.
                if nxt is None or fresh_i <= nxt:
                    kind = "stale"
                    break
                if best is None or fresh_i < best:
                    best = fresh_i
                    best_j = i
                i = i1
                continue

            # Every scored stale entry was processed without a winner.
            if boundary_key is not None:
                kind = "sim" if (best is not None and best < boundary_score) else "boundary"
                break
            if not heap:
                kind = "sim" if best is not None else "none"
                break
            if best is not None and best < (heap[0] >> bits):
                kind = "sim"
                break
            # The heap top (stale, unscored) is the global minimum: refill.

        # Logical bookkeeping, mirroring the unbatched loop: entries
        # 0..limit-1 were rescored-and-pushed-back there (plus the selected
        # one itself on a "stale" selection); "sim"/"boundary" selections pop
        # an entry already refreshed this iteration, i.e. a lazy skip.
        sel_j = -1
        if kind == "sim":
            limit = i
            sel_j = best_j
            selected = (best, items[popped_keys[best_j] & mask])
            self.lazy_skips += 1
        elif kind == "stale":
            limit = i
            selected = (fresh[i], items[popped_keys[i] & mask])
        elif kind == "boundary":
            limit = n
            selected = (boundary_score, items[boundary_key & mask])
            boundary_key = None
            self.lazy_skips += 1
        else:
            limit = n
            selected = None
        self.evaluations += limit + (1 if kind == "stale" else 0)

        if limit:
            shift = self._SHIFT
            counter = len(items)
            pushed_items: List[T] = []
            for j in range(limit):
                if j == sel_j:
                    continue
                pushed_items.append(items[popped_keys[j] & mask])
                heappush(heap, fresh[j] * shift + counter)
                counter += 1
            items.extend(pushed_items)
            stamps.extend([current_iteration] * len(pushed_items))
        for j in range(i + 1 if kind == "stale" else limit, n):
            heappush(heap, popped_keys[j])
        if boundary_key is not None:
            heappush(heap, boundary_key)

        return selected


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
