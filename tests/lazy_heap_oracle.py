"""The one-candidate-at-a-time CELF heap: the oracle of the PMC greedy's queues.

``LazyMinHeap`` rescores one candidate per evaluation through a plain
``heapq``.  ``pop_lazy`` (called at a new iteration for every pop) is what
``repro.core.lazy_greedy.BucketQueue.pop`` must replay, and ``pop_eager`` /
``pop_eager_batch`` what ``repro.core.lazy_greedy.EagerQueue.pop`` must:
same ``(score, row)``, same ``evaluations`` and ``lazy_skips``
(``tests/test_bucket_queue.py``).  It is never imported by ``src/``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generic, Iterable, List, Optional, Tuple, TypeVar

__all__ = ["LazyMinHeap"]

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

        The lazy-update-off greedy (Table 2's strawman and decomposition
        columns), one candidate at a time.
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
        counters); the batch signature lets an array kernel rescore the
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
