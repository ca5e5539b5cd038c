"""BucketQueue must replay the unbatched CELF pop sequence exactly.

The oracle is ``LazyMinHeap.pop_lazy`` at a new iteration per pop -- the
queue's contract is one pop per greedy iteration.  A hypothesis property
drives both through tie-heavy, non-monotone score streams pop for pop,
logical counters included; the pinned cases name the three ways a pop ends;
the PMC cases run degenerate subproblems through the solver on both backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pmc as pmc
from repro.core import PMCOptions, Subproblem
from repro.core.incidence import Backend, IncidenceIndex
from repro.core.lazy_greedy import BucketQueue, LazyMinHeap


def batch_fn(table):
    def rescore_batch(rows):
        return np.asarray([table[row] for row in rows], dtype=np.int64)

    return rescore_batch


def forbidden(rows):
    raise AssertionError(f"should not rescore {rows}")


@settings(max_examples=80, deadline=None)
@given(
    initial=st.lists(st.integers(min_value=-3, max_value=10), min_size=1, max_size=200),
    rng=st.randoms(use_true_random=False),
)
def test_pops_match_unbatched_celf(initial, rng):
    """Pop for pop, the oracle's (score, row), evaluations and lazy skips --
    and every row is popped exactly once (one live entry per row)."""
    rows = rng.sample(range(10 * len(initial)), len(initial))
    table = dict(zip(rows, initial))
    queue = BucketQueue(rows, initial)
    oracle = LazyMinHeap(zip(initial, rows))
    popped = []
    iteration = 0
    while True:
        iteration += 1
        for row in table:
            table[row] += rng.randint(-1, 3)
        batch_size = rng.choice([1, 2, 3, 8, 64])
        got = queue.pop(batch_fn(table), batch_size=batch_size)
        want = oracle.pop_lazy(iteration, table.__getitem__)
        assert got == want, f"pop {iteration} diverged"
        assert (queue.evaluations, queue.lazy_skips) == (oracle.evaluations, oracle.lazy_skips)
        if got is None:
            break
        popped.append(got[1])
        assert len(queue) == len(oracle) == len(rows) - len(popped)
    assert sorted(popped) == sorted(rows)


class TestPopEndings:
    def test_refreshed_row_that_stays_on_top_is_selected(self):
        queue = BucketQueue([0, 1, 2], [0, 0, 10])
        # Row 0 rescores to 5 and goes back; row 1 rescores to 3 <= min(10, 5).
        assert queue.pop(batch_fn({0: 5, 1: 3, 2: 10})) == (3, 1)
        assert (queue.evaluations, queue.lazy_skips) == (2, 0)

    def test_pushed_back_row_wins_as_a_lazy_skip(self):
        queue = BucketQueue([0, 1, 2], [0, 0, 10])
        # Rows 0 and 1 go back at 5 and 7; row 0 (5) then beats row 2's cached 10.
        assert queue.pop(batch_fn({0: 5, 1: 7, 2: 10})) == (5, 0)
        assert (queue.evaluations, queue.lazy_skips) == (2, 1)
        # Row 1 went back at 7, ahead of row 2's cached 10.
        assert queue.pop(batch_fn({1: 7, 2: 11})) == (7, 1)
        assert (queue.evaluations, queue.lazy_skips) == (3, 1)

    def test_walk_runs_out(self):
        queue = BucketQueue([4, 9], [0, 0])
        assert queue.pop(batch_fn({4: 5, 9: 7})) == (5, 4)
        assert (queue.evaluations, queue.lazy_skips) == (2, 1)
        assert len(queue) == 1


class TestEdgeCases:
    def test_empty_queue(self):
        queue = BucketQueue([], [])
        assert len(queue) == 0
        assert queue.pop(forbidden) is None

    def test_one_row(self):
        queue = BucketQueue([7], [-1])
        assert queue.pop(batch_fn({7: 4})) == (4, 7)
        assert queue.pop(forbidden) is None
        assert (queue.evaluations, queue.lazy_skips) == (1, 0)

    def test_all_rows_score_zero(self):
        """Every pop is the head, rescored once: rows come out in insertion order."""
        rows = [5, 3, 8, 1]
        queue = BucketQueue(rows, [0] * len(rows))
        zeros = batch_fn(dict.fromkeys(rows, 0))
        assert [queue.pop(zeros, batch_size=2)[1] for _ in rows] == rows
        assert (queue.evaluations, queue.lazy_skips) == (4, 0)


def _solve(rows, links, backend, **options):
    """``_solve_subproblem`` over one subproblem holding every row and link."""
    index = IncidenceIndex(rows, link_universe=links, backend=backend)
    subproblem = Subproblem(link_ids=tuple(links), path_indices=tuple(range(len(rows))))
    counts = pmc._shard_counts(index, subproblem, index.coverage_counts())
    selected, stats = pmc._solve_subproblem(index, subproblem, PMCOptions(**options), counts)
    verdicts = (stats.fully_refined, stats.coverage_satisfied, stats.uncoverable_links)
    return selected, stats.cost_counters(), verdicts


class TestDegenerateSubproblems:
    """Solved by the queue (numpy) and by ``LazyMinHeap`` (python) alike."""

    @pytest.fixture
    def queue_pops(self, monkeypatch):
        pops = []

        class CountingQueue(BucketQueue):
            def pop(self, *args, **kwargs):
                pops.append(1)
                return super().pop(*args, **kwargs)

        monkeypatch.setattr(pmc, "BucketQueue", CountingQueue)
        return pops

    def test_one_candidate(self, queue_pops):
        results = [_solve([(0, 1, 2)], (0, 1, 2), backend, alpha=2, beta=1) for backend in Backend]
        assert results[0] == results[1]
        selected, counters, verdicts = results[0]
        assert selected == [0]
        assert counters["greedy_evaluations"] == 1
        assert verdicts == (False, False, ())
        assert queue_pops == [1]

    def test_every_row_scores_zero(self, queue_pops):
        """Path-less rows (score 0) with the textbook greedy: all selected, in row order."""
        results = [
            _solve([(), (), ()], (0, 1), backend, alpha=1, beta=1, skip_zero_gain=False)
            for backend in Backend
        ]
        assert results[0] == results[1]
        selected, counters, verdicts = results[0]
        assert selected == [0, 1, 2]
        assert counters["greedy_evaluations"] == 3 and counters["lazy_skips"] == 0
        assert verdicts == (False, True, (0, 1))
        assert len(queue_pops) == 4  # three rows, then the empty queue
