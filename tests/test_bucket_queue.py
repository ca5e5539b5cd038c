"""The greedy's queues must replay the one-candidate CELF heap exactly.

The oracle is ``LazyMinHeap`` of ``tests/lazy_heap_oracle.py``:
``BucketQueue.pop`` must return what ``pop_lazy`` returns at a new iteration
per pop -- the queue's contract is one pop per greedy iteration -- and
``EagerQueue.pop`` what ``pop_eager`` returns.  A hypothesis property drives
the bucket queue and the oracle through tie-heavy, non-monotone score
streams pop for pop, logical counters included; the pinned cases name the
three ways a pop ends; the PMC cases run real fabrics at beta 1 to 3, eager
pops, degenerate subproblems and random small incidences through the solver
with the product queues and with the oracle swapped in for them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pmc as pmc
from lazy_heap_oracle import LazyMinHeap
from repro.core import PMCOptions, Subproblem, construct_probe_matrix
from repro.core.incidence import IncidenceIndex
from repro.core.lazy_greedy import BucketQueue, EagerQueue
from repro.routing import RoutingMatrix, enumerate_candidate_paths


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
        queue.batch_size = rng.choice([1, 2, 3, 8, 64])
        got = queue.pop(batch_fn(table))
        want = oracle.pop_lazy(iteration, table.__getitem__)
        assert got == want, f"pop {iteration} diverged"
        assert (queue.evaluations, queue.lazy_skips) == (oracle.evaluations, oracle.lazy_skips)
        if got is None:
            break
        popped.append(got[1])
        assert len(queue) == len(oracle) == len(rows) - len(popped)
    assert sorted(popped) == sorted(rows)


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(st.integers(min_value=-3, max_value=10), min_size=1, max_size=100),
    rng=st.randoms(use_true_random=False),
)
def test_eager_pops_match_pop_eager(initial, rng):
    """The eager queue against the oracle's ``pop_eager``, pop for pop, counters included."""
    rows = rng.sample(range(10 * len(initial)), len(initial))
    table = dict(zip(rows, initial))
    queue = EagerQueue(rows)
    oracle = LazyMinHeap(zip(initial, rows))
    for _ in rows:
        for row in table:
            table[row] += rng.randint(-1, 3)
        assert queue.pop(batch_fn(table)) == oracle.pop_eager(table.__getitem__)
        assert (queue.evaluations, queue.lazy_skips) == (oracle.evaluations, oracle.lazy_skips)
    assert queue.pop(forbidden) is None and len(queue) == 0


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
        queue = BucketQueue(rows, [0] * len(rows), batch_size=2)
        zeros = batch_fn(dict.fromkeys(rows, 0))
        assert [queue.pop(zeros)[1] for _ in rows] == rows
        assert (queue.evaluations, queue.lazy_skips) == (4, 0)


def _solve(rows, links, **options):
    """``_solve_subproblem`` over one subproblem holding every row and link."""
    index = IncidenceIndex(rows, link_universe=links)
    subproblem = Subproblem(link_ids=tuple(links), path_indices=tuple(range(len(rows))))
    counts = pmc._shard_counts(index, subproblem, index.coverage_counts())
    selected, stats = pmc._solve_subproblem(index, subproblem, PMCOptions(**options), counts)
    verdicts = (stats.fully_refined, stats.coverage_satisfied, stats.uncoverable_links)
    return selected, stats.cost_counters(), verdicts


def _one_by_one(rescore_batch):
    return lambda row: int(rescore_batch(np.array([row], dtype=np.int64))[0])


class HeapAsQueue:
    """``LazyMinHeap.pop_lazy`` behind ``BucketQueue``'s interface: one rescore per evaluation."""

    def __init__(self, rows, scores, batch_size=None):
        self._heap = LazyMinHeap(zip(np.asarray(scores).tolist(), np.asarray(rows).tolist()))
        self._iteration = 0

    @property
    def evaluations(self):
        return self._heap.evaluations

    @property
    def lazy_skips(self):
        return self._heap.lazy_skips

    def pop(self, rescore_batch):
        self._iteration += 1
        return self._heap.pop_lazy(self._iteration, _one_by_one(rescore_batch))


class EagerAsQueue(HeapAsQueue):
    """``LazyMinHeap.pop_eager`` behind ``EagerQueue``'s interface."""

    def __init__(self, rows):
        super().__init__(rows, np.zeros(len(rows), dtype=np.int64))

    def pop(self, rescore_batch):
        return self._heap.pop_eager(_one_by_one(rescore_batch))


def _with_oracle(solve):
    """``solve()`` with the product queues, then with the oracle swapped in for them."""
    product = solve()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(pmc, "BucketQueue", HeapAsQueue)
        patched.setattr(pmc, "EagerQueue", EagerAsQueue)
        return product, solve()


class TestDegenerateSubproblems:
    """Solved by the queue and by ``LazyMinHeap`` alike."""

    @pytest.fixture
    def queue_pops(self, monkeypatch):
        pops = []

        class CountingQueue(BucketQueue):
            def pop(self, *args, **kwargs):
                pops.append(1)
                return super().pop(*args, **kwargs)

        monkeypatch.setattr(pmc, "BucketQueue", CountingQueue)
        return pops

    def test_one_candidate(self, queue_pops, monkeypatch):
        result = _solve([(0, 1, 2)], (0, 1, 2), alpha=2, beta=1)
        monkeypatch.setattr(pmc, "BucketQueue", HeapAsQueue)
        assert _solve([(0, 1, 2)], (0, 1, 2), alpha=2, beta=1) == result
        selected, counters, verdicts = result
        assert selected == [0]
        assert counters["greedy_evaluations"] == 1
        assert verdicts == (False, False, ())
        assert queue_pops == [1]

    def test_every_row_scores_zero(self, queue_pops, monkeypatch):
        """Path-less rows (score 0) with the textbook greedy: all selected, in row order."""
        options = dict(alpha=1, beta=1, skip_zero_gain=False)
        result = _solve([(), (), ()], (0, 1), **options)
        monkeypatch.setattr(pmc, "BucketQueue", HeapAsQueue)
        assert _solve([(), (), ()], (0, 1), **options) == result
        selected, counters, verdicts = result
        assert selected == [0, 1, 2]
        assert counters["greedy_evaluations"] == 3 and counters["lazy_skips"] == 0
        assert verdicts == (False, True, (0, 1))
        assert len(queue_pops) == 4  # three rows, then the empty queue


@pytest.fixture(scope="module")
def fabrics(fattree4_routing, bcube_small):
    table = enumerate_candidate_paths(bcube_small, ordered=False)
    return {"fattree4": fattree4_routing, "bcube41": RoutingMatrix(bcube_small, table)}


def _outcome(result):
    stats = result.stats
    verdicts = (stats.fully_refined, stats.coverage_satisfied, stats.uncoverable_links)
    return result.selected_indices, stats.cost_counters(), verdicts, result.shards


class TestFabricsAgainstTheOracle:
    """Whole plans, with the product queues and with ``LazyMinHeap`` swapped in."""

    @pytest.mark.parametrize("name", ["bcube41", "fattree4"])
    @pytest.mark.parametrize(
        "options",
        [
            dict(alpha=1, beta=2),
            dict(alpha=2, beta=2),
            dict(alpha=1, beta=3),
            dict(alpha=1, beta=2, skip_zero_gain=False),
            dict(alpha=2, beta=1, use_lazy_update=False),
            dict(alpha=1, beta=2, use_lazy_update=False),
            dict(alpha=1, beta=0, use_lazy_update=False, use_decomposition=False),
        ],
        ids=lambda options: ",".join(f"{key}={value}" for key, value in options.items()),
    )
    def test_plan_matches(self, fabrics, name, options):
        product, oracle = _with_oracle(
            lambda: _outcome(construct_probe_matrix(fabrics[name], PMCOptions(**options)))
        )
        assert product == oracle


@st.composite
def small_incidences(draw):
    num_links = draw(st.integers(min_value=1, max_value=7))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=num_links - 1), max_size=4, unique=True),
            min_size=1,
            max_size=12,
        )
    )
    return rows, tuple(range(num_links))


@settings(max_examples=60, deadline=None)
@given(
    incidence=small_incidences(),
    alpha=st.integers(min_value=0, max_value=2),
    beta=st.integers(min_value=0, max_value=3),
    lazy=st.booleans(),
    skip_zero_gain=st.booleans(),
)
def test_random_subproblems_match_the_oracle(incidence, alpha, beta, lazy, skip_zero_gain):
    """Random small incidences: equal selections, counters and verdicts either way."""
    rows, links = incidence
    options = dict(alpha=alpha, beta=beta, use_lazy_update=lazy, skip_zero_gain=skip_zero_gain)
    product, oracle = _with_oracle(lambda: _solve(rows, links, **options))
    assert product == oracle
