"""Tests for the deterministic cost-model instrumentation layer.

The two properties the benchmark gates rely on:

* counters are *implementation-invariant* -- they count semantic operations,
  so the batched queue and the one-at-a-time heap report the same logical
  work, and the pinned values below hold for any vectorization of the same
  kernel questions, and
* counters are *deterministic* -- repeated runs agree exactly, so a changed
  counter is a real algorithmic change, never scheduler noise.
"""

from __future__ import annotations

import pytest

from repro.core import CostModel, KernelCounters, PMCOptions, construct_probe_matrix
from repro.core.incidence import IncidenceIndex, RefinablePartition
from lazy_heap_oracle import LazyMinHeap
from repro.core.lazy_greedy import BucketQueue, EagerQueue
from repro.routing import RoutingMatrix, enumerate_candidate_paths


# ---------------------------------------------------------------------------
# the accumulator itself
# ---------------------------------------------------------------------------

class TestCostModel:
    def test_counters_accumulate_and_default_to_zero(self):
        model = CostModel()
        assert model["anything"] == 0
        model.add("evals")
        model.add("evals", 4)
        assert model["evals"] == 5 and model.get("missing", 7) == 7

    def test_as_dict_is_sorted_and_plain_ints(self):
        model = CostModel()
        model.add("zeta", 2)
        model.add("alpha", 1)
        rendered = model.as_dict()
        assert list(rendered) == ["alpha", "zeta"]
        assert all(type(v) is int for v in rendered.values())

    def test_merge_and_equality(self):
        a, b = CostModel({"x": 1}), CostModel({"x": 2, "y": 3})
        a.merge(b)
        assert a == CostModel({"x": 3, "y": 3})
        assert a == {"x": 3, "y": 3}

    def test_kernel_counters_tick(self):
        counters = KernelCounters()
        counters.tick("coverage_counts", 10)
        counters.tick("coverage_counts", 10)
        counters.tick("components")
        assert counters.calls("coverage_counts") == 2
        assert counters.elements("coverage_counts") == 20
        assert counters.calls("components") == 1
        assert counters.elements("components") == 0


# ---------------------------------------------------------------------------
# incidence-kernel counters: one tick per question, pinned
# ---------------------------------------------------------------------------

class TestIncidenceKernelCounters:
    def test_semantic_kernels_tick_pinned_counts(self):
        import numpy as np

        index = IncidenceIndex([(0, 1, 2), (1, 3), (), (2, 3, 4)], link_universe=(0, 1, 2, 3, 4))
        index.coverage_counts()
        index.weighted_col_counts([1, 2, 0, 3])
        index.masked_col_counts(np.asarray([True, False, True, True]))
        index.components()
        index.rows_touching_links([1, 3])
        index.apply_link_mask([3])
        index.revert_link_mask([3])
        # Elements: columns for coverage, entries for the folds, rows for the
        # decomposition, queried links for the syndrome.
        assert index.counters.as_dict() == {
            "apply_link_mask_calls": 1,
            "components_calls": 1,
            "components_elements": 4,
            "coverage_counts_calls": 1,
            "coverage_counts_elements": 5,
            "masked_col_counts_calls": 1,
            "masked_col_counts_elements": 8,
            "revert_link_mask_calls": 1,
            "rows_touching_links_calls": 1,
            "rows_touching_links_elements": 2,
            "weighted_col_counts_calls": 1,
            "weighted_col_counts_elements": 8,
        }

    def test_partition_counters_track_refinement(self):
        partition = RefinablePartition(4)
        assert partition.splits_gained([0, 1]) == 1
        partition.split([0, 1])
        partition.split([0])
        assert partition.splits_performed == 2
        assert partition.cells_created == 2
        assert partition.gain_queries == 1


# ---------------------------------------------------------------------------
# heap counters: the lazy/batched implementations agree on logical work
# ---------------------------------------------------------------------------

class TestHeapCounters:
    def test_eager_pop_counts_whole_heap(self):
        heap = LazyMinHeap([(0, "a"), (0, "b"), (0, "c")])
        heap.pop_eager(lambda item: {"a": 3, "b": 1, "c": 2}[item])
        assert heap.evaluations == 3
        assert heap.lazy_skips == 0
        queue = EagerQueue([0, 1, 2])
        assert queue.pop(lambda rows: [[3, 1, 2][row] for row in rows]) == (1, 1)
        assert (queue.evaluations, queue.lazy_skips) == (3, 0)

    def test_lazy_and_batched_heaps_agree_on_logical_counters(self):
        """Drive both heap flavours through the same CELF schedule: the
        batched replay must report the unbatched loop's evaluation and skip
        counts exactly (chunk overshoot excluded)."""
        items = list(range(40))
        # A score function that changes with the iteration so entries get
        # pushed back and re-examined (forcing skips and refills).
        def score_fn(iteration):
            def score(item):
                return (item * 7 + iteration * 3) % 11 - 1

            return score

        plain = LazyMinHeap((-1, i) for i in items)
        batched = BucketQueue(items, [-1] * len(items))
        for iteration in range(1, 15):
            score = score_fn(iteration)
            a = plain.pop_lazy(iteration, score)
            b = batched.pop(lambda xs: [score(x) for x in xs])
            assert a == b
        assert plain.evaluations == batched.evaluations
        assert plain.lazy_skips == batched.lazy_skips
        assert plain.evaluations > 0


# ---------------------------------------------------------------------------
# PMC cost counters: end-to-end invariance + the Table 2 work ordering
# ---------------------------------------------------------------------------

class TestPMCCostCounters:
    @pytest.fixture(scope="class")
    def sweep(self, fattree4):
        paths = enumerate_candidate_paths(fattree4, ordered=False)
        levels = {
            "strawman": dict(use_decomposition=False, use_lazy_update=False, use_symmetry=False),
            "decomposition": dict(use_decomposition=True, use_lazy_update=False, use_symmetry=False),
            "lazy": dict(use_decomposition=True, use_lazy_update=True, use_symmetry=False),
            "symmetry": dict(use_decomposition=True, use_lazy_update=True, use_symmetry=True),
        }
        routing = RoutingMatrix(fattree4, paths)
        return {
            name: construct_probe_matrix(
                routing, PMCOptions(alpha=2, beta=1, **flags)
            ).stats.cost_counters()
            for name, flags in levels.items()
        }

    def test_counters_are_pinned(self, sweep):
        def profile(evaluations, skips, cells, subproblems, reused, iterations=22, queries=20):
            return {
                "candidates_discarded": 0,
                "greedy_evaluations": evaluations,
                "greedy_iterations": iterations,
                "lazy_skips": skips,
                "partition_cells_created": cells,
                "partition_gain_queries": queries,
                "partition_splits": iterations,
                "reused_subproblems": reused,
                "subproblems": subproblems,
            }

        assert sweep == {
            "strawman": profile(2233, 0, 31, 1, 0),
            "decomposition": profile(1122, 0, 30, 2, 0),
            "lazy": profile(268, 2, 30, 2, 0),
            "symmetry": profile(134, 1, 15, 2, 1, iterations=11, queries=10),
        }

    def test_optimisations_cut_greedy_evaluations(self, sweep):
        evals = {name: c["greedy_evaluations"] for name, c in sweep.items()}
        assert evals["decomposition"] <= evals["strawman"]
        assert evals["lazy"] <= evals["decomposition"]
        assert evals["symmetry"] <= evals["strawman"]
        # The fully-optimised variant is orders of magnitude below strawman.
        assert evals["symmetry"] * 5 < evals["strawman"]

    def test_counters_are_repeatable(self, fattree4):
        paths = enumerate_candidate_paths(fattree4, ordered=False)
        routing = RoutingMatrix(fattree4, paths)
        options = PMCOptions(alpha=2, beta=1)
        first = construct_probe_matrix(routing, options).stats.cost_counters()
        second = construct_probe_matrix(routing, options).stats.cost_counters()
        assert first == second

    def test_symmetry_collapses_are_counted(self, fattree4):
        paths = enumerate_candidate_paths(fattree4, ordered=False)
        routing = RoutingMatrix(fattree4, paths)
        result = construct_probe_matrix(routing, PMCOptions(alpha=2, beta=1, use_symmetry=True))
        counters = result.stats.cost_counters()
        # Fattree(4): k/2 = 2 isomorphic components, one solved and one replayed;
        # the replay selects its share of the paths in zero greedy iterations.
        assert counters["subproblems"] == 2 and counters["reused_subproblems"] == 1
        assert counters["greedy_iterations"] * 2 == result.num_paths
