"""Tests for the deterministic cost-model instrumentation layer.

The two properties the benchmark gates rely on:

* counters are *backend-invariant* -- byte-identical under
  ``REPRO_BACKEND=numpy`` and ``REPRO_BACKEND=python`` for the same inputs,
  even though the two backends do completely different physical work
  (chunked batch rescoring vs. per-candidate loops), and
* counters are *deterministic* -- repeated runs agree exactly, so a changed
  counter is a real algorithmic change, never scheduler noise.
"""

from __future__ import annotations

import pytest

from repro.core import CostModel, KernelCounters, PMCOptions, construct_probe_matrix
from repro.core.incidence import Backend, IncidenceIndex, RefinablePartition
from repro.core.lazy_greedy import BucketQueue, LazyMinHeap
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
# incidence-kernel counters: backend invariance
# ---------------------------------------------------------------------------

class TestIncidenceKernelCounters:
    def build(self, backend):
        rows = [(0, 1, 2), (1, 3), (), (2, 3, 4)]
        return IncidenceIndex(rows, link_universe=(0, 1, 2, 3, 4), backend=backend)

    def test_semantic_kernels_tick_identically_across_backends(self):
        import numpy as np

        recorded = {}
        for backend in (Backend.NUMPY, Backend.PYTHON):
            index = self.build(backend)
            mask = [True, False, True, True]
            if backend is Backend.NUMPY:
                mask = np.asarray(mask)
            index.coverage_counts()
            index.weighted_col_counts([1, 2, 0, 3])
            index.masked_col_counts(mask)
            index.components()
            index.rows_touching_links([1, 3])
            index.apply_link_mask([3])
            index.revert_link_mask([3])
            recorded[backend] = index.counters.as_dict()
        assert recorded[Backend.NUMPY] == recorded[Backend.PYTHON]
        assert recorded[Backend.NUMPY]["coverage_counts_calls"] == 1
        assert recorded[Backend.NUMPY]["components_calls"] == 1

    def test_partition_counters_track_refinement(self):
        partition = RefinablePartition(4, backend=Backend.PYTHON)
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
        counters = {}
        for backend in (Backend.NUMPY, Backend.PYTHON):
            routing = RoutingMatrix(fattree4, paths, backend=backend)
            counters[backend] = {
                name: construct_probe_matrix(
                    routing, PMCOptions(alpha=2, beta=1, **flags)
                ).stats.cost_counters()
                for name, flags in levels.items()
            }
        return counters

    def test_counters_byte_identical_across_backends(self, sweep):
        assert sweep[Backend.NUMPY] == sweep[Backend.PYTHON]

    def test_optimisations_cut_greedy_evaluations(self, sweep):
        evals = {name: c["greedy_evaluations"] for name, c in sweep[Backend.NUMPY].items()}
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
