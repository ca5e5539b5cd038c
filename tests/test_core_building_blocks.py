"""Tests for PMC's building blocks: properties, virtual links, partition, lazy heap, decomposition."""

from __future__ import annotations

import math

import pytest

from repro.core import (
    ExtendedLinkSpace,
    LazyMinHeap,
    ProbeMatrix,
    check_coverage,
    check_identifiability,
    coverage_level,
    decompose_by_link_sets,
    decompose_routing_matrix,
    find_confusable_failure_sets,
    identifiability_level,
)
from link_set_oracle import LinkSetPartition
from repro.routing import Path, RoutingMatrix
from repro.topology import Tier, TopologyBuilder


def toy_topology():
    """The 3-link / 3-path example of Fig. 3 in the paper."""
    builder = TopologyBuilder("fig3")
    for name in ("s0", "s1", "s2", "s3"):
        builder.add_node(name, Tier.EDGE)
    builder.add_link("s0", "s1")  # l1 -> link 0
    builder.add_link("s1", "s2")  # l2 -> link 1
    builder.add_link("s2", "s3")  # l3 -> link 2
    return builder.build()


def toy_paths(topology):
    # p1 = {l1, l2}, p2 = {l1, l3}, p3 = {l3} as in Fig. 3.
    return [
        Path(0, ("s0", "s1", "s2"), frozenset({0, 1}), "s0", "s2"),
        Path(1, ("s0", "s1"), frozenset({0, 2}), "s0", "s1"),
        Path(2, ("s2", "s3"), frozenset({2}), "s2", "s3"),
    ]


class TestPropertiesOnFig3:
    def test_p1_p2_only_is_1_identifiable(self):
        topology = toy_topology()
        probe_matrix = ProbeMatrix(topology, toy_paths(topology)[:2])
        assert check_identifiability(probe_matrix, 1)
        assert not check_identifiability(probe_matrix, 2)

    def test_confusable_pairs_found_for_beta2(self):
        topology = toy_topology()
        probe_matrix = ProbeMatrix(topology, toy_paths(topology)[:2])
        confusable = find_confusable_failure_sets(probe_matrix, 2)
        assert confusable  # e.g. {l1} vs {l1, l2} share the syndrome {p1, p2}

    def test_all_three_paths_still_not_2_identifiable(self):
        # {l1,l2} and {l1,l3} both light up all three paths? No: {l1,l2} -> p1,p2
        # and {l1,l3} -> p1,p2,p3, but {l2,l3} -> p1,p2,p3 equals {l1,l3}.
        topology = toy_topology()
        probe_matrix = ProbeMatrix(topology, toy_paths(topology))
        assert check_identifiability(probe_matrix, 1)
        assert not check_identifiability(probe_matrix, 2)

    def test_empty_matrix_not_identifiable(self):
        topology = toy_topology()
        probe_matrix = ProbeMatrix(topology, [])
        assert not check_identifiability(probe_matrix, 1)
        assert identifiability_level(probe_matrix, 2) == 0

    def test_beta_zero_trivially_true(self):
        topology = toy_topology()
        probe_matrix = ProbeMatrix(topology, [])
        assert check_identifiability(probe_matrix, 0)

    def test_coverage_level(self):
        topology = toy_topology()
        probe_matrix = ProbeMatrix(topology, toy_paths(topology))
        assert coverage_level(probe_matrix) == 1
        assert check_coverage(probe_matrix, 1)
        assert not check_coverage(probe_matrix, 2)

    def test_identifiability_level_on_real_matrix(self, fattree4_probe_matrix_11):
        assert identifiability_level(fattree4_probe_matrix_11, max_beta=2) == 1


class TestExtendedLinkSpace:
    def test_beta1_has_no_virtual_links(self):
        space = ExtendedLinkSpace([3, 7, 9], beta=1)
        assert space.num_physical == 3
        assert space.num_virtual == 0
        assert space.num_extended == 3

    def test_beta2_combination_count(self):
        space = ExtendedLinkSpace(range(6), beta=2)
        assert space.num_extended == 6 + math.comb(6, 2)
        assert space.num_extended == space.expected_extended_count()

    def test_beta3_combination_count(self):
        space = ExtendedLinkSpace(range(5), beta=3)
        assert space.num_extended == 5 + math.comb(5, 2) + math.comb(5, 3)

    def test_containing_lists(self):
        space = ExtendedLinkSpace([0, 1, 2], beta=2)
        containing = space.extended_links_containing(1)
        # The singleton {1} plus the pairs {0,1} and {1,2}.
        assert len(containing) == 3
        for ext in containing:
            assert 1 in space.combination(ext)

    def test_links_on_path_or_semantics(self):
        space = ExtendedLinkSpace([0, 1, 2, 3], beta=2)
        on_path = space.extended_links_on_path([0, 1])
        # Every combination containing 0 or 1: singletons {0},{1} and pairs
        # {0,1},{0,2},{0,3},{1,2},{1,3} -> 7 extended links.
        assert len(on_path) == 7

    def test_physical_to_extended_identity_ordering(self):
        space = ExtendedLinkSpace([10, 20, 30], beta=2)
        for link in (10, 20, 30):
            ext = space.physical_to_extended(link)
            assert space.combination(ext) == (link,)
            assert not space.is_virtual(ext)

    def test_unknown_link_raises(self):
        space = ExtendedLinkSpace([1, 2], beta=1)
        with pytest.raises(KeyError):
            space.extended_links_containing(99)
        with pytest.raises(KeyError):
            space.physical_to_extended(99)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ExtendedLinkSpace([1], beta=-1)

    def test_path_links_outside_space_ignored(self):
        space = ExtendedLinkSpace([0, 1], beta=1)
        assert space.extended_links_on_path([0, 99]) == {space.physical_to_extended(0)}


class TestLinkSetPartition:
    def test_initial_state(self):
        partition = LinkSetPartition(5)
        assert partition.num_cells == 1
        assert not partition.fully_refined
        assert partition.cells_touched([0, 3]) == 1

    def test_split_creates_new_cell(self):
        partition = LinkSetPartition(4)
        created = partition.split([0, 1])
        assert created == 1
        assert partition.num_cells == 2
        assert partition.same_cell(0, 1)
        assert partition.same_cell(2, 3)
        assert not partition.same_cell(0, 2)

    def test_split_whole_cell_is_noop(self):
        partition = LinkSetPartition(3)
        partition.split([0, 1, 2])
        assert partition.num_cells == 1

    def test_refinement_to_singletons(self):
        partition = LinkSetPartition(4)
        partition.split([0, 1])
        partition.split([0, 2])
        partition.split([1, 3])  # does this fully refine? {0},{1},{2},{3}
        assert partition.fully_refined
        assert partition.num_singletons == 4

    def test_splits_gained_matches_actual_split(self):
        partition = LinkSetPartition(6)
        for links in ([0, 1, 2], [0, 3], [1, 4]):
            predicted = partition.splits_gained(links)
            actual = partition.split(links)
            assert predicted == actual

    def test_cells_touched_counts_distinct_cells(self):
        partition = LinkSetPartition(4)
        partition.split([0, 1])
        assert partition.cells_touched([0, 2]) == 2
        assert partition.cells_touched([0, 1]) == 1

    def test_signature_is_canonical(self):
        a = LinkSetPartition(4)
        b = LinkSetPartition(4)
        a.split([0, 1])
        b.split([2, 3])  # complementary split -> same partition
        assert a.signature() == b.signature()

    def test_empty_and_single_link_partitions(self):
        empty = LinkSetPartition(0)
        assert empty.fully_refined
        single = LinkSetPartition(1)
        assert single.fully_refined
        assert single.num_singletons == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LinkSetPartition(-1)

    def test_cell_members_view_is_copy(self):
        partition = LinkSetPartition(3)
        members = partition.cell_members(partition.cell_of(0))
        members.discard(0)
        assert 0 in partition.cell_members(partition.cell_of(0))


class TestLazyMinHeap:
    def test_pop_lazy_returns_minimum(self):
        heap = LazyMinHeap([(3.0, "c"), (1.0, "a"), (2.0, "b")])
        score, item = heap.pop_lazy(0, rescore=lambda x: {"a": 1.0, "b": 2.0, "c": 3.0}[x])
        assert item == "a" and score == 1.0

    def test_pop_lazy_reorders_on_stale_scores(self):
        heap = LazyMinHeap([(1.0, "a"), (2.0, "b")])
        # "a" became expensive since insertion; "b" should be returned.
        fresh = {"a": 5.0, "b": 2.0}
        score, item = heap.pop_lazy(1, rescore=lambda x: fresh[x])
        assert item == "b"
        assert len(heap) == 1

    def test_pop_lazy_trusts_current_iteration_stamp(self):
        heap = LazyMinHeap()
        heap.push(1.0, "a", stamp=7)
        calls = []

        def rescore(item):
            calls.append(item)
            return 99.0

        score, item = heap.pop_lazy(7, rescore)
        assert item == "a" and score == 1.0
        assert calls == []  # stamp matches, no rescore

    def test_pop_lazy_empty(self):
        heap = LazyMinHeap()
        assert heap.pop_lazy(0, rescore=lambda x: 0.0) is None

    def test_pop_eager_rescans_everything(self):
        heap = LazyMinHeap([(1.0, "a"), (2.0, "b"), (3.0, "c")])
        fresh = {"a": 9.0, "b": 8.0, "c": 0.5}
        score, item = heap.pop_eager(rescore=lambda x: fresh[x])
        assert item == "c" and score == 0.5
        assert len(heap) == 2

    def test_pop_eager_empty(self):
        assert LazyMinHeap().pop_eager(rescore=lambda x: 0.0) is None


class TestDecomposition:
    def test_fattree_decomposes_per_core_group(self, fattree4_routing):
        # Observation 1 of §4.3: in a Fattree, paths pinned through core group
        # g only use the edge-agg and agg-core links of aggregation position
        # g, so the problem splits into k/2 independent subproblems.
        subproblems = decompose_routing_matrix(fattree4_routing)
        assert len(subproblems) == 2
        assert sum(sp.num_links for sp in subproblems) == fattree4_routing.num_links
        assert sum(sp.num_paths for sp in subproblems) == fattree4_routing.num_paths
        sizes = {sp.num_links for sp in subproblems}
        assert sizes == {fattree4_routing.num_links // 2}

    def test_disjoint_link_sets_split(self):
        link_sets = [frozenset({0, 1}), frozenset({2, 3}), frozenset({1})]
        subproblems = decompose_by_link_sets(link_sets, [0, 1, 2, 3])
        assert len(subproblems) == 2
        sizes = sorted(sp.num_links for sp in subproblems)
        assert sizes == [2, 2]
        by_first_link = {sp.link_ids[0]: sp for sp in subproblems}
        assert set(by_first_link[0].path_indices) == {0, 2}
        assert set(by_first_link[2].path_indices) == {1}

    def test_isolated_links_become_singleton_components(self):
        link_sets = [frozenset({0})]
        subproblems = decompose_by_link_sets(link_sets, [0, 1, 2])
        assert len(subproblems) == 3
        empties = [sp for sp in subproblems if sp.num_paths == 0]
        assert len(empties) == 2

    def test_paths_outside_universe_dropped(self):
        link_sets = [frozenset({10, 11}), frozenset({0})]
        subproblems = decompose_by_link_sets(link_sets, [0])
        assert len(subproblems) == 1
        assert subproblems[0].path_indices == (1,)

    def test_deterministic_ordering(self):
        link_sets = [frozenset({5}), frozenset({1})]
        subproblems = decompose_by_link_sets(link_sets, [1, 5])
        assert subproblems[0].link_ids[0] < subproblems[1].link_ids[0]
