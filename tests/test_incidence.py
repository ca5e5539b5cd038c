"""Unit tests for the CSR/CSC incidence index and its vectorized kernels.

Every kernel is exercised against a hand-computable answer, plus randomised
differential tests against the plain-list loops of ``tests/python_kernels.py``
and the set-based partition of ``tests/link_set_oracle.py``
(``tests/test_incidence_oracle.py`` runs the full kernel-by-kernel sweep).
"""

from __future__ import annotations

import numpy as np
import pytest

import python_kernels
from repro.core.incidence import IncidenceIndex, RefinablePartition
from link_set_oracle import LinkSetPartition

# A small fixed instance: 5 paths over 6 links (ids deliberately non-dense).
LINKS = [3, 7, 10, 11, 20, 21]
PATHS = [
    frozenset({3, 7}),
    frozenset({7, 10}),
    frozenset({11, 20}),
    frozenset(),
    frozenset({20, 21, 3}),
]


@pytest.fixture
def index():
    return IncidenceIndex(PATHS, LINKS)


class TestIndexViews:
    def test_shapes(self, index):
        assert index.num_paths == 5
        assert index.num_links == 6
        assert index.nnz == 9
        assert index.link_ids == tuple(LINKS)

    def test_row_link_sets_match_input(self, index):
        for row, links in enumerate(PATHS):
            assert index.row_link_set(row) == links
            assert index.row_length(row) == len(links)

    def test_row_cols_sorted(self, index):
        for row in range(index.num_paths):
            cols = list(index.row_cols(row))
            assert cols == sorted(cols)

    def test_paths_through_inverse(self, index):
        for link in LINKS:
            for row in index.paths_through(link):
                assert link in index.row_link_set(row)
        assert index.paths_through(7) == (0, 1)
        assert index.paths_through(21) == (4,)

    def test_foreign_link_raises(self, index):
        with pytest.raises(KeyError):
            index.paths_through(999)
        assert not index.contains_link(999)

    def test_out_of_universe_links_dropped(self, index):
        extra = IncidenceIndex([{3, 999}], LINKS)
        assert extra.row_link_set(0) == {3}


class TestKernels:
    def test_coverage_counts(self, index):
        counts = list(index.coverage_counts())
        assert counts == [2, 2, 1, 1, 2, 1]
        assert index.coverage_histogram() == {3: 2, 7: 2, 10: 1, 11: 1, 20: 2, 21: 1}

    def test_sum_over_row(self, index):
        weights = np.array([1, 2, 4, 8, 16, 32], dtype=np.int64)
        assert index.sum_over_row(weights, 0) == 1 + 2
        assert index.sum_over_row(weights, 3) == 0
        assert index.sum_over_row(weights, 4) == 1 + 16 + 32

    def test_rows_touching_links(self, index):
        assert index.rows_touching_links([7]) == [0, 1]
        assert index.rows_touching_links([3, 20]) == [0, 2, 4]
        assert index.rows_touching_links([999]) == []

    def test_masked_col_counts(self, index):
        mask = np.zeros(index.num_paths, dtype=bool)
        mask[[0, 4]] = True
        counts = list(index.masked_col_counts(mask))
        assert counts == [2, 1, 0, 0, 1, 1]

    def test_row_lengths(self, index):
        assert list(index.row_lengths()) == [2, 2, 2, 0, 3]


class TestComponents:
    def test_structure(self, index):
        components = index.components()
        # {3,7,10,20,21,11} minus path 3 (empty): paths 0,1 connect 3-7-10;
        # paths 2,4 connect 11-20 and 3-20-21 -- via link 3 everything except
        # {11,20}+{20,21,3}... path 4 bridges 3 and 20, so all links are one
        # component except none: check against the union-find oracle instead.
        total_links = sum(len(links) for links, _ in components)
        total_paths = sum(len(rows) for _, rows in components)
        assert total_links == len(LINKS)
        assert total_paths == 4  # the empty path is dropped
        for links, rows in components:
            assert links == tuple(sorted(links))
            for row in rows:
                assert index.row_link_set(row) <= set(links)

    def test_isolated_link_forms_singleton(self):
        idx = IncidenceIndex([{3}], [3, 7])
        components = idx.components()
        assert components == [((3,), (0,)), ((7,), ())]

    def test_subset_rows(self, index):
        components = index.components(rows=[0, 1])
        by_first_link = {links[0]: rows for links, rows in components}
        assert by_first_link[3] == (0, 1)

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n_links = int(rng.integers(1, 30))
            universe = sorted(rng.choice(500, size=n_links, replace=False).tolist())
            m = int(rng.integers(0, 40))
            link_sets = [
                frozenset(
                    rng.choice(
                        universe,
                        size=min(int(rng.integers(0, 5)), len(universe)),
                        replace=False,
                    ).tolist()
                )
                for _ in range(m)
            ]
            index = IncidenceIndex(link_sets, universe)
            csr = index._row_indptr.tolist(), index._row_cols.tolist(), universe
            assert index.components() == python_kernels.components(*csr)
            if m:
                rows = sorted(
                    rng.choice(m, size=int(rng.integers(0, m)), replace=False).tolist()
                )
                assert index.components(rows) == python_kernels.components(*csr, rows)


    def test_both_arms_agree_on_either_side_of_the_size_gate(self):
        """The gate (entries + links >= 512) only picks an arm: union-find and
        csgraph return the same components below, at and above it."""
        rng = np.random.default_rng(7)
        for n_links in (20, 200, 600):
            universe = list(range(n_links))
            link_sets = [
                frozenset(rng.choice(n_links, size=int(rng.integers(1, 6)), replace=False).tolist())
                for _ in range(int(rng.integers(10, 150)))
            ]
            index = IncidenceIndex(link_sets, universe)
            for rows in (None, sorted(rng.choice(len(link_sets), size=8, replace=False).tolist())):
                expected = index._components_union_find(rows)
                assert index._components_vectorized(rows) == expected
                assert index.components(rows) == expected


class TestColumnSignatures:
    """``distinct_column_signatures``: the PMC greedy's termination target."""

    def test_fixed_instance(self, index):
        # Within all rows every crossed link is crossed by a different row set.
        assert index.distinct_column_signatures(LINKS, range(len(PATHS))) == 6
        # Rows 0 and 1 only: 3 -> {0}, 7 -> {0, 1}, 10 -> {1}; 11, 20 and 21
        # are crossed by neither and share the empty signature.
        assert index.distinct_column_signatures(LINKS, [0, 1]) == 4
        assert index.distinct_column_signatures([11, 20, 21], [0, 1]) == 1
        assert index.distinct_column_signatures(LINKS, []) == 1
        assert index.counters.calls("column_signatures") == 4
        assert index.counters.elements("column_signatures") == 6 + 6 + 3 + 6

    def test_lookalike_columns_are_compared_entry_by_entry(self):
        # Links 1 and 2 agree on (count, first row, last row) = (3, 0, 3) but
        # not on the row in between; links 3 and 4 are true twins.
        paths = [{1, 2, 3, 4}, {1}, {2}, {1, 2, 3, 4}, {5}]
        idx = IncidenceIndex(paths, [1, 2, 3, 4, 5, 6])
        assert idx.distinct_column_signatures([1, 2, 3, 4, 5, 6], range(5)) == 5
        assert idx.distinct_column_signatures([1, 2], [0, 3]) == 1
        assert idx.distinct_column_signatures([2, 1], [0, 1, 3]) == 2

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n_links = int(rng.integers(1, 12))
            universe = sorted(rng.choice(100, size=n_links, replace=False).tolist())
            m = int(rng.integers(0, 16))
            link_sets = [
                frozenset(
                    rng.choice(
                        universe, size=int(rng.integers(0, n_links + 1)), replace=False
                    ).tolist()
                )
                for _ in range(m)
            ]
            rows = sorted(rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False).tolist())
            links = rng.permutation(universe)[: int(rng.integers(1, n_links + 1))].tolist()
            expected = len(
                {frozenset(r for r in rows if link in link_sets[r]) for link in links}
            )
            idx = IncidenceIndex(link_sets, universe)
            assert idx.distinct_column_signatures(links, rows) == expected


class TestScipyExport:
    def test_matches_dense_incidence(self, index):
        dense = index.to_scipy_csr().toarray()
        assert dense.shape == (5, 6)
        for row, links in enumerate(PATHS):
            cols = {LINKS.index(l) for l in links}
            assert set(np.nonzero(dense[row])[0]) == cols


class TestRowProjection:
    def test_projection_matches_manual(self, index):
        subset = [3, 20, 21]  # local ids 0, 1, 2
        proj = index.projection(subset)
        assert sorted(proj.row(4)) == [0, 1, 2]
        assert sorted(proj.row(0)) == [0]
        assert list(proj.row(3)) == []

    def test_batch_matches_rows(self):
        idx = IncidenceIndex(PATHS, LINKS)
        subset = [3, 7, 20]
        proj = idx.projection(subset)
        segments, locals_ = proj.batch([0, 3, 4])
        per_row = [[], [], []]
        for seg, loc in zip(segments, locals_):
            per_row[int(seg)].append(int(loc))
        assert per_row[0] == sorted(proj.row(0).tolist())
        assert per_row[1] == []
        assert per_row[2] == sorted(proj.row(4).tolist())


class TestRefinablePartition:
    def test_matches_link_set_partition(self):
        """Differential test against the seed dict-of-sets implementation."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 25))
            array_partition = RefinablePartition(n)
            set_partition = LinkSetPartition(n)
            for _ in range(int(rng.integers(1, 12))):
                members = sorted(
                    rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
                )
                idx = np.array(members, dtype=np.int64)
                touched = array_partition.cells_touched_segmented(np.zeros_like(idx), idx, 1)
                assert touched.tolist() == [set_partition.cells_touched(members)]
                assert array_partition.splits_gained(idx) == set_partition.splits_gained(members)
                assert array_partition.split(idx) == set_partition.split(members)
                assert array_partition.fully_refined == set_partition.fully_refined
                assert array_partition.num_cells == set_partition.num_cells
            assert array_partition.signature() == set_partition.signature()

    def test_empty_partition(self):
        partition = RefinablePartition(0)
        assert partition.fully_refined
        assert partition.num_cells == 0

    def test_segmented_cells_touched(self):
        partition = RefinablePartition(6)
        partition.split(np.array([0, 1, 2]))
        segments = np.array([0, 0, 1, 1, 1])
        members = np.array([0, 3, 1, 2, 4])
        counts = partition.cells_touched_segmented(segments, members, 2)
        assert list(counts) == [2, 2]
