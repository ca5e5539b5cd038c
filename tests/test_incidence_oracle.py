"""The incidence product against its oracle, and the consumers' pinned outputs.

Every :class:`~repro.core.incidence.IncidenceIndex` kernel must return what
the plain-list loops of ``tests/python_kernels.py`` return, on the candidate
sets of real fabrics (Fattree(4/6/8), VL2(12,8,2), BCube(4,2)) and on random
incidences with empty rows, repeated and out-of-universe hops, an empty
universe and link masks.  The two consumer hot spots the paper cares about --
PMC selections and PLL suspect sets on Fattree(4) and BCube(4,1) -- are
pinned by sha256, so a kernel change that moves either fails here even when
the oracle moved with it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import python_kernels as oracle
from repro.core import PMCOptions, construct_probe_matrix
from repro.core.incidence import IncidenceIndex, RefinablePartition, clear_if_reached, first_max
from repro.localization import ObservationSet, PathObservation, PLLConfig, PLLLocalizer
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_bcube, build_fattree, build_vl2


@dataclass
class Queries:
    """One draw of every kernel argument, over an index of ``m`` rows."""

    row_mask: List[bool]
    row_values: List[int]
    syndrome_links: List[int]
    masked_links: List[int]
    subset_rows: Optional[List[int]]
    signature_links: List[int]
    projection_links: List[int]
    col_pods: List[int]
    split_sets: List[List[int]]


def _flat(rows: Sequence[Sequence[int]]):
    indptr, links = [0], []
    for row in rows:
        links.extend(row)
        indptr.append(len(links))
    return indptr, links


@dataclass
class Case:
    """An index under test, its universe, the oracle's CSR/CSC and the queries."""

    index: IncidenceIndex
    universe: List[int]
    quad: oracle.Quad
    q: Queries

    @property
    def rows(self) -> Sequence[int]:
        return range(self.index.num_paths) if self.q.subset_rows is None else self.q.subset_rows


def _case(index: IncidenceIndex, indptr, links, universe, q: Queries) -> Case:
    return Case(index, list(universe), oracle.csr_csc(indptr, links, universe), q)


def check_structure(c: Case) -> None:
    for name, expected in zip(("_row_indptr", "_row_cols", "_col_indptr", "_col_rows"), c.quad):
        assert getattr(c.index, name).tolist() == expected
    assert c.index.nnz == len(c.quad[1])


def check_row_lengths(c: Case) -> None:
    assert c.index.row_lengths().tolist() == oracle.row_lengths(c.quad[0])


def check_coverage_counts(c: Case) -> None:
    assert c.index.coverage_counts().tolist() == oracle.coverage_counts(c.quad[2])


def check_masked_col_counts(c: Case) -> None:
    _, _, col_indptr, col_rows = c.quad
    mask = np.array(c.q.row_mask, dtype=bool)
    assert c.index.masked_col_counts(mask).tolist() == oracle.masked_col_counts(
        col_indptr, col_rows, c.q.row_mask
    )


def check_weighted_col_counts(c: Case) -> None:
    _, _, col_indptr, col_rows = c.quad
    assert c.index.weighted_col_counts(c.q.row_values).tolist() == oracle.weighted_col_counts(
        col_indptr, col_rows, c.q.row_values
    )


def check_rows_touching_links(c: Case) -> None:
    _, _, col_indptr, col_rows = c.quad
    assert c.index.rows_touching_links(c.q.syndrome_links) == oracle.rows_touching_links(
        col_indptr, col_rows, c.universe, c.q.syndrome_links
    )


def check_components(c: Case) -> None:
    """Over all rows and over a subset (the size gate picks the arm)."""
    row_indptr, row_cols, _, _ = c.quad
    assert c.index.components() == oracle.components(row_indptr, row_cols, c.universe)
    if c.q.subset_rows is not None:
        assert c.index.components(c.q.subset_rows) == oracle.components(
            row_indptr, row_cols, c.universe, c.q.subset_rows
        )


def check_pod_shards(c: Case) -> None:
    row_indptr, row_cols, _, _ = c.quad
    assert c.index.pod_shards(c.q.col_pods, c.q.subset_rows) == oracle.pod_shards(
        row_indptr, row_cols, c.universe, c.q.col_pods, c.q.subset_rows
    )


def check_column_signatures(c: Case) -> None:
    _, _, col_indptr, col_rows = c.quad
    if c.q.signature_links:
        assert c.index.distinct_column_signatures(
            c.q.signature_links, c.rows
        ) == oracle.distinct_column_signatures(
            col_indptr, col_rows, c.universe, c.q.signature_links, c.rows
        )


def check_projection(c: Case) -> None:
    """The row projection onto a sorted link subset, row by row and batched."""
    row_indptr, row_cols, _, _ = c.quad
    rows = c.rows
    subset = sorted(c.q.projection_links)
    projection = c.index.projection(subset)
    expected_rows = [oracle.project_row(row_indptr, row_cols, c.universe, subset, r) for r in rows]
    assert [projection.row(r).tolist() for r in rows] == expected_rows
    segments, locals_ = projection.batch(list(rows))
    assert segments.tolist() == [s for s, row in enumerate(expected_rows) for _ in row]
    assert locals_.tolist() == [local for row in expected_rows for local in row]


def check_link_mask(c: Case) -> None:
    """The mask family: apply, read every view, revert."""
    index, m = c.index, c.index.num_paths
    row_indptr, row_cols, col_indptr, col_rows = c.quad
    masked_cols = {c.universe.index(l) for l in c.q.masked_links if l in c.universe}
    active = oracle.active_rows(row_indptr, row_cols, masked_cols)
    active_mask = [False] * m
    for r in active:
        active_mask[r] = True
    index.apply_link_mask(c.q.masked_links)
    try:
        assert index.active_rows() == active
        assert index.active_row_mask().tolist() == active_mask
        assert index.num_active_rows == len(active)
        assert list(index.active_among(list(c.rows))) == [r for r in c.rows if active_mask[r]]
        assert index.active_coverage_counts().tolist() == oracle.masked_col_counts(
            col_indptr, col_rows, active_mask
        )
    finally:
        index.revert_link_mask(c.q.masked_links)
    assert index.active_rows() == list(range(m))
    assert index.active_coverage_counts().tolist() == oracle.coverage_counts(col_indptr)


def check_partition(c: Case) -> None:
    """The partition queries of the greedy, split by split."""
    n = c.index.num_links
    partition = RefinablePartition(n)
    for members in c.q.split_sets:
        cell_of = [partition.cell_of(i) for i in range(n)]
        idx = np.array(members, dtype=np.int64)
        touched = partition.cells_touched_segmented(np.zeros_like(idx), idx, 1)
        assert touched.tolist() == [oracle.cells_touched(cell_of, members)]
        assert partition.splits_gained(idx) == oracle.splits_gained(cell_of, members)
        seg = np.arange(len(members), dtype=np.int64) % 3
        assert partition.cells_touched_segmented(seg, idx, 3).tolist() == (
            oracle.cells_touched_segmented(cell_of, seg.tolist(), members, 3)
        )
        created = partition.split(idx)
        assert created == oracle.splits_gained(cell_of, members)


def check_first_max(c: Case) -> None:
    counts = np.array(c.q.row_values, dtype=np.int64)
    assert first_max(counts) == oracle.first_max(c.q.row_values)


def check_clear_if_reached(c: Case) -> None:
    m = c.index.num_paths
    counts = np.array(c.q.row_values, dtype=np.int64)
    product_mask = np.array(c.q.row_mask, dtype=bool)
    oracle_mask = list(c.q.row_mask)
    every = np.arange(m, dtype=np.int64)
    assert clear_if_reached(product_mask, counts, every, 3) == oracle.clear_if_reached(
        oracle_mask, c.q.row_values, range(m), 3
    )
    assert product_mask.tolist() == oracle_mask


#: One entry per kernel family, so a fabric failure names the kernel.
KERNEL_CHECKS = {
    "structure": check_structure,
    "row_lengths": check_row_lengths,
    "coverage_counts": check_coverage_counts,
    "masked_col_counts": check_masked_col_counts,
    "weighted_col_counts": check_weighted_col_counts,
    "rows_touching_links": check_rows_touching_links,
    "components": check_components,
    "pod_shards": check_pod_shards,
    "column_signatures": check_column_signatures,
    "projection": check_projection,
    "link_mask": check_link_mask,
    "partition": check_partition,
    "first_max": check_first_max,
    "clear_if_reached": check_clear_if_reached,
}


def assert_kernels_match(index: IncidenceIndex, indptr, links, universe, q: Queries) -> None:
    case = _case(index, indptr, links, universe, q)
    for check in KERNEL_CHECKS.values():
        check(case)


def _seeded_queries(universe: Sequence[int], m: int, seed: int) -> Queries:
    rng = random.Random(seed)
    n = len(universe)
    return Queries(
        row_mask=[rng.random() < 0.3 for _ in range(m)],
        row_values=[rng.randrange(10) for _ in range(m)],
        syndrome_links=rng.sample(list(universe), min(3, n)) + [-5],
        masked_links=rng.sample(list(universe), min(2, n)) + [-5],
        subset_rows=rng.sample(range(m), m // 3),
        signature_links=rng.sample(list(universe), n),
        projection_links=rng.sample(list(universe), n // 2),
        col_pods=[rng.randrange(-1, 4) for _ in range(n)],
        split_sets=[rng.sample(range(n), rng.randrange(1, min(n, 12) + 1)) for _ in range(6)],
    )


FABRICS = {
    "fattree4": lambda: build_fattree(4),
    "fattree6": lambda: build_fattree(6),
    "fattree8": lambda: build_fattree(8),
    "vl2_12_8_2": lambda: build_vl2(12, 8, 2),
    "bcube4_2": lambda: build_bcube(4, 2),
}


@functools.lru_cache(maxsize=None)
def _fabric_case(fabric: str) -> Case:
    topology = FABRICS[fabric]()
    table = enumerate_candidate_paths(topology, ordered=False)
    matrix = RoutingMatrix(topology, table)
    indptr, links = table.link_rows()
    universe = list(matrix.link_ids)
    queries = _seeded_queries(universe, matrix.num_paths, seed=len(universe))
    return _case(matrix.incidence, indptr, links, universe, queries)


@pytest.mark.parametrize("kernel", list(KERNEL_CHECKS))
@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_fabric_kernels_equal_the_oracle(fabric, kernel):
    KERNEL_CHECKS[kernel](_fabric_case(fabric))


@st.composite
def incidences(draw):
    """A random universe (possibly empty) and rows with empty rows and repeated
    or foreign hops; ids above 60 are never in the universe."""
    universe = draw(st.lists(st.integers(0, 60), unique=True, max_size=12))
    hop = st.integers(0, 70)
    if universe:
        hop = st.one_of(st.sampled_from(universe), hop)
    rows = draw(st.lists(st.lists(hop, max_size=6), max_size=16))
    return universe, rows


@given(incidences(), st.data())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_kernels_equal_the_oracle(incidence, data):
    universe, rows = incidence
    m, n = len(rows), len(universe)
    some_links = st.lists(st.sampled_from(universe), unique=True) if universe else st.just([])
    foreign = st.lists(st.integers(61, 70), max_size=2)
    queries = Queries(
        row_mask=data.draw(st.lists(st.booleans(), min_size=m, max_size=m)),
        row_values=data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m)),
        syndrome_links=data.draw(some_links) + data.draw(foreign),
        masked_links=data.draw(some_links) + data.draw(foreign),
        subset_rows=data.draw(
            st.one_of(st.none(), st.lists(st.integers(0, m - 1), unique=True) if m else st.just([]))
        ),
        signature_links=data.draw(some_links),
        projection_links=data.draw(some_links),
        col_pods=data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)),
        split_sets=data.draw(
            st.lists(st.lists(st.integers(0, n - 1), min_size=1, unique=True), max_size=4)
            if n
            else st.just([])
        ),
    )
    indptr, links = _flat(rows)
    index = IncidenceIndex.from_rows(indptr, links, universe)
    assert_kernels_match(index, indptr, links, universe, queries)
    # The set-of-links constructor builds the same arrays.
    twin = IncidenceIndex(rows, universe)
    for name in ("_row_indptr", "_row_cols", "_col_indptr", "_col_rows"):
        assert getattr(twin, name).tolist() == getattr(index, name).tolist()


@given(
    st.lists(st.integers(0, 9), max_size=8),
    st.lists(st.lists(st.integers(0, 12), max_size=5), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_repeated_universe_ids_map_to_their_last_column(universe, rows):
    """A ``link -> column`` dict keeps the last of equal ids; so does the build."""
    indptr, links = _flat(rows)
    index = IncidenceIndex.from_rows(indptr, links, universe)
    quad = oracle.csr_csc(indptr, links, universe)
    for name, expected in zip(("_row_indptr", "_row_cols", "_col_indptr", "_col_rows"), quad):
        assert getattr(index, name).tolist() == expected


# ---------------------------------------------------------------------------
# consumer outputs, pinned
# ---------------------------------------------------------------------------


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


@pytest.fixture(scope="module")
def routing():
    return {
        name: RoutingMatrix(topology, enumerate_candidate_paths(topology, ordered=False))
        for name, topology in (("fattree4", build_fattree(4)), ("bcube41", build_bcube(4, 1)))
    }


OPTIONS = {
    "a1b1": PMCOptions(alpha=1, beta=1),
    "a3b1": PMCOptions(alpha=3, beta=1),
    "a1b0": PMCOptions(alpha=1, beta=0),
    "eager": PMCOptions(alpha=2, beta=1, use_lazy_update=False),
    "no-decomp": PMCOptions(alpha=2, beta=1, use_decomposition=False),
    "beta2": PMCOptions(alpha=1, beta=2),
    "no-symmetry": PMCOptions(alpha=1, beta=1, use_symmetry=False),
}

#: ``(sha256 of the selection, subproblems, fully_refined)`` per case; no
#: case has an uncoverable link.
PMC_PINS = {
    ("fattree4", "a1b1"): ("9373989fa2c0e5372243199c8740762b0e80637c42089b8adbe67ee8c5f80471", 2, True),
    ("fattree4", "a3b1"): ("a9b1f3a168628e8d2deadd2b6b2405c2ff28f703404a9bc79bd5b2e9df3cb236", 2, True),
    ("fattree4", "a1b0"): ("e14581b7dce4f31f289704aa8a79f99ea3ede2c005b9f18edc51ff6adc7014ee", 2, True),
    ("fattree4", "eager"): ("ab186aea59799bc31b2e7d4260362834783f636dab6b8f5c8f7d966aeb337a88", 2, True),
    ("fattree4", "no-decomp"): ("ae49d843638bf1f74165906037dbc3c1c081f744d1da9946d8de92ccfd1d5f35", 1, True),
    ("fattree4", "beta2"): ("6d2e7cd61cdcd728b244278ea728edfc2c243e234b7d37a50e36da784c556e88", 2, False),
    ("fattree4", "no-symmetry"): ("9373989fa2c0e5372243199c8740762b0e80637c42089b8adbe67ee8c5f80471", 2, True),
    ("bcube41", "a1b1"): ("66eb0ad3841d9683c532b29894ae4fddeb6ad2e5053da1e6f45dd6fcc208cc6d", 1, True),
    ("bcube41", "a3b1"): ("fecf8c580140b3e35cf6863db06a7dab06d3a217105a6e0bc372d1924f3f99dd", 1, True),
    ("bcube41", "a1b0"): ("7a325c07cdac40f4813c5883f5121db8258bcc1b0bd8033077d9c87cab4da3d4", 1, True),
    ("bcube41", "eager"): ("0c624847815eff32d1f85b18b5697c76d3b32b095604c15f3c153fde413732f2", 1, True),
    ("bcube41", "no-decomp"): ("467f0fca281db8d1ae9fe47e53e03e57a92c094f8e46b328db2ce2514c6e8c2d", 1, True),
    ("bcube41", "beta2"): ("4af9b06c865410237d23e06f0b64f858b42d63348ae67a6ae3b3b05348c17c8c", 1, True),
    ("bcube41", "no-symmetry"): ("66eb0ad3841d9683c532b29894ae4fddeb6ad2e5053da1e6f45dd6fcc208cc6d", 1, True),
}

#: sha256 of ``[suspected links, unexplained paths]`` per case.
PLL_PINS = {
    ("fattree4", 1): "50c6a00ba3bd1ec5e111ebd8140f727d2d8137a914867a648ffeb76d938f0530",
    ("fattree4", 7): "6a31c6763322950b128c090ff558b9d4dcf5c345f8b7f841c8961448eb4c21e7",
    ("fattree4", 23): "3d9bf08f3f7bfdcbee782c947862c37ba5cbc07becd88f19f25ef576d498c1c1",
    ("bcube41", 1): "fd6ff347d6222ccbbf5652690bf3d9bbaa677ff9e7a3155bea964cd645909928",
    ("bcube41", 7): "310db941fe0a29f8d7bb4b506d85593121001360bea3c30bf801eebcc66b3816",
    ("bcube41", 23): "94396bad22b9aef913457b79ef2a8cc0d1d782af9650ce7bead6c71bf11b3e23",
}


BETA_OPTIONS = {
    "a1b2": PMCOptions(alpha=1, beta=2),
    "a2b2": PMCOptions(alpha=2, beta=2),
    "eager-b2": PMCOptions(alpha=1, beta=2, use_lazy_update=False),
    "textbook-b2": PMCOptions(alpha=1, beta=2, skip_zero_gain=False),
    "a1b3": PMCOptions(alpha=1, beta=3),
}


def _counters(discarded, evaluations, iterations, cells, queries, splits, reused, subproblems):
    return {
        "candidates_discarded": discarded,
        "greedy_evaluations": evaluations,
        "greedy_iterations": iterations,
        "lazy_skips": 0,
        "partition_cells_created": cells,
        "partition_gain_queries": queries,
        "partition_splits": splits,
        "reused_subproblems": reused,
        "subproblems": subproblems,
    }


#: The virtual-link greedy (beta >= 2) and its eager / textbook variants:
#: ``(sha256 of the selection, fully_refined, cost_counters())`` per case,
#: over Table 4's (1,2) and (1,3) on Fattree(6) and the beta = 2 plans of
#: Fattree(8) and VL2(12,8,2).  Every case reaches its coverage target and
#: has no uncoverable link.
BETA_PINS = {
    ("fattree6", "a1b2"): (
        "982fab929cca058defdabb2eb2eeace2f1d9c637e0807a0eaa1ab2f4be5b7d89",
        True,
        _counters(91, 180, 86, 665, 177, 86, 2, 3),
    ),
    ("fattree6", "a1b3"): (
        "d233e9a81c965e79d2efb704ad8c2c9a157e0decb237a4c0fe1264eb8d1ce6ca",
        False,
        _counters(286, 462, 173, 7799, 459, 173, 2, 3),
    ),
    ("fattree8", "a1b2"): (
        "40af3538b56dc12234ad5315f13d1da2d09359fd5666f2d434d9a817806feffb",
        True,
        _counters(390, 568, 171, 2079, 561, 171, 3, 4),
    ),
    ("vl2_12_8_2", "a1b2"): (
        "037da045825903044bbebac597076d2ad384e0ee85efb1e610f33518a4758fdd",
        True,
        _counters(317, 542, 223, 4655, 540, 223, 0, 1),
    ),
    ("fattree4", "a2b2"): (
        "6d2e7cd61cdcd728b244278ea728edfc2c243e234b7d37a50e36da784c556e88",
        False,
        _counters(29, 59, 27, 131, 56, 27, 1, 2),
    ),
    ("fattree4", "eager-b2"): (
        "16aa42eb980a513a4c40490f8a5185ed6a8b2b4b1bb968fe7b60f9094ab76bbe",
        False,
        _counters(44, 1596, 12, 131, 56, 12, 1, 2),
    ),
    ("fattree4", "textbook-b2"): (
        "e604e0b960c4455c0f5d24811b84e0db5d44f914fe66f078ac921c1c39ca2a0b",
        False,
        _counters(0, 59, 56, 131, 56, 56, 1, 2),
    ),
    ("bcube41", "a2b2"): (
        "4af9b06c865410237d23e06f0b64f858b42d63348ae67a6ae3b3b05348c17c8c",
        True,
        _counters(75, 130, 54, 527, 129, 54, 0, 1),
    ),
    ("bcube41", "eager-b2"): (
        "c0311851a6d6340dadc19e5086d799643c9a618dc088ab9f1be220c4e8fac652",
        True,
        _counters(7, 9020, 34, 527, 41, 34, 0, 1),
    ),
    ("bcube41", "textbook-b2"): (
        "bab5f174cd007fcec1a7d8cb8dcb50d5febddc704950e1416fde77c7add20aee",
        True,
        _counters(0, 130, 129, 527, 129, 129, 0, 1),
    ),
}


@functools.lru_cache(maxsize=None)
def _routing(fabric: str) -> RoutingMatrix:
    topology = build_bcube(4, 1) if fabric == "bcube41" else FABRICS[fabric]()
    return RoutingMatrix(topology, enumerate_candidate_paths(topology, ordered=False))


class TestPMCSelectionsPinned:
    @pytest.mark.parametrize("name", ["fattree4", "bcube41"])
    @pytest.mark.parametrize("option", list(OPTIONS))
    def test_selection(self, routing, name, option):
        result = construct_probe_matrix(routing[name], OPTIONS[option])
        digest, subproblems, fully_refined = PMC_PINS[name, option]
        assert _sha(list(result.selected_indices)) == digest
        assert result.stats.subproblems == subproblems
        assert result.stats.fully_refined is fully_refined
        assert result.stats.uncoverable_links == ()

    @pytest.mark.parametrize("name, option", list(BETA_PINS))
    def test_virtual_link_selection(self, name, option):
        result = construct_probe_matrix(_routing(name), BETA_OPTIONS[option])
        digest, fully_refined, counters = BETA_PINS[name, option]
        assert _sha(list(result.selected_indices)) == digest
        assert result.stats.cost_counters() == counters
        assert result.stats.fully_refined is fully_refined
        assert result.stats.coverage_satisfied is True
        assert result.stats.uncoverable_links == ()


class TestPLLSuspectsPinned:
    @pytest.mark.parametrize("name", ["fattree4", "bcube41"])
    @pytest.mark.parametrize("failure_seed", [1, 7, 23])
    def test_suspects(self, routing, name, failure_seed):
        probe_matrix = construct_probe_matrix(
            routing[name], PMCOptions(alpha=2, beta=1)
        ).probe_matrix
        # Deterministic synthetic failures: a few failed links produce
        # partially lossy paths (60% of crossing paths lose packets).
        rng = random.Random(failure_seed)
        failed = set(rng.sample(list(probe_matrix.link_ids), 3))
        lossy = set()
        for link in failed:
            crossing = list(probe_matrix.paths_through(link))
            lossy.update(crossing[: max(1, (2 * len(crossing)) // 3)])
        observations = ObservationSet(
            PathObservation(i, sent=100, lost=40 if i in lossy else 0)
            for i in range(probe_matrix.num_paths)
        )
        outcome = PLLLocalizer(PLLConfig()).localize(probe_matrix, observations)
        pinned = PLL_PINS[name, failure_seed]
        assert _sha([outcome.suspected_links, outcome.unexplained_paths]) == pinned
