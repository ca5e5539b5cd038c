"""The columnar candidate table: closed form == walker, and nothing unselected is built.

The closed-form generators fill every :class:`~repro.routing.PathTable` the
program enumerates; the node walkers of ``tests/walker_oracle.py`` are the
reference.  Everything downstream reads rows by index, so the row order and
the row contents must agree exactly.  Laziness is gated on a counter
(``materialised_rows``), never on a wall clock.
"""

from __future__ import annotations

import pickle

import pytest

import python_kernels
from repro.core import PMCOptions, construct_probe_matrix
from repro.monitor import Controller, ControllerConfig
from repro.obs import Tracer, activated
from repro.routing import (
    PathTable,
    RoutingMatrix,
    enumerate_candidate_paths,
    walk_link_sequence,
)
from repro.topology import TopologyDelta, build_bcube, build_fattree, build_vl2
from walker_oracle import walker_table

FATTREES = [
    (build_fattree, (k,), {"ordered": ordered, "include_intrapod_agg": intrapod})
    for k in (4, 6, 8)
    for ordered in (True, False)
    for intrapod in (True, False)
]
OTHERS = [
    (build, args, {"ordered": ordered})
    for build, args in (
        (build_vl2, (8, 6, 2)),
        (build_vl2, (12, 8, 2)),
        (build_bcube, (4, 1)),
        (build_bcube, (4, 2)),
        (build_bcube, (3, 2)),
    )
    for ordered in (True, False)
]
CASES = FATTREES + OTHERS
INDEX_ARRAYS = ("_row_indptr", "_row_cols", "_col_indptr", "_col_rows")


def _case_id(case) -> str:
    build, args, kwargs = case
    flags = "-".join(name for name, value in kwargs.items() if value) or "plain"
    return f"{build.__name__}{args}-{flags}"


def _both_producers(case):
    """``(topology, closed-form table, walker table)`` of one case."""
    build, args, kwargs = case
    topology = build(*args)
    return topology, enumerate_candidate_paths(topology, **kwargs), walker_table(topology, **kwargs)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
class TestClosedFormEqualsWalker:
    def test_row_for_row(self, case):
        _, closed_form, walker = _both_producers(case)
        assert len(closed_form) == len(walker) > 0
        for row, (ours, reference) in enumerate(zip(closed_form, walker)):
            assert ours == reference  # nodes, link_ids, src, dst, via -- and path_id
            assert ours.path_id == row
            # The simulator charges drops in link_ids iteration order.
            assert list(ours.link_ids) == list(reference.link_ids)
            assert ours.nodes[0] == ours.src and ours.nodes[-1] == ours.dst

    def test_index_arrays_and_coverage_agree(self, case):
        topology, closed_form, walker = _both_producers(case)
        universe = [link.link_id for link in topology.switch_links]
        reference = python_kernels.csr_csc(*walker.link_rows(), universe)  # walker rows, list loops
        for table in (closed_form, walker):
            index = RoutingMatrix(topology, table).incidence
            for name, expected in zip(INDEX_ARRAYS, reference):
                assert getattr(index, name).tolist() == expected
            assert index.coverage_counts().tolist() == python_kernels.coverage_counts(reference[2])

    def test_without_links_is_the_filtered_walker_list(self, case):
        topology, closed_form, walker = _both_producers(case)
        universe = [link.link_id for link in topology.switch_links]
        failed = {universe[0], universe[len(universe) // 2], universe[-1]}
        expected = [path for path in walker if not (path.link_ids & failed)]
        for table in (closed_form, walker):
            before = table.materialised_rows
            survivors = table.without_links(failed)
            assert table.materialised_rows == before  # a row mask, not a walk over objects
            assert len(survivors) == len(expected) < len(table)
            for row, (ours, reference) in enumerate(zip(survivors, expected)):
                assert ours.path_id == row
                assert (ours.nodes, ours.link_ids, ours.src, ours.dst, ours.via) == (
                    reference.nodes, reference.link_ids, reference.src, reference.dst, reference.via,
                )

    def test_table_pickles(self, case):
        _, closed_form, walker = _both_producers(case)
        for table in (closed_form, walker):
            clone = pickle.loads(pickle.dumps(table))
            assert len(clone) == len(table)
            assert list(clone[:: max(1, len(table) // 7)]) == list(table[:: max(1, len(table) // 7)])


class TestSequenceProtocol:
    def test_indexing_slicing_and_memo(self, fattree4):
        table = enumerate_candidate_paths(fattree4, ordered=False)
        assert isinstance(table, PathTable) and table.materialised_rows == 0
        first = table[0]
        assert table[0] is first and table[-len(table)] is first
        assert table.materialised_rows == 1
        assert table[-1].path_id == len(table) - 1
        with pytest.raises(IndexError):
            table[len(table)]
        tail = table[5:9]
        assert isinstance(tail, PathTable) and [p.path_id for p in tail] == [0, 1, 2, 3]
        assert [p.nodes for p in tail] == [table[i].nodes for i in range(5, 9)]

    def test_from_paths_renumbers_and_keeps_link_sets(self, fattree4):
        table = enumerate_candidate_paths(fattree4, ordered=False)
        picked = [table[7], table[3], table[11]]
        wrapped = PathTable.from_paths(picked)
        assert [p.path_id for p in wrapped] == [0, 1, 2]
        assert all(ours.link_ids is given.link_ids for ours, given in zip(wrapped, picked))
        again = wrapped.take([2, 0])
        assert [p.path_id for p in again] == [0, 1]
        assert again[0].link_ids is picked[2].link_ids and again[1].nodes == picked[0].nodes

    def test_empty_table(self, fattree4):
        empty = PathTable.from_paths([])
        assert len(empty) == 0 and list(empty) == []
        assert RoutingMatrix(fattree4, empty).num_paths == 0
        assert len(enumerate_candidate_paths(fattree4, ordered=False).take([])) == 0


HOP_TOPOLOGIES = {
    "fattree4": lambda: build_fattree(4),
    "fattree8": lambda: build_fattree(8),
    "vl2": lambda: build_vl2(12, 8, 2),
    "bcube": lambda: build_bcube(4, 1),
}


class TestColumnsWithoutRows:
    """What the ECMP baselines read instead of :class:`Path` objects."""

    @pytest.mark.parametrize("name", sorted(HOP_TOPOLOGIES))
    def test_hops_are_the_walk(self, name):
        topology = HOP_TOPOLOGIES[name]()
        table = enumerate_candidate_paths(topology, ordered=True)
        hops = [table.hops(row) for row in range(len(table))]
        assert table.materialised_rows == 0
        assert hops == [walk_link_sequence(topology, path.nodes) for path in table]

    def test_rows_by_endpoints_groups_the_rows(self, fattree4):
        table = enumerate_candidate_paths(fattree4, ordered=True)
        assert table.rows_by_endpoints() and table.materialised_rows == 0
        expected = {}
        for path in table:
            expected.setdefault((path.src, path.dst), []).append(path.path_id)
        assert table.rows_by_endpoints() == expected
        assert PathTable.from_paths(list(table)).rows_by_endpoints() == expected
        assert PathTable.from_paths([]).rows_by_endpoints() == {}


class TestPathIdIsTheRowInTheOwner:
    """``Path.path_id`` used to be the row of the *unfiltered enumeration* in
    every probe matrix (``tests/test_simulation.py`` pins that one through
    ``probe_path``) and every failure-filtered routing matrix."""

    def test_filtered_and_subset_matrices_renumber(self, fattree4_routing):
        failed = {fattree4_routing.link_ids[0]}
        filtered = RoutingMatrix(
            fattree4_routing.topology, fattree4_routing.paths.without_links(failed)
        )
        subset = fattree4_routing.subset([9, 4, 6])
        for matrix in (filtered, subset):
            assert [p.path_id for p in matrix.paths] == list(range(matrix.num_paths))
        assert subset.path(0).nodes == fattree4_routing.path(9).nodes


def test_plan_and_churn_cycles_materialise_selected_rows_only():
    """A cold plan and five churn cycles on Fattree(8): the 7 936-row candidate
    table never materialises a row, and each cycle's probe table materialises
    exactly its own (selected) rows when the pinglists are cut."""
    topology = build_fattree(8)
    controller = Controller(topology, ControllerConfig(alpha=2, beta=1, jobs=1))
    links = [link.link_id for link in topology.switch_links]
    deltas = [
        TopologyDelta(failed_links=(links[3],)),
        TopologyDelta(failed_links=(links[200],)),
        TopologyDelta(recovered_links=(links[3],)),
        TopologyDelta(failed_links=(links[77], links[140])),
        TopologyDelta(recovered_links=(links[77], links[140], links[200])),
    ]
    cycles = [controller.run_cycle()]
    for delta in deltas:
        controller.watchdog.apply_delta(delta)
        cycles.append(controller.run_incremental_cycle())
    assert [cycle.mode for cycle in cycles] == ["full"] + ["incremental"] * 5
    candidates = controller.candidate_paths()
    assert len(candidates) == 7936 and candidates.materialised_rows == 0
    for cycle in cycles:
        probe_paths = cycle.probe_matrix.paths
        assert probe_paths.materialised_rows == len(probe_paths) == len(
            cycle.pmc_result.selected_indices
        )
        for row, source in enumerate(cycle.pmc_result.selected_indices):
            assert probe_paths[row].nodes == candidates.take([source])[0].nodes
    assert candidates.materialised_rows == 0
    # A cold rebuild against a failed link filters by row mask, not by object.
    controller.watchdog.apply_delta(TopologyDelta(failed_links=(links[9],)))
    controller.run_cycle()
    assert candidates.materialised_rows == 0


class TestPaperTable2OriginalPaths:
    """Table 2's "# of original paths", where enumerating them is cheap."""

    @pytest.mark.parametrize(
        "label, topology, ordered",
        [
            ("Fattree(12)", build_fattree(12), True),
            ("BCube(4,2)", build_bcube(4, 2), True),
            # The paper counts VL2 pairs once: the ordered enumeration is 141 600.
            ("VL2(20,12,20)", build_vl2(20, 12, 20), False),
        ],
    )
    def test_original_paths_column(self, label, topology, ordered):
        from repro.experiments.table2 import paper_reference

        paper = next(row for row in paper_reference().rows if row["dcn"] == label)
        assert len(topology.nodes) == paper["nodes"]
        assert len(topology.links) == paper["links"]
        assert len(enumerate_candidate_paths(topology, ordered=ordered)) == paper["original_paths"]


class TestEnumerationSpans:
    def test_spans_are_informational_and_counters_do_not_move(self, fattree4):
        def plan():
            paths = enumerate_candidate_paths(fattree4, ordered=False)
            matrix = RoutingMatrix(fattree4, paths)
            result = construct_probe_matrix(matrix, PMCOptions(alpha=2, beta=1))
            return result, matrix

        untraced, untraced_matrix = plan()
        tracer = Tracer()
        with activated(tracer):
            traced, matrix = plan()
        assert traced.selected_indices == untraced.selected_indices
        assert traced.stats.cost_counters() == untraced.stats.cost_counters()
        assert matrix.incidence.counters.cost == untraced_matrix.incidence.counters.cost
        informational = [span for span in tracer.finished_spans() if span.informational]
        (enumerated,) = [s for s in informational if s.name == "routing.enumerate"]
        assert enumerated.labels == {"rows": 112, "hops": 448}
        # One build for the candidates, one for the probe matrix cut from them.
        builds = [s.labels for s in informational if s.name == "incidence.build"]
        assert [b["rows"] for b in builds] == [112, len(traced.selected_indices)]
        assert builds[0]["nnz"] == matrix.incidence.nnz and builds[0]["links"] == matrix.num_links
        assert "routing.enumerate" not in tracer.export_jsonl()
        assert "incidence.build" not in tracer.export_jsonl()
