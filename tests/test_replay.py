"""Observation 3 as an exact replay: isomorphic subproblems are solved once.

``PMCOptions.use_symmetry`` replays every subproblem whose canonical digest
(incidence in rank coordinates + coverability + options) was already solved.
Off, a call without a warm cache solves every subproblem -- the oracle the
replay is held to here: same selection, same matrix, same verdicts, and
exactly one solve per distinct digest.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PMCOptions, construct_probe_matrix, construct_probe_matrix_masked
from repro.monitor import Controller, ControllerConfig
from repro.obs.tracing import Tracer, activated
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_bcube, build_fattree, build_vl2

FABRICS = {
    "fattree4": lambda: build_fattree(4),
    "fattree6": lambda: build_fattree(6),
    "fattree8": lambda: build_fattree(8),
    "vl2": lambda: build_vl2(12, 8, 2),
    "bcube": lambda: build_bcube(4, 2),
}


@functools.lru_cache(maxsize=None)
def _matrix(fabric: str) -> RoutingMatrix:
    topology = FABRICS[fabric]()
    paths = enumerate_candidate_paths(topology, ordered=False)
    return RoutingMatrix(topology, paths)


def _masks(matrix: RoutingMatrix, seed: int):
    """Healthy, then seeded masks of one, two and three links."""
    rng = random.Random(seed)
    links = list(matrix.link_ids)
    return [()] + [tuple(sorted(rng.sample(links, count))) for count in (1, 2, 3)]


def _solve(matrix: RoutingMatrix, mask, options: PMCOptions):
    if not mask:
        return construct_probe_matrix(matrix, options)
    index = matrix.incidence
    index.apply_link_mask(mask)
    try:
        return construct_probe_matrix_masked(matrix, options)
    finally:
        index.clear_link_mask()


# ---------------------------------------------------------------------------
# differential: replay on == every subproblem solved
# ---------------------------------------------------------------------------

class TestReplayEqualsSolvingEverything:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "fabric, beta",
        [(fabric, 1) for fabric in FABRICS] + [("fattree4", 2)],
        ids=lambda value: str(value),
    )
    def test_same_selection_one_solve_per_digest(self, fabric, beta, jobs):
        matrix = _matrix(fabric)
        for mask in _masks(matrix, seed=len(fabric) + beta):
            oracle, replayed = (
                _solve(matrix, mask, PMCOptions(alpha=2, beta=beta, jobs=jobs, use_symmetry=flag))
                for flag in (False, True)
            )
            where = f"{fabric} beta={beta} mask={mask}"
            assert replayed.selected_indices == oracle.selected_indices, where
            assert replayed.probe_matrix.to_json() == oracle.probe_matrix.to_json(), where
            for verdict in ("fully_refined", "coverage_satisfied", "uncoverable_links"):
                assert getattr(replayed.stats, verdict) == getattr(oracle.stats, verdict), where
            # The oracle solved everything; the replay solved each digest once.
            assert not any(shard.reused for shard in oracle.shards)
            digests = [shard.digest for shard in replayed.shards]
            assert digests == [shard.digest for shard in oracle.shards]
            assert sum(shard.reused for shard in replayed.shards) == len(digests) - len(
                set(digests)
            ), where
            assert replayed.stats.reused_subproblems == len(digests) - len(set(digests))
            # A replay is free: no greedy work, no kernel work.
            for shard in replayed.shards:
                if shard.reused:
                    assert shard.kernel_cost == {}
                    assert shard.cost_counters["greedy_evaluations"] == 0

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_healthy_fattree_is_one_subproblem(self, k):
        result = construct_probe_matrix(
            _matrix(f"fattree{k}"), PMCOptions(alpha=2, beta=1)
        )
        assert len(result.shards) == k // 2
        assert len({shard.digest for shard in result.shards}) == 1
        assert [shard.reused for shard in result.shards] == [False] + [True] * (k // 2 - 1)
        assert len({shard.num_selected for shard in result.shards}) == 1

    @pytest.mark.parametrize("fabric", ["vl2", "bcube"])
    def test_single_component_fabrics_gain_and_lose_nothing(self, fabric):
        matrix = _matrix(fabric)
        on, off = (
            construct_probe_matrix(matrix, PMCOptions(alpha=2, beta=1, use_symmetry=flag))
            for flag in (True, False)
        )
        assert len(on.shards) == 1 and not on.shards[0].reused
        assert on.stats.cost_counters() == off.stats.cost_counters()

    def test_digest_is_pinned(self):
        result = construct_probe_matrix(_matrix("fattree6"), PMCOptions(alpha=2, beta=1))
        digest = "ab0a39a2b93c17b758da804e68b03985b2c4cb0a130199777221c13c3e707e06"
        assert [s.digest for s in result.shards] == [digest] * 3

    def test_capped_run_replays_across_its_one_subproblem_batches(self):
        matrix = _matrix("fattree8")
        on, off = (
            construct_probe_matrix(
                matrix, PMCOptions(alpha=2, beta=1, max_paths=150, use_symmetry=flag)
            )
            for flag in (True, False)
        )
        assert on.selected_indices == off.selected_indices and on.num_paths == 150
        assert [shard.reused for shard in on.shards] == [False, True, True]


# ---------------------------------------------------------------------------
# what a replay keeps lives in rank coordinates
# ---------------------------------------------------------------------------

class TestReplayThroughTheSubproblemsOwnIds:
    def test_two_dead_links_are_each_uncoverable_under_their_own_id(self, fattree4):
        """Two path-less singleton subproblems share one canonical digest; the
        second replays the first and must still report its *own* link."""
        controller = Controller(fattree4, ControllerConfig(alpha=2, beta=1))
        controller.run_cycle()
        dead = tuple(sorted(link.link_id for link in fattree4.switch_links[5:30:17]))
        assert len(dead) == 2
        for link_id in dead:
            controller.watchdog.report_failed_link(link_id)
        cycle = controller.run_incremental_cycle()
        assert cycle.mode == "incremental"
        singletons = [shard for shard in cycle.pmc_result.shards if shard.num_paths == 0]
        assert len(singletons) == 2 and len({shard.digest for shard in singletons}) == 1
        assert [shard.reused for shard in singletons] == [False, True]
        assert cycle.pmc_result.stats.uncoverable_links == dead
        cold = controller.run_cycle()
        assert cold.pmc_result.stats.uncoverable_links == dead
        assert cold.probe_matrix.to_json() == cycle.probe_matrix.to_json()

    def test_flapper_moving_between_core_groups_replays(self):
        """A failure shape an earlier cycle solved in *another* component replays."""
        topology = build_fattree(4)
        controller = Controller(topology, ControllerConfig(alpha=2, beta=1))
        controller.run_cycle()
        groups = topology.core_groups
        uplink = [
            topology.link_between(topology.aggregation_switch_name(0, g), groups[g][0]).link_id
            for g in range(2)
        ]
        controller.watchdog.report_failed_link(uplink[0])
        first = controller.run_incremental_cycle()
        assert sum(not shard.reused for shard in first.pmc_result.shards) >= 1
        controller.watchdog.report_link_recovered(uplink[0])
        controller.watchdog.report_failed_link(uplink[1])
        moved = controller.run_incremental_cycle()
        assert moved.mode == "incremental"
        assert all(shard.reused for shard in moved.pmc_result.shards)
        assert moved.pmc_result.stats.greedy_evaluations == 0
        cold = controller.run_cycle()
        assert cold.probe_matrix.to_json() == moved.probe_matrix.to_json()

    def test_cold_cycle_never_reads_the_controllers_warm_cache(self, fattree4):
        """The cold rebuild is the incremental cycle's independent oracle."""
        controller = Controller(fattree4, ControllerConfig(alpha=2, beta=1))
        controller.run_cycle()
        controller.run_incremental_cycle()
        hits, misses = controller._warm.hits, controller._warm.misses
        size = len(controller._warm)
        cold = controller.run_cycle()
        assert (controller._warm.hits, controller._warm.misses) == (hits, misses)
        assert len(controller._warm) == size
        assert [shard.reused for shard in cold.pmc_result.shards] == [False, True]


# ---------------------------------------------------------------------------
# pmc.solve spans carry the canonical digest
# ---------------------------------------------------------------------------

class TestSolveSpansCarryTheDigest:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_span_digest_is_the_shard_digest(self, jobs):
        matrix = _matrix("fattree6")
        links = list(matrix.link_ids)
        tracer = Tracer()
        with activated(tracer):
            result = _solve(matrix, (links[3], links[40]), PMCOptions(alpha=2, beta=1, jobs=jobs))
        spans = [span for span in tracer.finished_spans() if span.name == "pmc.solve"]
        assert [span.labels["digest"] for span in spans] == [
            shard.digest[:12] for shard in result.shards
        ]
        # "Which component was new": the digests no reused span carries.
        solved = {span.labels["digest"] for span in spans if not span.labels["reused"]}
        assert solved == {shard.digest[:12] for shard in result.shards if not shard.reused}
        assert len(solved) > 1


# ---------------------------------------------------------------------------
# metamorphic: relabelling the fabric relabels the selection
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fattree_frame(k: int):
    matrix = _matrix(f"fattree{k}")
    index = matrix.incidence
    row_of = {index.row_link_set(row): row for row in range(index.num_paths)}
    return matrix, row_of


def _relabel(topology, pods, groups):
    """The link map of the automorphism ``pod p -> pods[p], core group g -> groups[g]``."""
    half = topology.k // 2
    cores = topology.core_groups
    node = {}
    for pod, position in itertools.product(range(topology.k), range(half)):
        node[topology.edge_switch_name(pod, position)] = topology.edge_switch_name(
            pods[pod], position
        )
        node[topology.aggregation_switch_name(pod, position)] = topology.aggregation_switch_name(
            pods[pod], groups[position]
        )
    for group, position in itertools.product(range(half), range(half)):
        node[cores[group][position]] = cores[groups[group]][position]
    return {
        link.link_id: topology.link_between(node[link.a], node[link.b]).link_id
        for link in topology.switch_links
    }


def _masked(matrix, link_id):
    return _solve(matrix, (link_id,), PMCOptions(alpha=2, beta=1))


@st.composite
def _fattree_link_and_relabelling(draw, relabel_pods: bool):
    k = draw(st.sampled_from([4, 6]))
    link = draw(st.integers(min_value=0, max_value=k**3 // 2 - 1))
    groups = draw(st.permutations(range(k // 2)))
    pods = draw(st.permutations(range(k))) if relabel_pods else list(range(k))
    return k, link, pods, groups


class TestRelabellingTheFabric:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_fattree_link_and_relabelling(relabel_pods=False))
    def test_core_group_relabelling_maps_the_selection(self, case):
        """Masking the image of a link selects the image of the selection.

        A core-group relabelling carries component ``g`` onto component
        ``groups[g]`` rank for rank, so nothing the greedy reads -- incidence,
        candidate order, tie-breaks -- can tell the two apart; a tie-break on
        a global id would.
        """
        k, link_index, pods, groups = case
        matrix, row_of = _fattree_frame(k)
        index = matrix.incidence
        image_of = _relabel(matrix.topology, pods, groups)
        link = matrix.link_ids[link_index]
        base, image = _masked(matrix, link), _masked(matrix, image_of[link])
        mapped = {
            row_of[frozenset(image_of[l] for l in index.row_link_set(row))]
            for row in base.selected_indices
        }
        assert mapped == set(image.selected_indices)
        assert image.stats.cost_counters() == base.stats.cost_counters()
        assert image.stats.uncoverable_links == tuple(
            sorted(image_of[l] for l in base.stats.uncoverable_links)
        )

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_fattree_link_and_relabelling(relabel_pods=True))
    def test_pod_relabelling_maps_the_verdicts(self, case):
        """A pod relabelling reorders ToR pairs, hence candidates, hence the
        greedy's tie-breaks: the cover it maps to is *a* cover of the image
        problem, not the one the greedy picks.  What must carry over is what
        does not depend on tie-breaks: the verdicts and the dead links."""
        k, link_index, pods, groups = case
        matrix, _ = _fattree_frame(k)
        image_of = _relabel(matrix.topology, pods, groups)
        link = matrix.link_ids[link_index]
        base, image = _masked(matrix, link), _masked(matrix, image_of[link])
        assert image.stats.fully_refined == base.stats.fully_refined
        assert image.stats.coverage_satisfied == base.stats.coverage_satisfied
        assert image.stats.uncoverable_links == tuple(
            sorted(image_of[l] for l in base.stats.uncoverable_links)
        )
        assert len(image.shards) == len(base.shards)
        assert sorted(s.digest for s in image.shards if s.num_paths == 0) == sorted(
            s.digest for s in base.shards if s.num_paths == 0
        )
