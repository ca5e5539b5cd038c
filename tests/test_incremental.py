"""Incremental churn-aware cycles: masking, deltas, warm start and equivalence.

The contract under test: a ``Controller.run_incremental_cycle`` after any
sequence of churn deltas produces a probe matrix, a selection and pinglists
**byte-identical** to a cold ``Controller.run_cycle`` executed from scratch
against the same watchdog health state.  The property-style test at the
bottom drives that differential with random :class:`ChurnSchedule` sequences
on Fattree, VL2 and BCube.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PMCOptions,
    ShardedSolutionCache,
    construct_probe_matrix,
    construct_probe_matrix_masked,
)
from repro.core.incidence import IncidenceIndex
from repro.monitor import Controller, ControllerConfig, DetectorSystem, Watchdog
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.simulation import ChurnSchedule
from repro.topology import HealthSnapshot, TopologyDelta, build_bcube, build_fattree, build_vl2


# ---------------------------------------------------------------------------
# IncidenceIndex link masks
# ---------------------------------------------------------------------------

class TestLinkMasking:
    PATHS = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
    UNIVERSE = (0, 1, 2, 3, 4)

    def test_apply_and_revert_round_trip(self):
        index = IncidenceIndex(self.PATHS, self.UNIVERSE)
        assert index.active_rows() == [0, 1, 2, 3]
        assert index.num_active_rows == 4

        assert index.apply_link_mask([2]) == (2,)
        assert index.masked_link_ids == (2,)
        # Paths 1 and 2 cross link 2 and become inactive.
        assert index.active_rows() == [0, 3]
        assert index.num_active_rows == 2

        # Applying again is a no-op; out-of-universe ids are ignored.
        assert index.apply_link_mask([2, 99]) == ()
        assert index.active_rows() == [0, 3]

        assert index.revert_link_mask([2, 99]) == (2,)
        assert index.masked_link_ids == ()
        assert index.active_rows() == [0, 1, 2, 3]

    def test_overlapping_masks_stack(self):
        index = IncidenceIndex(self.PATHS, self.UNIVERSE)
        index.apply_link_mask([1])
        index.apply_link_mask([2])
        # Path 1 crosses both masked links; one revert must not reactivate it.
        assert index.active_rows() == [3]
        index.revert_link_mask([2])
        assert index.active_rows() == [2, 3]
        index.revert_link_mask([1])
        assert index.active_rows() == [0, 1, 2, 3]

    def test_active_coverage_counts_match_rebuild(self):
        index = IncidenceIndex(self.PATHS, self.UNIVERSE)
        index.apply_link_mask([0])
        surviving = [p for p in self.PATHS if 0 not in p]
        rebuilt = IncidenceIndex(surviving, self.UNIVERSE)
        assert list(index.active_coverage_counts()) == list(rebuilt.coverage_counts())

    def test_clear_link_mask(self):
        index = IncidenceIndex(self.PATHS, self.UNIVERSE)
        index.apply_link_mask([1, 3])
        index.clear_link_mask()
        assert index.masked_link_ids == ()
        assert index.active_rows() == [0, 1, 2, 3]
        assert list(index.active_coverage_counts()) == list(index.coverage_counts())


# ---------------------------------------------------------------------------
# snapshots and deltas
# ---------------------------------------------------------------------------

class TestTopologyDelta:
    def test_between_snapshots(self):
        before = HealthSnapshot(
            failed_link_ids=frozenset({1, 2}),
            failed_switches=frozenset({"s1"}),
            unhealthy_servers=frozenset({"srv1"}),
        )
        after = HealthSnapshot(
            failed_link_ids=frozenset({2, 5}),
            failed_switches=frozenset(),
            unhealthy_servers=frozenset({"srv1", "srv2"}),
        )
        delta = TopologyDelta.between(before, after)
        assert delta.failed_links == (5,)
        assert delta.recovered_links == (1,)
        assert delta.recovered_switches == ("s1",)
        assert delta.failed_servers == ("srv2",)
        assert delta.churn == 3  # link down + link up + switch up; servers excluded
        assert delta.server_churn == 1
        assert not delta.is_empty

    def test_empty_delta(self):
        snap = HealthSnapshot()
        delta = TopologyDelta.between(snap, snap)
        assert delta.is_empty
        assert delta.describe() == "no changes"

    def test_watchdog_emits_and_consumes(self, fattree4):
        watchdog = Watchdog(fattree4)
        before = watchdog.snapshot()
        link = fattree4.switch_links[0].link_id
        watchdog.report_failed_link(link)
        watchdog.report_failed_switch("pod0_agg0")
        delta = TopologyDelta.between(before, watchdog.snapshot())
        assert delta.failed_links == (link,)
        assert delta.failed_switches == ("pod0_agg0",)

        # Applying the delta to a fresh watchdog reproduces the state.
        other = Watchdog(fattree4)
        other.apply_delta(delta)
        assert other.snapshot() == watchdog.snapshot()

        # Recovery deltas roll it back.
        other.apply_delta(
            TopologyDelta(recovered_links=(link,), recovered_switches=("pod0_agg0",))
        )
        assert other.snapshot() == before

    def test_failed_probe_link_ids_include_switch_links(self, fattree4):
        watchdog = Watchdog(fattree4)
        watchdog.report_failed_switch("pod0_agg0")
        expected = {l.link_id for l in fattree4.links_of("pod0_agg0")}
        assert watchdog.failed_probe_link_ids() == expected


class TestChurnSchedule:
    def test_deterministic_given_seed(self, fattree4):
        first = ChurnSchedule.generate(fattree4, np.random.default_rng(7), num_cycles=10)
        second = ChurnSchedule.generate(fattree4, np.random.default_rng(7), num_cycles=10)
        assert first.deltas == second.deltas
        assert len(first) == 10

    def test_deltas_are_consistent_with_state(self, fattree4):
        """Replaying the schedule through a watchdog never double-fails/-recovers."""
        schedule = ChurnSchedule.generate(
            fattree4, np.random.default_rng(3), num_cycles=20, mean_events_per_cycle=3.0
        )
        watchdog = Watchdog(fattree4)
        for delta in schedule:
            before = watchdog.snapshot()
            # Every reported failure must be new, every recovery must exist.
            assert not (set(delta.failed_links) & before.failed_link_ids)
            assert set(delta.recovered_links) <= before.failed_link_ids
            assert not (set(delta.failed_switches) & before.failed_switches)
            assert set(delta.recovered_switches) <= before.failed_switches
            watchdog.apply_delta(delta)

    def test_max_failed_links_cap(self, fattree4):
        schedule = ChurnSchedule.generate(
            fattree4,
            np.random.default_rng(11),
            num_cycles=30,
            mean_events_per_cycle=4.0,
            switch_probability=0.0,
            server_probability=0.0,
            max_failed_links=3,
        )
        failed: set = set()
        for delta in schedule:
            failed |= set(delta.failed_links)
            failed -= set(delta.recovered_links)
            assert len(failed) <= 3


# ---------------------------------------------------------------------------
# masked PMC vs cold PMC
# ---------------------------------------------------------------------------

def _cold_selection_paths(topology, paths, failed, options):
    surviving = [p for p in paths if not (p.link_ids & failed)]
    matrix = RoutingMatrix(topology, surviving)
    result = construct_probe_matrix(matrix, options)
    return [surviving[i] for i in result.selected_indices], result


class TestMaskedPMC:
    @pytest.mark.parametrize(
        "options",
        [
            PMCOptions(alpha=2, beta=1),
            PMCOptions(alpha=1, beta=0),
            PMCOptions(alpha=2, beta=1, use_lazy_update=False),
            PMCOptions(alpha=2, beta=1, use_decomposition=False),
            PMCOptions(alpha=1, beta=2),
        ],
        ids=["a2b1", "a1b0", "eager", "no-decomp", "beta2"],
    )
    def test_masked_equals_cold(self, fattree4, options):
        paths = enumerate_candidate_paths(fattree4, ordered=False)
        full = RoutingMatrix(fattree4, paths)
        failed = {fattree4.switch_links[5].link_id, fattree4.switch_links[17].link_id}

        full.incidence.apply_link_mask(failed)
        masked = construct_probe_matrix_masked(full, options)
        masked_paths = [paths[i] for i in masked.selected_indices]
        full.incidence.clear_link_mask()

        cold_paths, cold = _cold_selection_paths(fattree4, paths, failed, options)
        assert [p.nodes for p in masked_paths] == [p.nodes for p in cold_paths]
        assert masked.probe_matrix.to_json() == cold.probe_matrix.to_json()
        assert masked.stats.uncoverable_links == cold.stats.uncoverable_links
        assert masked.stats.coverage_satisfied == cold.stats.coverage_satisfied
        assert masked.stats.fully_refined == cold.stats.fully_refined

    @pytest.mark.parametrize(
        "options",
        [
            PMCOptions(),
            PMCOptions(alpha=2),
            PMCOptions(beta=2),
            PMCOptions(use_lazy_update=False),
            PMCOptions(use_decomposition=False),
            PMCOptions(shard_by_pods=True),
            PMCOptions(max_paths=5),
            PMCOptions(alpha=0, beta=0),
        ],
        ids=["default", "a2", "b2", "eager", "no-decomp", "pods", "cap5", "a0b0"],
    )
    def test_masked_on_unmasked_index_is_the_cold_run(self, fattree4, options):
        # One pipeline behind both entry points: without a mask they must be
        # indistinguishable, down to the index's kernel totals.
        paths = enumerate_candidate_paths(fattree4, ordered=False, include_intrapod_agg=True)
        cold_matrix = RoutingMatrix(fattree4, paths)
        masked_matrix = RoutingMatrix(fattree4, paths)
        cold = construct_probe_matrix(cold_matrix, options)
        masked = construct_probe_matrix_masked(masked_matrix, options)
        assert masked.selected_indices == cold.selected_indices
        assert masked.stats.cost_counters() == cold.stats.cost_counters()
        assert masked.stats.uncoverable_links == cold.stats.uncoverable_links
        assert masked.shards == cold.shards
        assert (
            masked_matrix.incidence.counters.as_dict()
            == cold_matrix.incidence.counters.as_dict()
        )

    @pytest.mark.parametrize("shard_by_pods", [False, True], ids=["components", "pods"])
    def test_nothing_to_select_from(self, fattree4, shard_by_pods):
        # Every link masked (no active row) and a matrix without candidates:
        # an empty cover with every link reported uncoverable, no exception.
        options = PMCOptions(alpha=2, beta=1, shard_by_pods=shard_by_pods)
        all_links = tuple(sorted(link.link_id for link in fattree4.switch_links))
        assert len(all_links) == 32
        blackout = RoutingMatrix(fattree4, enumerate_candidate_paths(fattree4, ordered=False))
        blackout.incidence.apply_link_mask(all_links)
        assert blackout.incidence.num_active_rows == 0
        empty = RoutingMatrix(fattree4, [])
        for result in (
            construct_probe_matrix_masked(blackout, options),
            construct_probe_matrix_masked(empty, options),
            construct_probe_matrix(empty, options),
        ):
            assert result.selected_indices == ()
            assert result.probe_matrix.num_paths == 0
            assert result.stats.uncoverable_links == all_links
            assert sum(shard.num_links for shard in result.shards) == 32

    def test_warm_cache_replays_identical_selection(self, fattree4):
        paths = enumerate_candidate_paths(fattree4, ordered=False)
        full = RoutingMatrix(fattree4, paths)
        options = PMCOptions(alpha=2, beta=1)
        warm = ShardedSolutionCache()

        first = construct_probe_matrix_masked(full, options, warm=warm)
        assert first.stats.reused_subproblems == 1  # the second core group's twin
        second = construct_probe_matrix_masked(full, options, warm=warm)
        assert second.stats.reused_subproblems == second.stats.subproblems
        assert second.stats.candidates_scored == 0
        assert second.selected_indices == first.selected_indices
        assert warm.hits > 0

    def test_warm_cache_lru_eviction(self):
        cache = ShardedSolutionCache(capacity_per_shard=2)
        cache.put(None, b"a", 1)
        cache.put(None, b"b", 2)
        assert cache.get(None, b"a") == 1  # refresh a
        cache.put(None, b"c", 3)  # evicts b
        assert cache.get(None, b"b") is None
        assert cache.get(None, b"a") == 1 and cache.get(None, b"c") == 3


# ---------------------------------------------------------------------------
# controller cycles
# ---------------------------------------------------------------------------

def _clone_watchdog(topology, watchdog):
    return Watchdog(
        topology,
        unhealthy_servers=set(watchdog.unhealthy_servers),
        failed_switches=set(watchdog.failed_switches),
        failed_link_ids=set(watchdog.failed_link_ids),
    )


def _assert_cycles_identical(incremental_cycle, cold_cycle):
    assert (
        incremental_cycle.probe_matrix.to_json() == cold_cycle.probe_matrix.to_json()
    ), "probe matrices diverged"
    assert [p.nodes for p in incremental_cycle.probe_matrix.paths] == [
        p.nodes for p in cold_cycle.probe_matrix.paths
    ], "selections diverged"
    assert set(incremental_cycle.pinglists) == set(cold_cycle.pinglists)
    for server, pinglist in incremental_cycle.pinglists.items():
        assert pinglist.to_xml() == cold_cycle.pinglists[server].to_xml(), (
            f"pinglist for {server} diverged"
        )


class TestIncrementalController:
    def test_first_incremental_cycle_is_full(self, fattree4):
        controller = Controller(fattree4, ControllerConfig(alpha=2, beta=1))
        cycle = controller.run_incremental_cycle()
        assert cycle.mode == "full"
        assert cycle.delta is None

    def test_churn_above_threshold_triggers_full_rebuild(self, fattree4):
        config = ControllerConfig(alpha=2, beta=1, churn_rebuild_threshold=2)
        controller = Controller(fattree4, config)
        controller.run_incremental_cycle()
        for link in fattree4.switch_links[:3]:
            controller.watchdog.report_failed_link(link.link_id)
        cycle = controller.run_incremental_cycle()
        assert cycle.mode == "full"
        assert cycle.delta is not None and cycle.delta.churn == 3

    def test_zero_churn_cycle_replays_everything(self, fattree4):
        controller = Controller(fattree4, ControllerConfig(alpha=2, beta=1))
        controller.run_incremental_cycle()
        warmup = controller.run_incremental_cycle()  # seeds the warm cache
        steady = controller.run_incremental_cycle()
        assert steady.mode == "incremental"
        stats = steady.pmc_result.stats
        assert stats.reused_subproblems == stats.subproblems
        assert stats.candidates_scored == 0
        assert steady.changed_pingers == ()  # nothing to re-push to the pingers
        assert steady.probe_matrix.to_json() == warmup.probe_matrix.to_json()

    def test_changed_pingers_tracks_delta_blast_radius(self, fattree4):
        controller = Controller(fattree4, ControllerConfig(alpha=2, beta=1))
        controller.run_incremental_cycle()
        controller.run_incremental_cycle()
        bad = fattree4.switch_links[7].link_id
        controller.watchdog.report_failed_link(bad)
        cycle = controller.run_incremental_cycle()
        assert cycle.mode == "incremental"
        assert cycle.changed_pingers  # the masked link moved some assignments
        assert set(cycle.changed_pingers) <= set(cycle.pinglists)

    def test_detector_system_incremental_mode(self, fattree4):
        system = DetectorSystem(fattree4, np.random.default_rng(5))
        first = system.run_controller_cycle(incremental=True)
        assert first.mode == "full"
        second = system.run_cycle(incremental=True)  # alias, same semantics
        assert second.mode == "incremental"
        assert system.diagnoser is not None
        outcome = system.run_window()
        assert outcome.suspected_links == []


# ---------------------------------------------------------------------------
# the headline property: incremental == cold rebuild, under random churn
# ---------------------------------------------------------------------------

class TestIncrementalColdEquivalence:
    """Property-style differential test of the tentpole guarantee."""

    TOPOLOGY_BUILDERS = {
        "fattree4": lambda: build_fattree(4),
        "vl2": lambda: build_vl2(4, 4, 2),
        "bcube41": lambda: build_bcube(4, 1),
    }

    @pytest.mark.parametrize("name", list(TOPOLOGY_BUILDERS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_churn_equivalence(self, name, seed):
        topology = self.TOPOLOGY_BUILDERS[name]()
        config = ControllerConfig(alpha=2, beta=1, churn_rebuild_threshold=6)
        watchdog = Watchdog(topology)
        incremental = Controller(topology, config, watchdog=watchdog)
        incremental.run_incremental_cycle()

        schedule = ChurnSchedule.generate(
            topology,
            np.random.default_rng(seed),
            num_cycles=5,
            mean_events_per_cycle=1.5,
            switch_probability=0.1,
            max_failed_links=4,
        )
        saw_incremental = False
        for delta in schedule:
            watchdog.apply_delta(delta)
            cycle = incremental.run_incremental_cycle()
            saw_incremental |= cycle.mode == "incremental"

            cold = Controller(topology, config, watchdog=_clone_watchdog(topology, watchdog))
            cold._version = cycle.version - 1  # align pinglist version stamps
            cold_cycle = cold.run_cycle()
            _assert_cycles_identical(cycle, cold_cycle)
        assert saw_incremental, "schedule never exercised the incremental path"

    def test_recovery_to_pristine_matches_initial_cycle(self, fattree4):
        """Failing links and recovering them returns the exact initial plan."""
        config = ControllerConfig(alpha=2, beta=1)
        controller = Controller(fattree4, config)
        baseline = controller.run_incremental_cycle()
        links = [l.link_id for l in fattree4.switch_links[10:13]]
        controller.watchdog.apply_delta(TopologyDelta.of_failures(links=links))
        controller.run_incremental_cycle()
        controller.watchdog.apply_delta(TopologyDelta(recovered_links=tuple(links)))
        recovered = controller.run_incremental_cycle()
        assert recovered.mode == "incremental"
        assert recovered.probe_matrix.to_json() == baseline.probe_matrix.to_json()

    def test_every_link_down_in_one_delta_then_recovered(self, fattree4):
        """One delta failing every switch link is masked, not rebuilt: an empty
        cover with every link uncoverable, as a cold rebuild gives; the
        recovery delta returns the pristine plan byte for byte."""
        links = tuple(sorted(link.link_id for link in fattree4.switch_links))
        config = ControllerConfig(alpha=2, beta=1, churn_rebuild_threshold=len(links))
        controller = Controller(fattree4, config)
        pristine = controller.run_incremental_cycle()
        controller.run_incremental_cycle()  # seeds the warm cache
        controller.watchdog.apply_delta(TopologyDelta.of_failures(links=links))
        dark = controller.run_incremental_cycle()
        assert dark.mode == "incremental"
        assert dark.pmc_result.selected_indices == ()
        assert dark.probe_matrix.num_paths == 0
        assert dark.pmc_result.stats.uncoverable_links == links
        assert not dark.pmc_result.stats.fully_refined
        assert all(not pinglist.entries for pinglist in dark.pinglists.values())
        cold = Controller(fattree4, config, watchdog=_clone_watchdog(fattree4, controller.watchdog))
        cold._version = dark.version - 1  # align pinglist version stamps
        _assert_cycles_identical(dark, cold.run_cycle())

        controller.watchdog.apply_delta(TopologyDelta(recovered_links=links))
        recovered = controller.run_incremental_cycle()
        assert recovered.mode == "incremental"
        assert recovered.probe_matrix.to_json() == pristine.probe_matrix.to_json()


# ---------------------------------------------------------------------------
# incremental x pod-sharded: churn in one pod touches exactly its shard
# (plus the shared residual shard) and leaves every other shard's cache
# digest and kernel counters untouched
# ---------------------------------------------------------------------------

class TestShardedIncrementalIsolation:
    CONFIG = ControllerConfig(alpha=2, beta=1, shard_by_pods=True, intrapod_paths=True)

    def _warmed_controller(self, fattree4):
        controller = Controller(fattree4, self.CONFIG)
        controller.run_incremental_cycle()  # full rebuild, seeds nothing
        warmup = controller.run_incremental_cycle()  # populates the warm cache
        assert warmup.mode == "incremental"
        return controller, warmup

    def _pod_owned_link(self, fattree4, pod):
        from repro.core import link_pod_map

        pods = link_pod_map(fattree4)
        for link in fattree4.switch_links:
            if pods[link.link_id] == pod:
                return link.link_id
        raise AssertionError(f"no pod-{pod} owned link in Fattree(4)")

    def test_single_pod_churn_touches_one_shard_plus_residual(self, fattree4):
        from repro.core import RESIDUAL_POD

        controller, warmup = self._warmed_controller(fattree4)
        before = warmup.pmc_result.shard_digests()

        controller.watchdog.report_failed_link(self._pod_owned_link(fattree4, 0))
        cycle = controller.run_incremental_cycle()
        assert cycle.mode == "incremental"
        # The failed link is owned by pod 0; its candidate rows live in the
        # pod-0 shard and (for the cross-pod paths crossing it) the residual
        # shard.  No other pod's shard may be re-solved.
        assert cycle.touched_shards == (0, RESIDUAL_POD)

        after = {shard.pod: shard for shard in cycle.pmc_result.shards}
        for pod in (1, 2, 3):
            # Untouched shards replay from the warm cache: same digest, no
            # kernel work, no scored candidates.
            assert after[pod].reused
            assert after[pod].digest == before[pod]
            assert after[pod].kernel_cost == {}
            assert after[pod].cost_counters["greedy_iterations"] == 0
            assert after[pod].cost_counters["reused_subproblems"] == 1
        for pod in (0, RESIDUAL_POD):
            assert not after[pod].reused
            assert after[pod].digest != before[pod]
            assert after[pod].kernel_cost  # real per-shard kernel work

    def test_pod_recovery_restores_shard_digests(self, fattree4):
        controller, warmup = self._warmed_controller(fattree4)
        before = warmup.pmc_result.shard_digests()
        bad = self._pod_owned_link(fattree4, 2)
        controller.watchdog.report_failed_link(bad)
        controller.run_incremental_cycle()
        controller.watchdog.apply_delta(TopologyDelta(recovered_links=(bad,)))
        recovered = controller.run_incremental_cycle()
        # Recovery returns every shard to its pristine digest, and all of
        # them replay from the warm cache (the pristine solutions are still
        # cached in their per-pod buckets).
        assert recovered.pmc_result.shard_digests() == before
        assert all(shard.reused for shard in recovered.pmc_result.shards)
        assert recovered.touched_shards == ()

    def test_zero_churn_sharded_cycle_replays_every_shard(self, fattree4):
        controller, _ = self._warmed_controller(fattree4)
        steady = controller.run_incremental_cycle()
        assert steady.touched_shards == ()
        assert all(shard.reused for shard in steady.pmc_result.shards)
        assert steady.pmc_result.stats.candidates_scored == 0


# ---------------------------------------------------------------------------
# the unreachable goal: with links down the sharded residual shard holds
# orphaned links nobody can separate, so "fully refined" never comes -- the
# greedy must stop at the finest reachable partition instead of draining the
# heap, with the drain's selection
# ---------------------------------------------------------------------------

def _tier_links(topology):
    """Switch links per tier pair, sorted: [0] aggregation-core, [-1] aggregation-edge."""
    groups = {
        tiers: [link.link_id for link in links]
        for tiers, links in topology.links_by_tier_pair().items()
        if "server" not in tiers
    }
    return [groups[tiers] for tiers in sorted(groups)]


def _health_states(topology):
    core, *_, edge = _tier_links(topology)
    switch = next(s.name for s in topology.switches if s.name.endswith("agg1"))
    return {
        "two-links": TopologyDelta.of_failures(links=[core[0], edge[0]]),
        "three-links": TopologyDelta.of_failures(links=[core[0], edge[0], core[-1]]),
        "switch": TopologyDelta.of_failures(switches=[switch]),
    }


class TestUnreachableGoal:
    FABRICS = {"fattree4": 4, "fattree8": 8}

    @staticmethod
    def _config(jobs=1, **overrides):
        return ControllerConfig(
            alpha=2, beta=1, shard_by_pods=True, intrapod_paths=True, jobs=jobs, **overrides
        )

    @pytest.mark.parametrize("state", ["two-links", "three-links", "switch", "cold-fallback"])
    @pytest.mark.parametrize("name", list(FABRICS))
    def test_same_cover_at_every_jobs_setting(self, name, state):
        topology = build_fattree(self.FABRICS[name])
        overrides = {}
        if state == "cold-fallback":
            # Two links of churn against a threshold of one: the incremental
            # controller itself takes the cold path with links down.
            state, overrides = "two-links", {"churn_rebuild_threshold": 1}
        delta = _health_states(topology)[state]

        runs = []
        for jobs in (1, 2):
            watchdog = Watchdog(topology)
            controller = Controller(topology, self._config(jobs, **overrides), watchdog=watchdog)
            controller.run_incremental_cycle()
            controller.run_incremental_cycle()  # fills the warm cache
            watchdog.apply_delta(delta)
            cycle = controller.run_incremental_cycle()
            assert cycle.mode == ("full" if overrides else "incremental")
            index = controller._full_routing_matrix().incidence
            runs.append((cycle, index.counters.as_dict()))
            controller.close()

        # The drain's selection: a cold cycle against the same health state.
        cold = Controller(
            topology, self._config(**overrides), watchdog=_clone_watchdog(topology, watchdog)
        )
        cold._version = runs[0][0].version - 1
        cold_cycle = cold.run_cycle()
        first, first_kernels = runs[0]
        assert not first.pmc_result.stats.fully_refined
        assert first.pmc_result.stats.uncoverable_links == tuple(
            sorted(watchdog.failed_probe_link_ids() & set(index.link_ids))
        )
        for cycle, kernel_totals in runs:
            _assert_cycles_identical(cycle, cold_cycle)
            stats = cycle.pmc_result.stats
            assert stats.cost_counters() == first.pmc_result.stats.cost_counters()
            assert (stats.fully_refined, stats.coverage_satisfied, stats.uncoverable_links) == (
                cold_cycle.pmc_result.stats.fully_refined,
                cold_cycle.pmc_result.stats.coverage_satisfied,
                cold_cycle.pmc_result.stats.uncoverable_links,
            )
            assert [
                (s.pod, s.digest, s.reused, s.cost_counters, s.kernel_cost)
                for s in cycle.pmc_result.shards
            ] == [
                (s.pod, s.digest, s.reused, s.cost_counters, s.kernel_cost)
                for s in first.pmc_result.shards
            ]
            assert kernel_totals == first_kernels

    @pytest.mark.parametrize("name", list(FABRICS))
    def test_second_link_down_costs_what_the_first_did(self, name):
        # The counter gate that replaces a stopwatch: one link down leaves one
        # orphan (a singleton cell, goal reachable); a second one makes two
        # orphans share a cell for ever.  An exhaustive drain pays for every
        # remaining candidate there (7x the scoring and 53x the gain queries on
        # Fattree(8)); the early stop pays what the first link's cycle paid.
        from repro.core import RESIDUAL_POD

        topology = build_fattree(self.FABRICS[name])
        core, *_, edge = _tier_links(topology)
        watchdog = Watchdog(topology)
        controller = Controller(topology, self._config(), watchdog=watchdog)
        controller.run_incremental_cycle()
        costs = []
        for link in (core[0], edge[0]):
            watchdog.report_failed_link(link)
            cycle = controller.run_incremental_cycle()
            assert cycle.mode == "incremental" and RESIDUAL_POD in cycle.touched_shards
            residual = cycle.pmc_result.shards[-1]
            assert residual.pod == RESIDUAL_POD and not residual.reused
            costs.append(
                (
                    cycle.pmc_result.stats.candidates_scored,
                    residual.cost_counters["partition_gain_queries"],
                )
            )
        (scored_one, queries_one), (scored_two, queries_two) = costs
        assert scored_two <= 1.25 * scored_one
        assert queries_two <= 1.25 * queries_one


class TestFullyRefinedVerdict:
    """``PMCStats.fully_refined`` means one thing on every path to a solve."""

    @pytest.mark.parametrize("beta", [1, 0])
    def test_links_down_by_decomposition(self, fattree6, beta):
        # Fattree(6) is the smallest fat-tree whose pod shards can separate
        # their own links with intra-pod paths alone.
        core, *_, edge = _tier_links(fattree6)
        verdicts = {}
        for sharded in (False, True):
            config = ControllerConfig(
                alpha=1, beta=beta, shard_by_pods=sharded, intrapod_paths=True
            )
            watchdog = Watchdog(fattree6)
            controller = Controller(fattree6, config, watchdog=watchdog)
            controller.run_incremental_cycle()
            down = []
            for link in (None, core[0], edge[0]):
                if link is not None:
                    watchdog.report_failed_link(link)
                    down.append(link)
                masked = controller.run_incremental_cycle()
                cached = controller.run_incremental_cycle()  # zero churn: all replays
                assert masked.mode == cached.mode == "incremental"
                assert cached.pmc_result.stats.reused_subproblems == cached.pmc_result.stats.subproblems
                cold = Controller(
                    fattree6, config, watchdog=_clone_watchdog(fattree6, watchdog)
                ).run_cycle()
                for cycle in (masked, cached, cold):
                    stats = cycle.pmc_result.stats
                    assert stats.uncoverable_links == tuple(sorted(down))
                    assert stats.coverage_satisfied
                    verdicts[sharded, len(down), cycle is cold] = stats.fully_refined
        # Every pair of links separated and every link crossed: any
        # uncoverable link defeats a requested identifiability target (its
        # failure looks like "no failure"), and beta = 0 requests none.
        for (sharded, links_down, _), fully_refined in verdicts.items():
            assert fully_refined == (beta == 0 or links_down == 0), (sharded, links_down)
