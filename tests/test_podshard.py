"""Pod-sharded parallel control plane: regression + differential tests.

The contract under test (ISSUE 7 tentpole): with ``PMCOptions.shard_by_pods``
the solve decomposes into one subproblem per pod plus a residual shard for
cross-pod paths, shards solve independently (inline or across a process
pool), and the merged cover -- selections, stats, cost counters, per-shard
kernel counters -- is **byte-identical** at any ``jobs`` setting.  Cross-pod
paths must land in the dedicated residual
shard, never silently in pod 0.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import (
    PMCOptions,
    RESIDUAL_POD,
    ShardedSolutionCache,
    Subproblem,
    construct_probe_matrix,
    construct_probe_matrix_masked,
    decompose_by_link_sets,
    decompose_routing_matrix,
    link_pod_map,
    pod_shards_for_matrix,
)
from repro.monitor import Controller, ControllerConfig
from repro.parallel import derive_seeds, pool_map, resolve_jobs
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_bcube, build_fattree, build_vl2


# ---------------------------------------------------------------------------
# Subproblem: slotted, picklable, value-semantic (satellite 1)
# ---------------------------------------------------------------------------

class TestSubproblemDataclass:
    def test_is_slotted(self):
        sub = Subproblem(link_ids=(0, 1), path_indices=(2,), pod=1)
        assert not hasattr(sub, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            sub.extra = 1  # frozen AND slotted: no spurious attributes

    def test_equality_and_hash(self):
        a = Subproblem(link_ids=(0, 1), path_indices=(2, 3), pod=None)
        b = Subproblem(link_ids=(0, 1), path_indices=(2, 3), pod=None)
        c = Subproblem(link_ids=(0, 1), path_indices=(2, 3), pod=RESIDUAL_POD)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_repr_regression(self):
        sub = Subproblem(link_ids=(4, 7), path_indices=(0, 5), pod=2)
        assert repr(sub) == "Subproblem(link_ids=(4, 7), path_indices=(0, 5), pod=2)"

    def test_pickle_round_trip(self):
        sub = Subproblem(link_ids=(0, 1, 9), path_indices=(3,), pod=RESIDUAL_POD)
        clone = pickle.loads(pickle.dumps(sub))
        assert clone == sub
        assert clone.num_links == 3 and clone.num_paths == 1

    def test_counts(self):
        sub = Subproblem(link_ids=(1, 2, 3), path_indices=(0, 1))
        assert sub.num_links == 3
        assert sub.num_paths == 2
        assert sub.pod is None


# ---------------------------------------------------------------------------
# Residual-shard assignment (satellite 2)
# ---------------------------------------------------------------------------

class TestResidualShard:
    # Links 0,1 owned by pod 0; links 2,3 by pod 1; link 4 cross-pod (None).
    LINK_PODS = {0: 0, 1: 0, 2: 1, 3: 1, 4: None}
    UNIVERSE = (0, 1, 2, 3, 4)

    def test_cross_pod_paths_go_to_residual_not_pod0(self):
        subsets = [
            frozenset({0, 1}),   # pod 0
            frozenset({2, 3}),   # pod 1
            frozenset({0, 2}),   # spans pods 0 and 1 -> residual
            frozenset({1, 4}),   # touches an unowned link -> residual
        ]
        shards = decompose_by_link_sets(subsets, self.UNIVERSE, link_pods=self.LINK_PODS)
        by_pod = {shard.pod: shard for shard in shards}
        assert set(by_pod) == {0, 1, RESIDUAL_POD}
        assert by_pod[0].path_indices == (0,)
        assert by_pod[1].path_indices == (1,)
        # The spanning paths are in the residual shard -- pod 0 must not have
        # inherited them.
        assert by_pod[RESIDUAL_POD].path_indices == (2, 3)
        assert 2 not in by_pod[0].path_indices
        assert 3 not in by_pod[0].path_indices

    def test_canonical_order_pods_ascending_residual_last(self):
        subsets = [frozenset({2, 3}), frozenset({0, 4}), frozenset({0, 1})]
        shards = decompose_by_link_sets(subsets, self.UNIVERSE, link_pods=self.LINK_PODS)
        assert [shard.pod for shard in shards] == [0, 1, RESIDUAL_POD]

    def test_orphan_links_surface_in_residual(self):
        # Link 3 is in the universe but no path touches it: it must orphan
        # into the residual shard (where it will be reported uncoverable),
        # not vanish.
        subsets = [frozenset({0, 1}), frozenset({2})]
        shards = decompose_by_link_sets(subsets, self.UNIVERSE, link_pods=self.LINK_PODS)
        residual = [s for s in shards if s.pod == RESIDUAL_POD]
        assert len(residual) == 1
        assert set(residual[0].link_ids) == {3, 4}
        assert residual[0].path_indices == ()

    def test_without_link_pods_is_exact_decomposition(self):
        subsets = [frozenset({0, 1}), frozenset({2, 3})]
        shards = decompose_by_link_sets(subsets, self.UNIVERSE)
        assert all(shard.pod is None for shard in shards)
        assigned = sorted(i for shard in shards for i in shard.path_indices)
        assert assigned == [0, 1]

    def test_link_pod_map_ownership_rule(self, fattree4):
        pods = link_pod_map(fattree4)
        for link in fattree4.switch_links:
            pod_a = fattree4.node(link.a).pod
            pod_b = fattree4.node(link.b).pod
            expected = pod_a if (pod_a is not None and pod_a == pod_b) else None
            assert pods[link.link_id] == expected
        # Fattree agg-core links are never pod-owned.
        assert None in pods.values()


class TestPodShardsForMatrix:
    def test_fattree_intrapod_shards(self, fattree4):
        paths = enumerate_candidate_paths(
            fattree4, ordered=False, include_intrapod_agg=True
        )
        matrix = RoutingMatrix(fattree4, paths)
        shards = pod_shards_for_matrix(matrix)
        assert [shard.pod for shard in shards] == [0, 1, 2, 3, RESIDUAL_POD]
        pods = link_pod_map(fattree4)
        assigned = sorted(i for shard in shards for i in shard.path_indices)
        assert assigned == list(range(len(paths)))
        for shard in shards:
            if shard.pod == RESIDUAL_POD:
                continue
            # Every link of a pod shard is owned by that pod, and every one
            # of its paths stays inside the pod.
            assert all(pods[l] == shard.pod for l in shard.link_ids)
            for row in shard.path_indices:
                assert all(pods[l] == shard.pod for l in paths[row].link_ids)
        # All core-crossing paths live in the residual shard.
        residual = shards[-1]
        core_rows = [
            i for i, p in enumerate(paths) if any(pods[l] is None for l in p.link_ids)
        ]
        assert sorted(residual.path_indices) == core_rows

    def test_default_fattree_paths_degenerate_to_residual(self, fattree4):
        # Without intra-pod paths every default candidate crosses the core,
        # so the only shard with paths is the residual one.
        matrix = RoutingMatrix(fattree4, enumerate_candidate_paths(fattree4, ordered=False))
        shards = decompose_routing_matrix(matrix, by_pods=True)
        with_paths = [s for s in shards if s.path_indices]
        assert [s.pod for s in with_paths] == [RESIDUAL_POD]


# ---------------------------------------------------------------------------
# Array sharding == row loop: IncidenceIndex.pod_shards (numpy, one array
# pass over the CSR buffers) against the set-based _pod_shards reference
# ---------------------------------------------------------------------------

_SHARDING_FABRICS = {
    "fattree4": lambda: (build_fattree(4), {"include_intrapod_agg": True}),
    "fattree8": lambda: (build_fattree(8), {"include_intrapod_agg": True}),
    "vl2": lambda: (build_vl2(4, 4, 2), {}),
    "bcube": lambda: (build_bcube(4, 1), {}),
}


def _row_loop_shards(matrix, rows=None):
    """The reference: ``_pod_shards`` over raw link sets, through its public door.

    Rows outside *rows* are blanked instead of removed (an empty link set is
    dropped by the row loop), so positions stay the matrix's row indices.
    """
    index = matrix.incidence
    considered = set(range(index.num_paths) if rows is None else rows)
    link_sets = [
        index.row_link_set(row) if row in considered else frozenset()
        for row in range(index.num_paths)
    ]
    return decompose_by_link_sets(
        link_sets, index.link_ids, link_pods=link_pod_map(matrix.topology, index.link_ids)
    )


class TestArrayShardingEqualsRowLoop:
    @pytest.mark.parametrize("name", list(_SHARDING_FABRICS))
    def test_cold_subsets_and_random_masks(self, name):
        import random

        topology, kwargs = _SHARDING_FABRICS[name]()
        paths = enumerate_candidate_paths(topology, ordered=False, **kwargs)
        arrays = RoutingMatrix(topology, paths)
        cold = pod_shards_for_matrix(arrays)
        if name.startswith("fattree"):
            assert [s.pod for s in cold] == list(range(len(cold) - 1)) + [RESIDUAL_POD]
        else:  # no pods: everything is residual
            assert [s.pod for s in cold] == [RESIDUAL_POD]

        rng = random.Random(2017)
        links = list(arrays.incidence.link_ids)
        row_subsets = [None, [], list(cold[0].path_indices)]
        for _ in range(6):
            arrays.incidence.clear_link_mask()
            arrays.incidence.apply_link_mask(rng.sample(links, rng.randint(1, 6)))
            row_subsets.append(arrays.incidence.active_rows())
        arrays.incidence.clear_link_mask()
        counters = arrays.incidence.counters
        for rows in row_subsets:
            considered = arrays.num_paths if rows is None else len(rows)
            before = counters.calls("pod_shards"), counters.elements("pod_shards")
            shards = pod_shards_for_matrix(arrays, rows=rows)
            # Subproblem for Subproblem: pod, link_ids, path_indices order,
            # shard order.
            assert shards == _row_loop_shards(arrays, rows)
            ticks = (
                counters.calls("pod_shards") - before[0],
                counters.elements("pod_shards") - before[1],
            )
            assert ticks == (1, considered)  # one tick per considered row

    def test_rows_keep_the_callers_order(self, fattree4):
        paths = enumerate_candidate_paths(fattree4, ordered=False, include_intrapod_agg=True)
        arrays = RoutingMatrix(fattree4, paths)
        rows = list(range(arrays.num_paths))[::-3]
        shards = pod_shards_for_matrix(arrays, rows=rows)
        rank = {row: position for position, row in enumerate(rows)}
        assert shards == [  # the row loop walks rows ascending
            Subproblem(s.link_ids, tuple(sorted(s.path_indices, key=rank.get)), s.pod)
            for s in _row_loop_shards(arrays, rows)
        ]
        for shard in shards:
            assert list(shard.path_indices) == sorted(shard.path_indices, reverse=True)

    def test_empty_rows_orphans_and_empty_universes(self, fattree4):
        paths = enumerate_candidate_paths(fattree4, ordered=False, include_intrapod_agg=True)
        pods = link_pod_map(fattree4)
        universe = [link.link_id for link in fattree4.switch_links]
        pod0 = [link for link in universe if pods[link] == 0]
        unowned = [link for link in universe if pods[link] is None]
        for link_ids, candidates in (
            # Universe = pod 0 + one core link: most rows cross no universe
            # link at all (zero-length rows), some only the core link.
            (pod0 + unowned[:1], paths),
            # One candidate: every link off it is orphaned into the residual.
            (universe, paths[:1]),
            # A single intra-pod candidate: a pod shard plus an all-orphan,
            # row-less residual.
            (universe, [p for p in paths if all(pods[l] == 1 for l in p.link_ids)][:1]),
            # No row at all, then no link either.
            (universe, []),
            ([], paths[:3]),
        ):
            arrays = RoutingMatrix(fattree4, candidates, link_ids=link_ids)
            shards = pod_shards_for_matrix(arrays)
            assert shards == _row_loop_shards(arrays)
            assert sorted({l for s in shards for l in s.link_ids}) == sorted(link_ids)
        assert shards == []

    def test_attached_index_shards_like_its_owner(self, fattree4):
        from repro.core.incidence import IncidenceIndex

        paths = enumerate_candidate_paths(fattree4, ordered=False, include_intrapod_agg=True)
        index = RoutingMatrix(fattree4, paths).incidence
        pods = link_pod_map(fattree4, index.link_ids)
        col_pods = [RESIDUAL_POD if pods[link] is None else pods[link] for link in index.link_ids]
        with index.share() as share:
            attached = IncidenceIndex.attach(share.handle)
            try:
                for rows in (None, list(range(0, index.num_paths, 2))):
                    assert attached.pod_shards(col_pods, rows) == index.pod_shards(col_pods, rows)
            finally:
                attached.detach()


# ---------------------------------------------------------------------------
# Differential: parallel == serial, byte for byte (tentpole)
# ---------------------------------------------------------------------------

def _build(name):
    if name == "fattree4":
        topology = build_fattree(4)
        paths = enumerate_candidate_paths(topology, ordered=False, include_intrapod_agg=True)
    elif name == "vl2":
        topology = build_vl2(4, 4, 2)
        paths = enumerate_candidate_paths(topology, ordered=False)
    else:
        topology = build_bcube(4, 1)
        paths = enumerate_candidate_paths(topology, ordered=False)
    return topology, paths


def _assert_results_identical(a, b):
    assert a.selected_indices == b.selected_indices
    assert a.probe_matrix.to_json() == b.probe_matrix.to_json()
    assert a.stats.cost_counters() == b.stats.cost_counters()
    assert a.stats.uncoverable_links == b.stats.uncoverable_links
    if a.shards is not None or b.shards is not None:
        assert a.shard_digests() == b.shard_digests()
        assert [s.kernel_cost for s in a.shards] == [s.kernel_cost for s in b.shards]
        assert [s.cost_counters for s in a.shards] == [s.cost_counters for s in b.shards]


class TestParallelDifferential:
    @pytest.mark.parametrize("name", ["fattree4", "vl2", "bcube"])
    def test_sharded_invariant_to_jobs(self, name):
        topology, paths = _build(name)
        matrix = RoutingMatrix(topology, paths)
        baseline = construct_probe_matrix(
            matrix, PMCOptions(alpha=2, beta=1, shard_by_pods=True, jobs=1)
        )
        assert baseline.shards is not None
        for jobs in (2, 8):
            parallel = construct_probe_matrix(
                matrix, PMCOptions(alpha=2, beta=1, shard_by_pods=True, jobs=jobs)
            )
            _assert_results_identical(baseline, parallel)

    @pytest.mark.parametrize("name", ["fattree4", "vl2", "bcube"])
    def test_component_decomposition_invariant_to_jobs(self, name):
        # jobs > 1 also parallelises the exact component decomposition; the
        # pooled result must equal the inline solve byte for byte.  Every
        # component is solved (no replay), so the fat-tree's twins do dispatch.
        topology, paths = _build(name)
        matrix = RoutingMatrix(topology, paths)
        options = dict(alpha=2, beta=1, use_symmetry=False)
        serial = construct_probe_matrix(matrix, PMCOptions(jobs=1, **options))
        pooled = construct_probe_matrix(matrix, PMCOptions(jobs=2, **options))
        assert serial.selected_indices == pooled.selected_indices
        assert serial.stats.cost_counters() == pooled.stats.cost_counters()
        assert serial.probe_matrix.to_json() == pooled.probe_matrix.to_json()

    def test_unsharded_cold_path_invariant_to_jobs(self):
        # The same contract off the pod-sharded path: which driver ran must
        # be invisible in the shard records and in the index's kernel totals.
        topology, paths = _build("fattree4")
        results, kernel_totals = [], []
        for jobs in (1, 2):
            matrix = RoutingMatrix(topology, paths)
            result = construct_probe_matrix(
                matrix, PMCOptions(alpha=2, beta=1, use_symmetry=False, jobs=jobs)
            )
            assert len(result.shards) == result.stats.subproblems > 1
            assert all(shard.pod is None and not shard.reused for shard in result.shards)
            results.append(result)
            kernel_totals.append(matrix.incidence.counters.as_dict())
        _assert_results_identical(*results)
        assert [s.digest for s in results[0].shards] == [s.digest for s in results[1].shards]
        assert kernel_totals[0] == kernel_totals[1]
        # Shard records are always there; touched_shards is the sharded
        # controller's report and stays None without shard_by_pods.
        controller = Controller(topology, ControllerConfig(alpha=2, beta=1))
        assert controller.run_cycle().touched_shards is None
        assert controller.run_incremental_cycle().touched_shards is None

    def test_sharded_masked_equals_sharded_cold(self, fattree4):
        paths = enumerate_candidate_paths(fattree4, ordered=False, include_intrapod_agg=True)
        matrix = RoutingMatrix(fattree4, paths)
        options = PMCOptions(alpha=2, beta=1, shard_by_pods=True)
        cold = construct_probe_matrix(matrix, options)
        masked = construct_probe_matrix_masked(matrix, options)
        _assert_results_identical(cold, masked)

    def test_sharded_warm_replay_is_identical_and_free(self, fattree4):
        paths = enumerate_candidate_paths(fattree4, ordered=False, include_intrapod_agg=True)
        matrix = RoutingMatrix(fattree4, paths)
        options = PMCOptions(alpha=2, beta=1, shard_by_pods=True, jobs=2)
        warm = ShardedSolutionCache()
        first = construct_probe_matrix_masked(matrix, options, warm=warm)
        # The four pod shards are one subproblem: pod 0 solves, its twins replay.
        assert [shard.reused for shard in first.shards] == [False, True, True, True, False]
        second = construct_probe_matrix_masked(matrix, options, warm=warm)
        assert all(shard.reused for shard in second.shards)
        assert all(shard.kernel_cost == {} for shard in second.shards)
        assert second.selected_indices == first.selected_indices
        assert second.shard_digests() == first.shard_digests()
        assert second.stats.candidates_scored == 0

    def test_shard_outcomes_cover_every_pod(self, fattree4):
        paths = enumerate_candidate_paths(fattree4, ordered=False, include_intrapod_agg=True)
        matrix = RoutingMatrix(fattree4, paths)
        result = construct_probe_matrix(matrix, PMCOptions(alpha=1, beta=1, shard_by_pods=True))
        assert [shard.pod for shard in result.shards] == [0, 1, 2, 3, RESIDUAL_POD]
        assert sum(shard.num_paths for shard in result.shards) == len(paths)
        # Each solved shard reports real (non-empty) kernel work.
        assert all(
            shard.kernel_cost for shard in result.shards if shard.num_paths and not shard.reused
        )


# ---------------------------------------------------------------------------
# Options / plumbing
# ---------------------------------------------------------------------------

class TestOptionsAndPlumbing:
    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            PMCOptions(jobs=0)
        with pytest.raises(ValueError):
            ControllerConfig(jobs=0)

    def test_resolve_jobs_explicit_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4
        assert resolve_jobs(2) == 2  # explicit beats env
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ValueError):
            resolve_jobs()
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_pool_map_preserves_submission_order(self):
        items = list(range(7))
        assert pool_map(_square, items, jobs=1) == [i * i for i in items]
        assert pool_map(_square, items, jobs=3) == [i * i for i in items]

    def test_derive_seeds_independent_of_order(self):
        forward = derive_seeds(2017, ["a", "b", "c"])
        backward = derive_seeds(2017, ["c", "b", "a"])
        assert forward == backward
        assert len(set(forward.values())) == 3

    def test_sharded_solution_cache_buckets_are_isolated(self):
        cache = ShardedSolutionCache(capacity_per_shard=2)
        cache.put(0, b"x", 1)
        cache.put(1, b"x", 2)
        assert cache.get(0, b"x") == 1
        assert cache.get(1, b"x") == 2
        assert cache.get(RESIDUAL_POD, b"x") is None
        assert sorted(cache.pods()) == [0, 1]  # a miss creates no bucket
        assert cache.hits == 2 and cache.misses == 1
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


def _square(x):
    return x * x


# ---------------------------------------------------------------------------
# Sharded controller: incremental == cold, and REPRO_JOBS reaches PMC
# ---------------------------------------------------------------------------

class TestShardedController:
    def _config(self, jobs=None):
        return ControllerConfig(
            alpha=2, beta=1, shard_by_pods=True, intrapod_paths=True, jobs=jobs
        )

    def test_sharded_incremental_equals_sharded_cold(self, fattree4):
        from repro.monitor import Watchdog

        watchdog = Watchdog(fattree4)
        controller = Controller(fattree4, self._config(), watchdog=watchdog)
        controller.run_incremental_cycle()
        bad = [l.link_id for l in fattree4.switch_links[3:5]]
        for link in bad:
            watchdog.report_failed_link(link)
        cycle = controller.run_incremental_cycle()
        assert cycle.mode == "incremental"

        cold_watchdog = Watchdog(fattree4, failed_link_ids=set(bad))
        cold = Controller(fattree4, self._config(), watchdog=cold_watchdog)
        cold._version = cycle.version - 1
        cold_cycle = cold.run_cycle()
        assert cycle.probe_matrix.to_json() == cold_cycle.probe_matrix.to_json()
        assert [p.nodes for p in cycle.probe_matrix.paths] == [
            p.nodes for p in cold_cycle.probe_matrix.paths
        ]

    def test_worker_death_degrades_to_inline_solve(self, fattree4, monkeypatch):
        from repro.monitor import Watchdog

        dispatches = []

        def dead_pool(fn, items, **kwargs):
            dispatches.append(len(items))
            raise BrokenProcessPool("a worker died mid-dispatch")

        monkeypatch.setattr("repro.core.pmc.pool_map", dead_pool)
        cycles, kernel_totals = [], []
        for jobs in (1, 2):
            watchdog = Watchdog(fattree4)
            controller = Controller(fattree4, self._config(jobs=jobs), watchdog=watchdog)
            controller.run_cycle()
            watchdog.report_failed_link(fattree4.switch_links[3].link_id)
            cycles.append(controller.run_incremental_cycle())
            kernel_totals.append(
                controller._full_routing_matrix().incidence.counters.as_dict()
            )
        assert dispatches and all(count > 1 for count in dispatches)  # jobs=2 did dispatch
        serial, degraded = cycles
        assert degraded.mode == "incremental"
        _assert_results_identical(serial.pmc_result, degraded.pmc_result)
        assert degraded.touched_shards == serial.touched_shards
        assert kernel_totals[0] == kernel_totals[1]

    def test_jobs_env_var_reaches_controller(self, fattree4, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        sharded = Controller(fattree4, self._config())
        cycle = sharded.run_cycle()
        monkeypatch.delenv("REPRO_JOBS")
        serial = Controller(fattree4, self._config(jobs=1))
        baseline = serial.run_cycle()
        assert cycle.probe_matrix.to_json() == baseline.probe_matrix.to_json()
        # Pods 1-3 are isomorphic to pod 0 and replay its solve.
        assert cycle.touched_shards == baseline.touched_shards == (0, RESIDUAL_POD)
