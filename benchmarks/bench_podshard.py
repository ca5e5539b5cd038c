"""Pod-sharded control-plane benchmark: writes ``BENCH_podshard.json``.

Two gates, both on **exact deterministic counters** (wall-clock numbers are
recorded but informational only, as PR 4 established for Table 2):

* **Jobs invariance** -- the pod-sharded solve at ``jobs > 1`` must be
  byte-identical to ``jobs=1``: same selections, same
  ``PMCStats.cost_counters()``, same per-shard digests and per-shard kernel
  counters.  A divergence is a hard failure, so the benchmark doubles as a
  large-instance differential test.
* **Churn isolation** -- on a warmed sharded controller, failing one
  pod-owned link must re-solve exactly that pod's shard plus the residual
  shard; every other shard must replay from its warm bucket with a zero
  kernel delta.  A second link down then leaves the residual shard with an
  unreachable identifiability goal (two orphaned links nobody can separate):
  its ``greedy_evaluations`` and ``partition_gain_queries`` must stay within
  1.25x of the one-link-down solve -- the solve stops at the finest reachable
  partition instead of draining the heap.
* **Dispatch-plane scaling** -- with the shared-memory incidence plane and
  persistent pools warm, a zero-churn cycle ships zero task payload and a
  one-pod churn cycle ships payload proportional to the churned shards (far
  below one pickled routing matrix), with zero pool spawns in either case.

Used by the CI benchmark-smoke job in quick mode; run the full configuration
locally with::

    PYTHONPATH=src python benchmarks/bench_podshard.py [--quick] [--out BENCH_podshard.json]
"""

from __future__ import annotations

import argparse
import pickle
import time

from repro.contracts import informational_wall
from repro.core import (
    PMCOptions,
    RESIDUAL_POD,
    construct_probe_matrix,
    link_pod_map,
)
from repro.core.incidence import shm_telemetry
from repro.monitor import Controller, ControllerConfig
from repro.obs import counters_block, write_bench_report
from repro.parallel import pool_telemetry, shutdown_pools
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_bcube, build_fattree, build_vl2


@informational_wall("Benchmark wall timings are informational by definition")
def bench_jobs_invariance(name: str, topology, paths, jobs: int) -> dict:
    matrix = RoutingMatrix(topology, paths)

    t0 = time.perf_counter()
    serial = construct_probe_matrix(
        matrix, PMCOptions(alpha=2, beta=1, shard_by_pods=True, jobs=1)
    )
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = construct_probe_matrix(
        matrix, PMCOptions(alpha=2, beta=1, shard_by_pods=True, jobs=jobs)
    )
    parallel_seconds = time.perf_counter() - t0

    # The gate: counters, not clocks.
    if parallel.selected_indices != serial.selected_indices:
        raise SystemExit(f"{name}: parallel selections diverged from serial")
    if parallel.stats.cost_counters() != serial.stats.cost_counters():
        raise SystemExit(f"{name}: parallel cost counters diverged from serial")
    if parallel.shard_digests() != serial.shard_digests():
        raise SystemExit(f"{name}: shard digests diverged")
    if [s.kernel_cost for s in parallel.shards] != [s.kernel_cost for s in serial.shards]:
        raise SystemExit(f"{name}: per-shard kernel counters diverged")

    return {
        "topology": name,
        "candidate_paths": len(paths),
        "selected_paths": len(serial.selected_indices),
        "shards": [
            {
                "pod": shard.pod,
                "paths": shard.num_paths,
                "links": shard.num_links,
                "selected": shard.num_selected,
            }
            for shard in serial.shards
        ],
        "jobs": jobs,
        **counters_block(serial.stats.cost_counters()),
        "byte_identical_across_jobs": True,
        # Informational only -- small instances are dominated by pool spawn.
        "serial_wall_seconds": round(serial_seconds, 4),
        "parallel_wall_seconds": round(parallel_seconds, 4),
    }


@informational_wall("Benchmark wall timings are informational by definition")
def bench_churn_isolation(name: str, topology) -> dict:
    config = ControllerConfig(alpha=2, beta=1, shard_by_pods=True, intrapod_paths=True)
    controller = Controller(topology, config)
    controller.run_incremental_cycle()  # bootstrap full rebuild
    controller.run_incremental_cycle()  # seed the per-pod warm buckets

    pods = link_pod_map(topology)
    target_pod = 0
    bad = next(l.link_id for l in topology.switch_links if pods[l.link_id] == target_pod)

    t0 = time.perf_counter()
    controller.watchdog.report_failed_link(bad)
    cycle = controller.run_incremental_cycle()
    churn_seconds = time.perf_counter() - t0

    expected = (target_pod, RESIDUAL_POD)
    if cycle.touched_shards != expected:
        raise SystemExit(
            f"{name}: pod-{target_pod} churn touched shards {cycle.touched_shards}, "
            f"expected {expected}"
        )
    for shard in cycle.pmc_result.shards:
        if shard.pod in expected:
            continue
        if not shard.reused or shard.kernel_cost != {}:
            raise SystemExit(
                f"{name}: untouched shard {shard.pod} did kernel work {shard.kernel_cost}"
            )

    # A second link down (owned by no pod): now two orphaned links share the
    # residual shard's never-touched partition cell for ever, so its
    # identifiability goal is unreachable.  The solve must stop at the finest
    # reachable partition -- costing what the one-link-down solve cost --
    # instead of popping, rescoring and discarding every remaining candidate.
    second = next(l.link_id for l in topology.switch_links if pods[l.link_id] is None)
    controller.watchdog.report_failed_link(second)
    two_down = controller.run_incremental_cycle()
    if two_down.touched_shards != (RESIDUAL_POD,):
        raise SystemExit(
            f"{name}: an unowned link's churn touched shards {two_down.touched_shards}"
        )
    gated = ("greedy_evaluations", "partition_gain_queries")
    reported = gated + ("candidates_discarded",)
    residual_one, residual_two = (
        {key: c.pmc_result.shards[-1].cost_counters[key] for key in reported}
        for c in (cycle, two_down)
    )
    for key in gated:
        if residual_two[key] > 1.25 * residual_one[key]:
            raise SystemExit(
                f"{name}: residual shard {key} {residual_two[key]} with two links down "
                f"against {residual_one[key]} with one: the unreachable goal drains the heap"
            )

    total = len(cycle.pmc_result.shards)
    return {
        "topology": name,
        "num_shards": total,
        "touched_shards": list(cycle.touched_shards),
        "replayed_shards": total - len(cycle.touched_shards),
        "isolation_holds": True,
        "residual_one_link_down": residual_one,
        "residual_two_links_down": residual_two,
        "unreachable_goal_costs_no_drain": True,
        "churn_cycle_wall_seconds": round(churn_seconds, 4),  # informational
    }


def bench_dispatch_plane(name: str, topology, jobs: int) -> dict:
    """Gate the zero-copy dispatch plane: payload scales with churn, not topology.

    A warmed sharded controller at ``jobs > 1`` runs one zero-churn cycle and
    one single-pod churn cycle.  Hard gates on the process-wide dispatch
    telemetry deltas:

    * zero-churn: every shard replays from its warm bucket, so **zero** task
      payload crosses the pool boundary and no pool is spawned;
    * churn: only the churned + residual shards ship (small subproblem + its
      coverage slice), so the payload stays far below one pickled routing
      matrix -- the quantity the pre-shm plane shipped per dispatch -- and the
      warm persistent pool is reused, never respawned.
    """
    shutdown_pools()  # isolate the telemetry deltas from earlier benches
    config = ControllerConfig(
        alpha=2, beta=1, shard_by_pods=True, intrapod_paths=True, jobs=jobs
    )
    controller = Controller(topology, config)
    controller.run_incremental_cycle()  # bootstrap full rebuild (spawns the pool)
    controller.run_incremental_cycle()  # seed warm buckets
    warm_pool = pool_telemetry()
    warm_shm = shm_telemetry()

    controller.run_incremental_cycle()  # steady state: no churn at all
    steady_pool = pool_telemetry()
    steady_payload = (
        steady_pool["dispatch_payload_bytes"] - warm_pool["dispatch_payload_bytes"]
    )
    steady_spawns = steady_pool["pool_spawns"] - warm_pool["pool_spawns"]

    pods = link_pod_map(topology)
    bad = next(l.link_id for l in topology.switch_links if pods[l.link_id] == 0)
    controller.watchdog.report_failed_link(bad)
    controller.run_incremental_cycle()
    churn_pool = pool_telemetry()
    churn_payload = (
        churn_pool["dispatch_payload_bytes"] - steady_pool["dispatch_payload_bytes"]
    )
    churn_spawns = churn_pool["pool_spawns"] - steady_pool["pool_spawns"]

    matrix_bytes = len(
        pickle.dumps(
            controller._full_routing_matrix(), protocol=pickle.HIGHEST_PROTOCOL
        )
    )
    controller.close()

    if steady_payload != 0:
        raise SystemExit(
            f"{name}: zero-churn cycle shipped {steady_payload} payload bytes"
        )
    if steady_spawns != 0 or churn_spawns != 0:
        raise SystemExit(
            f"{name}: warm cycles spawned pools (steady={steady_spawns}, "
            f"churn={churn_spawns}); the persistent pool was not reused"
        )
    if churn_payload >= matrix_bytes:
        raise SystemExit(
            f"{name}: churn payload {churn_payload} B is not below one pickled "
            f"routing matrix ({matrix_bytes} B); dispatch is O(topology) again"
        )

    return {
        "topology": name,
        "jobs": jobs,
        "warmup_pool_spawns": warm_pool["pool_spawns"],
        "steady_cycle_payload_bytes": steady_payload,
        "steady_cycle_pool_spawns": steady_spawns,
        "churn_cycle_payload_bytes": churn_payload,
        "churn_cycle_pool_spawns": churn_spawns,
        "routing_matrix_pickle_bytes": matrix_bytes,
        "dispatch_context_bytes": warm_pool["dispatch_context_bytes"],
        "shm_bytes_exported": warm_shm["shm_bytes_exported"],
        "shm_segments_created": warm_shm["shm_segments_created"],
        "payload_scales_with_churn": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small instances only")
    parser.add_argument("--jobs", type=int, default=4, help="parallel worker count to gate")
    parser.add_argument("--out", default="BENCH_podshard.json")
    args = parser.parse_args()

    if args.quick:
        fattree = ("fattree8", build_fattree(8))
        instances = [
            ("fattree8", build_fattree(8), dict(include_intrapod_agg=True)),
            ("vl2_442", build_vl2(4, 4, 2), {}),
            ("bcube41", build_bcube(4, 1), {}),
        ]
    else:
        fattree = ("fattree16", build_fattree(16))
        instances = [
            ("fattree16", build_fattree(16), dict(include_intrapod_agg=True)),
            ("vl2_884", build_vl2(8, 8, 4), {}),
            ("bcube42", build_bcube(4, 2), {}),
        ]

    rows = []
    for name, topology, kwargs in instances:
        paths = enumerate_candidate_paths(topology, ordered=False, **kwargs)
        rows.append(bench_jobs_invariance(name, topology, paths, args.jobs))

    report = write_bench_report(
        args.out,
        "podshard_control_plane",
        config={"alpha": 2, "beta": 1, "jobs_gated": args.jobs},
        rows=rows,
        churn_isolation=bench_churn_isolation(*fattree),
        dispatch_plane=bench_dispatch_plane(*fattree, jobs=args.jobs),
    )
    for row in rows:
        print(
            f"{row['topology']:>10}: {len(row['shards'])} shards, "
            f"sel={row['selected_paths']} identical@jobs={row['jobs']} "
            f"serial={row['serial_wall_seconds']:.3f}s "
            f"parallel={row['parallel_wall_seconds']:.3f}s"
        )
    isolation = report["churn_isolation"]
    print(
        f"{isolation['topology']:>10}: churn touched {isolation['touched_shards']} "
        f"of {isolation['num_shards']} shards "
        f"({isolation['replayed_shards']} replayed); residual gain queries "
        f"{isolation['residual_one_link_down']['partition_gain_queries']} with one link "
        f"down, {isolation['residual_two_links_down']['partition_gain_queries']} with two"
    )
    plane = report["dispatch_plane"]
    print(
        f"{plane['topology']:>10}: dispatch steady={plane['steady_cycle_payload_bytes']} B "
        f"churn={plane['churn_cycle_payload_bytes']} B "
        f"(matrix pickle={plane['routing_matrix_pickle_bytes']} B), "
        f"{plane['steady_cycle_pool_spawns'] + plane['churn_cycle_pool_spawns']} "
        f"pool spawns after warmup"
    )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
