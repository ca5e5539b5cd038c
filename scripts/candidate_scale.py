#!/usr/bin/env python
"""Candidate table + incidence index at Table 2's middle row, Fattree(24): 11.9 M
ordered = 5 951 232 unordered original paths; ``--solve`` runs the cold plan
(alpha = 2, beta = 1) on them as well, and ``--churn N`` then runs N one-link
masked cycles against a warm cache, printing each cycle's decomposition and
solve seconds (read off the program's own ``decomposition`` and ``pmc.solve``
spans), its logical ``greedy_evaluations`` and the solve's microseconds per
evaluation -- the work-normalised number to compare across machines.  Run
with ``PYTHONPATH=src``."""

import argparse
import resource
import time

from repro.contracts import informational_wall
from repro.core import (
    PMCOptions,
    ShardedSolutionCache,
    construct_probe_matrix,
    construct_probe_matrix_masked,
)
from repro.obs import Tracer, activated
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_fattree


@informational_wall("prints seconds next to the span walls; nothing is gated on them")
def churn(matrix: RoutingMatrix, options: PMCOptions, cycles: int) -> None:
    """A warm-up cycle on the healthy index, then *cycles* cycles with one link down each."""
    index = matrix.incidence
    warm = ShardedSolutionCache()
    down = []
    for cycle in range(cycles + 1):
        index.revert_link_mask(down)
        # Links spread over the universe, so consecutive cycles touch different components.
        down = [index.link_ids[(cycle * 7919) % index.num_links]] if cycle else []
        index.apply_link_mask(down)
        tracer = Tracer()
        start = time.perf_counter()
        with activated(tracer):
            result = construct_probe_matrix_masked(matrix, options, warm=warm)
        wall = time.perf_counter() - start
        spans = tracer.finished_spans()
        decomposition = next(sp for sp in spans if sp.name == "decomposition")
        solve_s = sum(sp.wall_seconds for sp in spans if sp.name == "pmc.solve")
        evaluations = result.stats.greedy_evaluations
        us_per_evaluation = f"{solve_s * 1e6 / evaluations:.2f}" if evaluations else "-"
        print(f"cycle {cycle} ({'link ' + str(down[0]) + ' down' if down else 'warm-up'}): "
              f"subproblems {result.stats.subproblems}  refined {decomposition.labels['refined']}  "
              f"reused {result.stats.reused_subproblems}  decomposition_s {decomposition.wall_seconds:.3f}  "
              f"solve_s {solve_s:.2f}  greedy_evaluations {evaluations}  "
              f"us_per_evaluation {us_per_evaluation}  cycle_s {wall:.2f}")
    index.clear_link_mask()


@informational_wall("prints seconds next to the row counts; nothing is gated on them")
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=24, help="Fattree radix (default 24)")
    parser.add_argument("--solve", action="store_true", help="also run the cold plan")
    parser.add_argument("--churn", type=int, default=0, metavar="N",
                        help="after the cold plan, N one-link masked cycles (implies --solve)")
    args = parser.parse_args()
    topology = build_fattree(args.k)
    start = time.perf_counter()
    table = enumerate_candidate_paths(topology, ordered=False)
    enumerated = time.perf_counter()
    matrix = RoutingMatrix(topology, table)
    index = matrix.incidence
    built = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{topology.name}: rows {len(table)}  nnz {index.nnz}  materialised_rows {table.materialised_rows}  "
          f"enumerate_s {enumerated - start:.2f}  build_s {built - enumerated:.2f}  ru_maxrss_mb {peak_mb:.0f}")
    if args.solve or args.churn:
        options = PMCOptions(alpha=2, beta=1, jobs=1)
        result = construct_probe_matrix(matrix, options)
        solved = time.perf_counter()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{topology.name}: components {len(result.shards)}  "
              f"distinct_digests {len({shard.digest for shard in result.shards})}  "
              f"selected_paths {result.num_paths}  solve_s {solved - built:.2f}  ru_maxrss_mb {peak_mb:.0f}")
        if args.churn:
            churn(matrix, options, args.churn)


if __name__ == "__main__":
    main()
