#!/usr/bin/env python
"""Candidate table + incidence index at Table 2's middle row, Fattree(24): 11.9 M
ordered = 5 951 232 unordered original paths; ``--solve`` runs the cold plan
(alpha = 2, beta = 1) on them as well.  Run with ``PYTHONPATH=src``."""

import argparse
import resource
import time

from repro.contracts import informational_wall
from repro.core import PMCOptions, construct_probe_matrix
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_fattree


@informational_wall("prints seconds next to the row counts; nothing is gated on them")
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=24, help="Fattree radix (default 24)")
    parser.add_argument("--solve", action="store_true", help="also run the cold plan")
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
    if args.solve:
        result = construct_probe_matrix(matrix, PMCOptions(alpha=2, beta=1, jobs=1))
        solved = time.perf_counter()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{topology.name}: components {len(result.shards)}  "
              f"distinct_digests {len({shard.digest for shard in result.shards})}  "
              f"selected_paths {result.num_paths}  solve_s {solved - built:.2f}  ru_maxrss_mb {peak_mb:.0f}")


if __name__ == "__main__":
    main()
