#!/usr/bin/env python
"""Candidate table + incidence index (no solve) at Table 2's middle row, Fattree(24):
11.9 M ordered = 5 951 232 unordered original paths.  Run with ``PYTHONPATH=src``."""

import argparse
import resource
import time

from repro.contracts import informational_wall
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_fattree


@informational_wall("prints seconds next to the row counts; nothing is gated on them")
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=24, help="Fattree radix (default 24)")
    topology = build_fattree(parser.parse_args().k)
    start = time.perf_counter()
    table = enumerate_candidate_paths(topology, ordered=False)
    enumerated = time.perf_counter()
    index = RoutingMatrix(topology, table).incidence
    built = time.perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{topology.name}: rows {len(table)}  nnz {index.nnz}  materialised_rows {table.materialised_rows}  "
          f"enumerate_s {enumerated - start:.2f}  build_s {built - enumerated:.2f}  ru_maxrss_mb {peak_mb:.0f}")


if __name__ == "__main__":
    main()
