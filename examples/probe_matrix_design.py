"""Probe-matrix design space: coverage vs identifiability across topologies.

Reproduces, at example scale, the §4.4 trade-off analysis: how many paths PMC
needs for different (alpha, beta) targets on Fattree, VL2 and BCube, how even
the per-link probe load is, and what the optimisations buy.

Run with::

    python examples/probe_matrix_design.py
"""

from __future__ import annotations

import time

from repro import build_bcube, build_fattree, build_vl2
from repro.core import (
    PMCOptions,
    check_coverage,
    construct_probe_matrix,
    identifiability_level,
)
from repro.routing import RoutingMatrix, enumerate_candidate_paths


def describe(topology, alpha_beta_targets) -> None:
    paths = enumerate_candidate_paths(topology, ordered=False)
    routing_matrix = RoutingMatrix(topology, paths)
    print(f"\n=== {topology.name}: {routing_matrix.num_links} inter-switch links, "
          f"{routing_matrix.num_paths} candidate paths ===")
    for alpha, beta in alpha_beta_targets:
        result = construct_probe_matrix(routing_matrix, PMCOptions(alpha=alpha, beta=beta))
        probe_matrix = result.probe_matrix
        summary = probe_matrix.summary()
        achieved_beta = identifiability_level(probe_matrix, max_beta=max(beta, 1))
        print(
            f"  target (alpha={alpha}, beta={beta}): {result.num_paths:4d} paths, "
            f"coverage ok={check_coverage(probe_matrix, alpha)}, "
            f"achieved identifiability={achieved_beta}, "
            f"link coverage min/max={summary['min_coverage']}/{summary['max_coverage']}"
        )


def show_optimizations(topology) -> None:
    paths = enumerate_candidate_paths(topology, ordered=False)
    routing_matrix = RoutingMatrix(topology, paths)
    print(f"\n=== PMC speed-ups on {topology.name} "
          f"({routing_matrix.num_paths} candidate paths) ===")
    variants = [
        ("strawman", dict(use_decomposition=False, use_lazy_update=False, use_symmetry=False)),
        ("+decomposition", dict(use_decomposition=True, use_lazy_update=False, use_symmetry=False)),
        ("+lazy update", dict(use_decomposition=True, use_lazy_update=True, use_symmetry=False)),
        ("+symmetry", dict(use_decomposition=True, use_lazy_update=True, use_symmetry=True)),
    ]
    for label, flags in variants:
        options = PMCOptions(alpha=2, beta=1, **flags)
        start = time.perf_counter()
        result = construct_probe_matrix(routing_matrix, options)
        elapsed = time.perf_counter() - start
        print(f"  {label:16s}: {elapsed * 1000:8.1f} ms, {result.num_paths} paths selected")


def main() -> None:
    targets = [(1, 0), (1, 1), (2, 1), (3, 1)]
    describe(build_fattree(4), targets)
    describe(build_vl2(8, 6, 2), targets)
    describe(build_bcube(4, 1), targets)
    show_optimizations(build_fattree(6))


if __name__ == "__main__":
    main()
