"""deTector's primary contribution: probe-matrix construction and its building blocks."""

from .costmodel import CostModel, KernelCounters
from .decomposition import (
    RESIDUAL_POD,
    Subproblem,
    decompose_by_link_sets,
    decompose_routing_matrix,
    link_pod_map,
    pod_shards_for_matrix,
)
from .incidence import Backend, IncidenceIndex, RefinablePartition, RowProjection, resolve_backend
from .lazy_greedy import LazyMinHeap, ShardedSolutionCache
from .pmc import (
    PMCOptions,
    PMCResult,
    PMCStats,
    ShardOutcome,
    construct_probe_matrix,
    construct_probe_matrix_masked,
    pmc_for_topology,
)
from .probe_matrix import ProbeMatrix
from .properties import (
    check_coverage,
    check_identifiability,
    coverage_level,
    find_confusable_failure_sets,
    identifiability_level,
)
from .virtual_links import ExtendedLinkSpace

__all__ = [
    "ProbeMatrix",
    "PMCOptions",
    "PMCResult",
    "PMCStats",
    "construct_probe_matrix",
    "construct_probe_matrix_masked",
    "pmc_for_topology",
    "Backend",
    "CostModel",
    "KernelCounters",
    "IncidenceIndex",
    "RefinablePartition",
    "RowProjection",
    "resolve_backend",
    "LazyMinHeap",
    "ShardedSolutionCache",
    "ShardOutcome",
    "ExtendedLinkSpace",
    "RESIDUAL_POD",
    "Subproblem",
    "decompose_routing_matrix",
    "decompose_by_link_sets",
    "link_pod_map",
    "pod_shards_for_matrix",
    "check_coverage",
    "check_identifiability",
    "coverage_level",
    "identifiability_level",
    "find_confusable_failure_sets",
]
