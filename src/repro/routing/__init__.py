"""Routing substrate: candidate path enumeration, routing matrix, ECMP, source routing."""

from .ecmp import ECMPRouter, FlowKey
from .paths import (
    Path,
    PathTable,
    enumerate_bcube_paths,
    enumerate_candidate_paths,
    enumerate_fattree_paths,
    enumerate_shortest_paths,
    enumerate_vl2_paths,
    walk_link_sequence,
    walk_to_link_ids,
)
from .routing_matrix import RoutingMatrix
from .source_routing import EncapsulatedProbe, ProbePacket, SourceRouter

__all__ = [
    "Path",
    "PathTable",
    "walk_to_link_ids",
    "walk_link_sequence",
    "enumerate_fattree_paths",
    "enumerate_vl2_paths",
    "enumerate_bcube_paths",
    "enumerate_candidate_paths",
    "enumerate_shortest_paths",
    "RoutingMatrix",
    "ECMPRouter",
    "FlowKey",
    "ProbePacket",
    "EncapsulatedProbe",
    "SourceRouter",
]
