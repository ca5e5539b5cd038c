"""Data-center topology substrate: graph model plus Fattree / VL2 / BCube generators."""

from .base import Link, Node, Tier, Topology, TopologyBuilder, TopologyError
from .bcube import BCubeTopology, bcube_counts, build_bcube
from .delta import HealthSnapshot, TopologyDelta
from .fattree import FatTreeTopology, build_fattree, fattree_counts
from .vl2 import VL2Topology, build_vl2, vl2_counts

__all__ = [
    "Link",
    "Node",
    "Tier",
    "Topology",
    "TopologyBuilder",
    "TopologyError",
    "HealthSnapshot",
    "TopologyDelta",
    "FatTreeTopology",
    "build_fattree",
    "fattree_counts",
    "VL2Topology",
    "build_vl2",
    "vl2_counts",
    "BCubeTopology",
    "build_bcube",
    "bcube_counts",
]
