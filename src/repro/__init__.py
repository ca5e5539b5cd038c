"""repro -- reproduction of deTector (USENIX ATC 2017).

deTector is a topology-aware monitoring system for data center networks that
detects and localizes packet-loss failures in near real time with minimal
probing overhead.  The library is organised as:

* :mod:`repro.topology`     -- Fattree / VL2 / BCube generators,
* :mod:`repro.routing`      -- candidate path enumeration, routing matrix, ECMP,
* :mod:`repro.core`         -- the PMC probe-matrix construction algorithm,
* :mod:`repro.localization` -- the PLL loss-localization algorithm and baselines,
* :mod:`repro.simulation`   -- failure models, packet-level probing simulator,
* :mod:`repro.monitor`      -- controller / pinger / responder / diagnoser,
* :mod:`repro.baselines`    -- Pingmesh, NetNORAD, Netbouncer, fbtracert,
* :mod:`repro.experiments`  -- harnesses regenerating every table and figure.

Quickstart::

    from repro import build_fattree, pmc_for_topology

    topology = build_fattree(4)
    result = pmc_for_topology(topology, alpha=3, beta=1)
    print(result.probe_matrix.summary())
"""

from .core import (
    PMCOptions,
    PMCResult,
    ProbeMatrix,
    check_coverage,
    check_identifiability,
    construct_probe_matrix,
    pmc_for_topology,
)
from .routing import Path, RoutingMatrix, enumerate_candidate_paths
from .topology import (
    BCubeTopology,
    FatTreeTopology,
    Topology,
    VL2Topology,
    build_bcube,
    build_fattree,
    build_vl2,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Topology",
    "FatTreeTopology",
    "VL2Topology",
    "BCubeTopology",
    "build_fattree",
    "build_vl2",
    "build_bcube",
    "Path",
    "RoutingMatrix",
    "enumerate_candidate_paths",
    "ProbeMatrix",
    "PMCOptions",
    "PMCResult",
    "construct_probe_matrix",
    "pmc_for_topology",
    "check_coverage",
    "check_identifiability",
]
