"""NetNORAD: Facebook's UDP probing system (§2).

NetNORAD differs from Pingmesh in pinger placement: instead of every server,
pingers live in a few pods and target responders everywhere.  Detection is
still end-to-end with ECMP choosing the path, and localization is delegated to
fbtracert, which traces the suspected pairs hop by hop with an extra round of
probes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..topology import Topology
from .common import BaselineConfig, ECMPBaseline, SuspectedPair
from .fbtracert import Fbtracert, FbtracertResult

__all__ = ["NetNORADSystem"]


class NetNORADSystem(ECMPBaseline):
    """NetNORAD detection (pinger ToRs in ``num_pinger_pods`` pods probe every
    other ToR) plus fbtracert localization."""

    name = "NetNORAD"

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        config: Optional[BaselineConfig] = None,
        num_pinger_pods: int = 2,
    ):
        if num_pinger_pods < 1:
            raise ValueError("num_pinger_pods must be >= 1")
        tors = topology.tor_switches
        pods = sorted({n.pod for n in tors if n.pod is not None})
        if pods:
            pinger_pods = set(pods[:num_pinger_pods])
            pinger_tors = [n.name for n in tors if n.pod in pinger_pods]
        else:
            pinger_tors = [n.name for n in tors[: max(1, len(tors) // 2)]]
        super().__init__(topology, rng, config, pinger_tors, [n.name for n in tors])

    def _localize(
        self, suspects: List[SuspectedPair], max_probes: Optional[int]
    ) -> FbtracertResult:
        """fbtracert traces every candidate row of each suspect pair."""
        tracer = Fbtracert(
            self._simulator,
            probes_per_hop=max(1, self.config.localization_probes_per_path // 2),
            max_probes=max_probes,
        )
        candidates = self._router.candidates
        return tracer.localize({(s.src, s.dst): candidates(s.src, s.dst) for s in suspects})
