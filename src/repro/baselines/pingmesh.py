"""Pingmesh: the all-pairs probing baseline (Guo et al., SIGCOMM 2015).

Pingmesh builds two complete probing graphs: one among the servers under each
ToR and one spanning all ToR switches (§2).  Probes are ordinary flows, so
ECMP -- not the monitoring system -- decides which of the parallel paths each
probe takes; only the per-pair loss rate is observable.  Localization is
delegated to Netbouncer, which needs an extra round of path-pinned probes
between the suspected pairs.

The reproduction models the inter-ToR complete graph (the intra-rack graph
only exercises server uplinks, which are outside the probe-matrix link
universe the comparison is evaluated on) and accounts separately for
detection and localization probes so Figs. 5-6 can be regenerated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..topology import Topology
from .common import BaselineConfig, ECMPBaseline, SuspectedPair
from .netbouncer import Netbouncer, NetbouncerResult

__all__ = ["PingmeshSystem"]


class PingmeshSystem(ECMPBaseline):
    """Pingmesh detection over the inter-ToR complete graph (ordered pairs,
    as each side pings) plus Netbouncer localization."""

    name = "Pingmesh"

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        config: Optional[BaselineConfig] = None,
    ):
        tors = [n.name for n in topology.tor_switches]
        super().__init__(topology, rng, config, tors, tors)

    def _localize(
        self, suspects: List[SuspectedPair], max_probes: Optional[int]
    ) -> NetbouncerResult:
        """Netbouncer replays every candidate row of each unordered suspect pair."""
        candidates = self._router.candidates
        rows_by_pair: Dict[Tuple[str, str], List[int]] = {}
        for suspect in suspects:
            a, b = sorted((suspect.src, suspect.dst))
            if (a, b) not in rows_by_pair:
                rows_by_pair[a, b] = candidates(a, b) or candidates(b, a)
        netbouncer = Netbouncer(
            self._simulator,
            probes_per_path=self.config.localization_probes_per_path,
            max_probes=max_probes,
        )
        return netbouncer.localize(rows_by_pair)
