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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..routing import ECMPRouter, Path, enumerate_candidate_paths
from ..simulation import FailureScenario, ProbeSimulator
from ..topology import Topology
from .common import BaselineConfig, MonitoringOutcome, SuspectedPair
from .netbouncer import Netbouncer

__all__ = ["PingmeshSystem"]


class PingmeshSystem:
    """Pingmesh detection plus Netbouncer localization over the simulator."""

    name = "Pingmesh"

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        config: Optional[BaselineConfig] = None,
        candidate_paths: Optional[Sequence[Path]] = None,
    ):
        self.topology = topology
        self.config = config or BaselineConfig()
        self._rng = rng
        if candidate_paths is None:
            candidate_paths = enumerate_candidate_paths(topology, ordered=True)
        self._paths = list(candidate_paths)
        self._router = ECMPRouter(self._paths, seed=int(rng.integers(0, 2**31 - 1)))
        self._paths_by_pair: Dict[Tuple[str, str], List[Path]] = {}
        for path in self._paths:
            self._paths_by_pair.setdefault((path.src, path.dst), []).append(path)
        self._tor_names = [n.name for n in topology.tor_switches]

    # ------------------------------------------------------------------ pairs
    def monitored_pairs(self) -> List[Tuple[str, str]]:
        """The inter-ToR complete graph (ordered pairs, as each side pings)."""
        pairs = []
        for src in self._tor_names:
            for dst in self._tor_names:
                if src != dst and (src, dst) in self._paths_by_pair:
                    pairs.append((src, dst))
        return pairs

    # ----------------------------------------------------------------- window
    def run_window(
        self,
        scenario: FailureScenario,
        probes_per_pair: Optional[int] = None,
    ) -> MonitoringOutcome:
        """Run detection and (if anything trips) Netbouncer localization."""
        config = self.config
        probes_per_pair = probes_per_pair or config.probes_per_pair
        simulator = ProbeSimulator(self.topology, scenario, self._rng)

        detection_probes = 0
        suspects: List[SuspectedPair] = []
        pairs = self.monitored_pairs()
        for outcome in simulator.probe_pairs_ecmp(self._router, pairs, probes_per_pair):
            detection_probes += outcome.sent
            if config.pair_is_suspect(outcome.sent, outcome.lost):
                suspects.append(
                    SuspectedPair(
                        src=outcome.src, dst=outcome.dst, sent=outcome.sent, lost=outcome.lost
                    )
                )

        suspected_links: List[int] = []
        localization_probes = 0
        localization_seconds = 0.0
        if suspects:
            unique_pairs: Dict[Tuple[str, str], Sequence[Path]] = {}
            for suspect in suspects:
                key = tuple(sorted((suspect.src, suspect.dst)))
                if key in unique_pairs:
                    continue
                unique_pairs[key] = self._paths_by_pair.get(
                    (key[0], key[1]), self._paths_by_pair.get((key[1], key[0]), [])
                )
            netbouncer = Netbouncer(
                simulator,
                probes_per_path=config.localization_probes_per_path,
                max_probes=config.localization_budget(detection_probes),
            )
            result = netbouncer.localize(unique_pairs)
            suspected_links = result.suspected_links
            localization_probes = result.probes_sent
            localization_seconds = config.localization_round_seconds

        return MonitoringOutcome(
            system=self.name,
            suspected_links=suspected_links,
            suspected_pairs=suspects,
            detection_probes=detection_probes,
            localization_probes=localization_probes,
            detection_seconds=config.window_seconds,
            localization_seconds=localization_seconds,
        )
