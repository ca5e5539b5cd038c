"""NetNORAD: Facebook's UDP probing system (§2).

NetNORAD differs from Pingmesh in pinger placement: instead of every server,
pingers live in a few pods and target responders everywhere.  Detection is
still end-to-end with ECMP choosing the path, and localization is delegated to
fbtracert, which traces the suspected pairs hop by hop with an extra round of
probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..routing import ECMPRouter, Path, enumerate_candidate_paths
from ..simulation import FailureScenario, ProbeSimulator
from ..topology import Topology
from .common import BaselineConfig, MonitoringOutcome, SuspectedPair
from .fbtracert import Fbtracert

__all__ = ["NetNORADSystem"]


class NetNORADSystem:
    """NetNORAD detection plus fbtracert localization over the simulator."""

    name = "NetNORAD"

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        config: Optional[BaselineConfig] = None,
        num_pinger_pods: int = 2,
        candidate_paths: Optional[Sequence[Path]] = None,
    ):
        if num_pinger_pods < 1:
            raise ValueError("num_pinger_pods must be >= 1")
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

        tors = topology.tor_switches
        pods = sorted({n.pod for n in tors if n.pod is not None})
        if pods:
            pinger_pods = set(pods[:num_pinger_pods])
            self._pinger_tors = [n.name for n in tors if n.pod in pinger_pods]
        else:
            self._pinger_tors = [n.name for n in tors[: max(1, len(tors) // 2)]]
        self._target_tors = [n.name for n in tors]

    # ------------------------------------------------------------------ pairs
    def monitored_pairs(self) -> List[Tuple[str, str]]:
        """Pinger ToRs probe every other ToR in the fabric."""
        pairs = []
        for src in self._pinger_tors:
            for dst in self._target_tors:
                if src != dst and (src, dst) in self._paths_by_pair:
                    pairs.append((src, dst))
        return pairs

    # ----------------------------------------------------------------- window
    def run_window(
        self,
        scenario: FailureScenario,
        probes_per_pair: Optional[int] = None,
    ) -> MonitoringOutcome:
        """Run detection and (if anything trips) fbtracert localization."""
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
            pairs_to_trace: Dict[Tuple[str, str], Sequence[Path]] = {}
            for suspect in suspects:
                key = (suspect.src, suspect.dst)
                pairs_to_trace[key] = self._paths_by_pair.get(key, [])
            tracer = Fbtracert(
                self.topology,
                simulator,
                probes_per_hop=max(1, config.localization_probes_per_path // 2),
                max_probes=config.localization_budget(detection_probes),
            )
            result = tracer.localize(pairs_to_trace)
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
