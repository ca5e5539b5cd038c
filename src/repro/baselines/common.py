"""Shared pieces of the baseline monitoring systems (Pingmesh, NetNORAD).

Both competitors follow the same two-phase workflow deTector's motivation
section criticises (§2):

1. **Detection** -- end-to-end probes between server pairs with no path
   pinning (ECMP decides the route), flagging pairs whose loss rate exceeds a
   threshold;
2. **Localization** -- a *post-alarm* tool (Netbouncer for Pingmesh, fbtracert
   for NetNORAD) sends an additional round of probes between the suspected
   pairs to find the faulty links.

The two systems differ only in the pairs they monitor and in the post-alarm
tool, so both are an :class:`ECMPBaseline`: one ECMP router over the
candidate table, one :class:`~repro.simulation.ProbeSimulator` primed with
that table once, at construction, and one detection loop.  The post-alarm
tools probe rows of the same primed table, so no window re-primes and no
candidate row becomes a :class:`~repro.routing.Path` unless a failure makes
it dirty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..routing import ECMPRouter, enumerate_candidate_paths
from ..simulation import FailureScenario, ProbeConfig, ProbeSimulator
from ..topology import Topology

__all__ = ["SuspectedPair", "MonitoringOutcome", "BaselineConfig", "ECMPBaseline"]

#: The probe entropy of the detection probes: probe ``k`` of a pair leaves
#: from port ``base_port + k``.
_PROBE = ProbeConfig()


@dataclass(frozen=True)
class SuspectedPair:
    """A source/destination pair whose end-to-end loss rate tripped the detector."""

    src: str
    dst: str
    sent: int
    lost: int

    @property
    def loss_rate(self) -> float:
        return self.lost / self.sent if self.sent else 0.0


@dataclass
class MonitoringOutcome:
    """What a monitoring system produced during one evaluation window."""

    system: str
    suspected_links: List[int]
    suspected_pairs: List[SuspectedPair]
    detection_probes: int
    localization_probes: int
    detection_seconds: float
    localization_seconds: float

    @property
    def total_probes(self) -> int:
        return self.detection_probes + self.localization_probes

    @property
    def time_to_localization_seconds(self) -> float:
        """End-to-end latency from failure onset to localized links.

        deTector localizes from the detection data itself; the baselines pay
        for an extra localization round, which is the "30 seconds in advance"
        advantage quoted in §6.3.
        """
        return self.detection_seconds + self.localization_seconds


@dataclass(frozen=True)
class BaselineConfig:
    """Probing budget and thresholds shared by the baseline systems.

    Attributes
    ----------
    probes_per_pair:
        Detection probes sent between each monitored pair per window.
    detection_loss_threshold:
        Minimum per-pair loss ratio for the pair to be reported (1e-3 as in
        Pingmesh's data pre-processing, which the paper reuses for all three
        systems to keep the comparison fair, §6.2).
    detection_min_losses:
        Alternative absolute trigger for short windows.
    localization_probes_per_path:
        Probes the post-alarm tool sends on every candidate path between a
        suspected pair.
    probe_budget_per_window:
        Optional hard cap on the *total* probes (detection plus localization)
        the system may send in one window.  Used by the fixed-budget
        comparison (Fig. 6): once the cap is reached the post-alarm tool stops
        probing further paths, which is the price of separating detection
        from localization.
    window_seconds:
        Length of the detection window (30 s, the same aggregation interval
        as deTector).
    localization_round_seconds:
        Extra time the post-alarm tool needs for its own probing round.
    """

    probes_per_pair: int = 20
    detection_loss_threshold: float = 1e-3
    detection_min_losses: int = 1
    localization_probes_per_path: int = 20
    probe_budget_per_window: Optional[int] = None
    window_seconds: float = 30.0
    localization_round_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.probes_per_pair < 1:
            raise ValueError("probes_per_pair must be >= 1")
        if self.localization_probes_per_path < 1:
            raise ValueError("localization_probes_per_path must be >= 1")
        if not 0.0 <= self.detection_loss_threshold <= 1.0:
            raise ValueError("detection_loss_threshold must lie in [0, 1]")
        if self.probe_budget_per_window is not None and self.probe_budget_per_window < 1:
            raise ValueError("probe_budget_per_window must be >= 1 when given")

    def localization_budget(self, detection_probes: int) -> Optional[int]:
        """Probes the post-alarm tool may still send, or ``None`` when unlimited."""
        if self.probe_budget_per_window is None:
            return None
        return max(0, self.probe_budget_per_window - detection_probes)

    def pair_is_suspect(self, sent: int, lost: int) -> bool:
        if lost == 0:
            return False
        if lost >= self.detection_min_losses and sent and lost / sent >= self.detection_loss_threshold:
            return True
        return False


@dataclass(frozen=True)
class PairProbeOutcome(SuspectedPair):
    """A pair's ECMP probes; ``losses_by_path`` (primed row -> probes lost)
    is kept for analysis but hidden from the detectors."""

    losses_by_path: Dict[int, int] = field(default_factory=dict)


def route_probes(
    router: ECMPRouter, pairs: Sequence[Tuple[str, str]], num_probes: int
) -> np.ndarray:
    """Row ``[i, k]``: the router's row ECMP hashes probe ``k`` of ``pairs[i]``
    onto, its flow leaving from port ``base_port + k``.  Raises
    ``ValueError`` for a pair the router has no candidates for."""
    rows = np.empty((len(pairs), num_probes), dtype=np.int64)
    ports = range(_PROBE.base_port, _PROBE.base_port + num_probes)
    for i, (src, dst) in enumerate(pairs):
        for k, port in enumerate(ports):
            index = router.route_index((src, dst, port, _PROBE.destination_port, 17))
            if index is None:
                raise ValueError(f"ECMP router has no candidate paths for {src} -> {dst}")
            rows[i, k] = index
    return rows


def probe_pairs_ecmp(
    simulator: ProbeSimulator, pairs: Sequence[Tuple[str, str]], routes: np.ndarray
) -> List[PairProbeOutcome]:
    """Probe *pairs* the Pingmesh/NetNORAD way, along :func:`route_probes`'
    *routes* on the router's table, which *simulator* must have primed.

    Every probe is one count-1 row of a single
    :meth:`~repro.simulation.ProbeSimulator.probe_paths_bulk` call, pair by
    pair, in sequence order, the port range widened to the probe count.
    """
    num_pairs, num_probes = routes.shape
    _, lost = simulator.probe_paths_bulk(
        routes.ravel(),
        np.ones(routes.size, dtype=np.int64),
        np.tile(np.arange(num_probes), num_pairs),
        [replace(_PROBE, port_range=max(num_probes, _PROBE.port_range))],
        np.zeros(routes.size, dtype=np.int64),
        [0],
    )
    lost = lost.reshape(routes.shape).astype(bool)
    outcomes = []
    for (src, dst), pair_routes, pair_lost, lost_count in zip(
        pairs, routes, lost, lost.sum(axis=1).tolist()
    ):
        losses: Dict[int, int] = {}
        if lost_count:
            paths, counts = np.unique(pair_routes[pair_lost], return_counts=True)
            losses = dict(zip(paths.tolist(), counts.tolist()))
        outcomes.append(PairProbeOutcome(src, dst, num_probes, lost_count, losses))
    return outcomes


class ECMPBaseline:
    """End-to-end ECMP detection between the ``sources`` x ``targets`` pairs
    that have candidate paths, plus a post-alarm localization round.

    Subclasses pick the pairs and implement :meth:`_localize`.  Routes are
    tabulated once per probes-per-pair setting; a window swaps the primed
    simulator's scenario (the same rng object, so the draws a fresh
    simulator per window would make).
    """

    name: str

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        config: Optional[BaselineConfig],
        sources: Sequence[str],
        targets: Sequence[str],
    ):
        self.topology = topology
        self.config = config or BaselineConfig()
        self._router = ECMPRouter(
            enumerate_candidate_paths(topology, ordered=True),
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        self._simulator = ProbeSimulator(topology, FailureScenario(), rng)
        self._simulator.prime_paths(self._router.paths)
        candidates = self._router.candidates
        self._pairs = [(s, t) for s in sources for t in targets if s != t and candidates(s, t)]
        self._routes: Dict[int, np.ndarray] = {}

    def monitored_pairs(self) -> List[Tuple[str, str]]:
        return list(self._pairs)

    def _localize(self, suspects: List[SuspectedPair], max_probes: Optional[int]):
        """The post-alarm round; its result has ``suspected_links`` and ``probes_sent``."""
        raise NotImplementedError

    def run_window(
        self,
        scenario: FailureScenario,
        probes_per_pair: Optional[int] = None,
    ) -> MonitoringOutcome:
        """Run detection and, if a pair trips, the post-alarm localization."""
        config = self.config
        if probes_per_pair is None:
            probes_per_pair = config.probes_per_pair
        elif probes_per_pair < 1:
            raise ValueError("probes_per_pair must be >= 1")
        routes = self._routes.get(probes_per_pair)
        if routes is None:
            routes = self._routes[probes_per_pair] = route_probes(
                self._router, self._pairs, probes_per_pair
            )
        self._simulator.set_scenario(scenario)
        suspects = [
            SuspectedPair(outcome.src, outcome.dst, outcome.sent, outcome.lost)
            for outcome in probe_pairs_ecmp(self._simulator, self._pairs, routes)
            if config.pair_is_suspect(outcome.sent, outcome.lost)
        ]
        detection_probes = routes.size

        suspected_links: List[int] = []
        localization_probes = 0
        localization_seconds = 0.0
        if suspects:
            result = self._localize(suspects, config.localization_budget(detection_probes))
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
