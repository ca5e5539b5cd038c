"""fbtracert: the traceroute-style post-alarm tool used with NetNORAD (§2, §6.2).

fbtracert explores the ECMP fan-out between a suspected pair by varying flow
labels and limiting the TTL: probes with TTL ``t`` only traverse the first
``t`` hops, and the hop at which end-to-end loss starts pins the faulty link.
The simulator reproduces exactly that: for every candidate path (discovered by
varying source ports) probes are sent hop-prefix by hop-prefix; the first hop
prefix whose loss rate jumps above the detection threshold is blamed.
A candidate is a row of the simulator's primed table, traced over prefixes
of its hop column, per packet: a bulk row would walk ``link_ids`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..simulation import ProbeConfig, ProbeSimulator

__all__ = ["FbtracertResult", "Fbtracert"]


@dataclass
class FbtracertResult:
    """Links blamed by fbtracert plus the probing cost of the extra round."""

    suspected_links: List[int]
    probes_sent: int
    traced_paths: int


class Fbtracert:
    """Hop-by-hop loss-onset localization for suspected pairs."""

    def __init__(
        self,
        simulator: ProbeSimulator,
        probes_per_hop: int = 10,
        loss_threshold: float = 0.05,
        max_probes: Optional[int] = None,
    ):
        if probes_per_hop < 1:
            raise ValueError("probes_per_hop must be >= 1")
        if not 0.0 < loss_threshold <= 1.0:
            raise ValueError("loss_threshold must lie in (0, 1]")
        self._simulator = simulator
        self._probes_per_hop = probes_per_hop
        self._loss_threshold = loss_threshold
        self._max_probes = max_probes

    def trace_path(self, src: str, dst: str, hops: Sequence[int]) -> Tuple[Optional[int], int]:
        """Trace one candidate path; return (blamed link or None, probes used).

        *hops* are the path's link ids in hop order.  Probes are sent with
        increasing TTL.  The prefix loss rates are monotone in expectation,
        so the first hop whose prefix loss rate exceeds the threshold (while
        the previous prefix stayed below it) carries the blame.
        """
        config = ProbeConfig(probes_per_path=self._probes_per_hop)
        flows = [
            (src, dst, config.base_port + sequence % config.port_range, config.destination_port, 17)
            for sequence in range(self._probes_per_hop)
        ]
        transmit = self._simulator.transmit
        probes_used = 0
        previous_lossy = False
        for hop, link_id in enumerate(hops, start=1):
            prefix = hops[:hop]
            lost = sum(not transmit(prefix, flow) for flow in flows)
            probes_used += self._probes_per_hop
            lossy = (lost / self._probes_per_hop) >= self._loss_threshold
            if lossy and not previous_lossy:
                return link_id, probes_used
            previous_lossy = lossy
        return None, probes_used

    def localize(self, rows_by_pair: Dict[Tuple[str, str], Sequence[int]]) -> FbtracertResult:
        """Trace every candidate row of every suspected pair.

        *rows_by_pair* maps each suspected (src, dst) pair to the rows of the
        simulator's primed table holding its parallel paths.  When a probe
        budget was configured, tracing stops as soon as it is exhausted --
        remaining paths go untraced (the Fig. 6 fixed-budget setting).
        """
        table = self._simulator.primed_paths
        suspected: Set[int] = set()
        probes_sent = 0
        traced = 0
        for (src, dst), rows in rows_by_pair.items():
            for row in rows:
                if self._max_probes is not None and probes_sent >= self._max_probes:
                    break
                traced += 1
                blamed, used = self.trace_path(src, dst, table.hops(row))
                probes_sent += used
                if blamed is not None:
                    suspected.add(blamed)
        return FbtracertResult(
            suspected_links=sorted(suspected),
            probes_sent=probes_sent,
            traced_paths=traced,
        )
