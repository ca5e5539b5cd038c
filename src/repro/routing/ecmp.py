"""ECMP path selection for systems that do *not* pin probe paths.

Pingmesh and NetNORAD treat the network as a black box: their probes are
ordinary 5-tuple flows and the switches hash them onto one of the equal-cost
paths.  deTector's motivation section (§2) hinges on this behaviour -- a
low-rate loss on one of the ``k**2/4`` parallel paths is diluted by ECMP and
therefore hard to detect end-to-end.

:class:`ECMPRouter` reproduces the behaviour deterministically: the chosen
path is a stable hash of the flow 5-tuple over the candidate paths between the
two endpoints, mirroring per-flow ECMP hashing in commodity switches.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from .path_table import Path, PathTable

__all__ = ["FlowKey", "ECMPRouter"]


FlowKey = Tuple[str, str, int, int, int]
"""A flow 5-tuple: (src endpoint, dst endpoint, src port, dst port, protocol)."""


class ECMPRouter:
    """Deterministic per-flow ECMP over a fixed candidate path set.

    Parameters
    ----------
    paths:
        Candidate paths: a :class:`~repro.routing.PathTable`, or any sequence
        of :class:`~repro.routing.Path` (wrapped into one).  Rows are grouped
        by their ``(src, dst)`` endpoint columns; a flow between two
        endpoints is hashed onto one member of its group.
    seed:
        Mixed into the hash so that different simulated switches (or different
        experiment repetitions) can realise different hash functions.
    """

    def __init__(self, paths: Sequence[Path], seed: int = 0):
        self._seed = seed
        self._paths = paths if isinstance(paths, PathTable) else PathTable.from_paths(paths)
        self._groups: Dict[Tuple[str, str], List[int]] = self._paths.rows_by_endpoints()

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def paths(self) -> PathTable:
        """The candidate table, positional over the indices this router returns."""
        return self._paths

    def endpoints(self) -> List[Tuple[str, str]]:
        return sorted(self._groups)

    def candidates(self, src: str, dst: str) -> List[int]:
        """Indices of candidate paths from *src* to *dst* (empty if none)."""
        return list(self._groups.get((src, dst), []))

    def path_at(self, index: int) -> Path:
        """The path object behind a candidate index."""
        return self._paths[index]

    def route(self, flow: FlowKey) -> Optional[Path]:
        """Pick the path this flow's packets will take, or ``None`` if unknown pair."""
        index = self.route_index(flow)
        return None if index is None else self._paths[index]

    def route_index(self, flow: FlowKey) -> Optional[int]:
        src, dst, sport, dport, protocol = flow
        group = self._groups.get((src, dst))
        if not group:
            return None
        digest = zlib.crc32(
            f"{self._seed}|{src}|{dst}|{sport}|{dport}|{protocol}".encode("utf-8")
        )
        return group[digest % len(group)]

    def spread(self, src: str, dst: str, flows: Sequence[FlowKey]) -> Dict[int, int]:
        """How many of the given flows hash onto each candidate path.

        Useful to quantify the ECMP dilution effect: with ``f`` flows and
        ``p`` parallel paths, a single bad path only carries about ``f/p`` of
        the probes.
        """
        counts: Dict[int, int] = {}
        for flow in flows:
            if flow[0] != src or flow[1] != dst:
                raise ValueError("flow endpoints do not match the requested pair")
            index = self.route_index(flow)
            if index is not None:
                counts[index] = counts.get(index, 0) + 1
        return counts
