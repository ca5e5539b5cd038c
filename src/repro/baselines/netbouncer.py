"""Netbouncer: the post-alarm localization tool used with Pingmesh (§6.2).

When Pingmesh reports a suspected server pair, Netbouncer replays the problem
by probing *every* parallel path between the pair with explicit path control,
then infers which links are faulty from the per-path loss pattern.  The
inference here follows the published idea (solve for per-link health from
path-pinned measurements) with the same greedy machinery as Tomo: links whose
pinned paths are all healthy are exonerated, remaining lossy paths are
explained by the fewest links possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.incidence import IncidenceIndex, first_max
from ..routing import Path
from ..simulation import ProbeConfig, ProbeSimulator

__all__ = ["NetbouncerResult", "Netbouncer"]


@dataclass
class NetbouncerResult:
    """Links blamed by Netbouncer plus the probing cost of the extra round."""

    suspected_links: List[int]
    probes_sent: int
    probed_paths: int


class Netbouncer:
    """Path-pinned replay localization for suspected pairs."""

    def __init__(
        self,
        simulator: ProbeSimulator,
        probes_per_path: int = 20,
        hit_ratio_threshold: float = 0.99,
        max_probes: Optional[int] = None,
    ):
        self._simulator = simulator
        self._probes_per_path = probes_per_path
        self._hit_ratio_threshold = hit_ratio_threshold
        self._max_probes = max_probes

    def localize(
        self, candidate_paths_by_pair: Dict[Tuple[str, str], Sequence[Path]]
    ) -> NetbouncerResult:
        """Probe all candidate paths of every suspected pair and blame links.

        Parameters
        ----------
        candidate_paths_by_pair:
            For every suspected (src, dst) pair, the parallel paths between
            them (the paths Pingmesh's probes may have taken).  When a probe
            budget was configured, probing stops as soon as it is exhausted --
            remaining paths simply go untested.

        The probed paths are primed on the simulator and probed in one
        :meth:`~repro.simulation.ProbeSimulator.probe_rows` call, pair by
        pair and path by path.
        """
        probes_per_path = self._probes_per_path
        paths = [path for pair_paths in candidate_paths_by_pair.values() for path in pair_paths]
        if self._max_probes is not None:
            # The budget counts probes, not outcomes: a path goes out while
            # fewer than ``max_probes`` probes went out before it.
            paths = paths[: -(-self._max_probes // probes_per_path)]
        self._simulator.prime_paths(paths)
        _, lost = self._simulator.probe_rows(
            np.arange(len(paths)),
            np.full(len(paths), probes_per_path),
            [ProbeConfig(probes_per_path=probes_per_path)],
            np.zeros(len(paths)),
            [0],
        )
        lossy_paths = [path for path, lossy in zip(paths, lost.tolist()) if lossy]
        healthy_links = {
            link for path, lossy in zip(paths, lost.tolist()) if not lossy for link in path.link_ids
        }
        return NetbouncerResult(
            suspected_links=self._explain(lossy_paths, healthy_links),
            probes_sent=probes_per_path * len(paths),
            probed_paths=len(paths),
        )

    @staticmethod
    def _explain(lossy_paths: Sequence[Path], healthy_links: Set[int]) -> List[int]:
        """Greedy explanation of the lossy paths over a CSR incidence index.

        Links that carried a completely clean pinned path are excluded from
        the universe (full-loss reasoning, as Netbouncer's link-health solving
        would conclude for them); the remaining lossy-path x link incidence is
        the same set-cover structure PMC and PLL run on, so the per-link
        coverage counters come from the shared vectorized kernel.
        """
        if not lossy_paths:
            return []
        universe = sorted(
            {link for path in lossy_paths for link in path.link_ids} - healthy_links
        )
        index = IncidenceIndex([path.link_ids for path in lossy_paths], universe)
        unexplained = np.ones(index.num_paths, dtype=bool)
        remaining = index.num_paths

        suspected: List[int] = []
        while remaining:
            counts = index.masked_col_counts(unexplained)
            # First-maximum over the ascending universe keeps the seed
            # tie-break: the smallest link id among maximal coverers wins.
            best_col, best_count = first_max(counts)
            if best_count <= 0:
                break
            suspected.append(index.link_ids[best_col])
            rows = index.col_rows(best_col)
            covered = rows[unexplained[rows]]
            unexplained[covered] = False
            remaining -= len(covered)
        return suspected
