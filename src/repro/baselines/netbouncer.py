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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.incidence import IncidenceIndex, first_max
from ..routing import PathTable
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
        if probes_per_path < 1:
            raise ValueError("probes_per_path must be >= 1")
        self._simulator = simulator
        self._probes_per_path = probes_per_path
        self._hit_ratio_threshold = hit_ratio_threshold
        self._max_probes = max_probes

    def localize(self, rows_by_pair: Dict[Tuple[str, str], Sequence[int]]) -> NetbouncerResult:
        """Probe all candidate paths of every suspected pair and blame links.

        Parameters
        ----------
        rows_by_pair:
            For every suspected (src, dst) pair, the rows of the simulator's
            primed table holding the parallel paths between them (the paths
            Pingmesh's probes may have taken).  When a probe budget was
            configured, probing stops as soon as it is exhausted -- remaining
            paths simply go untested.

        The rows are probed in one
        :meth:`~repro.simulation.ProbeSimulator.probe_rows` call, pair by pair
        and row by row, without re-priming.
        """
        probes_per_path = self._probes_per_path
        rows = np.array(
            [row for pair_rows in rows_by_pair.values() for row in pair_rows], dtype=np.int64
        )
        if self._max_probes is not None:
            # The budget counts probes, not outcomes: a path goes out while
            # fewer than ``max_probes`` probes went out before it.
            rows = rows[: -(-self._max_probes // probes_per_path)]
        _, lost = self._simulator.probe_rows(
            rows,
            np.full(len(rows), probes_per_path),
            [ProbeConfig(probes_per_path=probes_per_path)],
            np.zeros(len(rows)),
            [0],
        )
        lossy = lost > 0
        return NetbouncerResult(
            suspected_links=self._explain(
                self._simulator.primed_paths, rows[lossy], rows[~lossy]
            ),
            probes_sent=probes_per_path * len(rows),
            probed_paths=len(rows),
        )

    @staticmethod
    def _explain(table: PathTable, lossy_rows: np.ndarray, healthy_rows: np.ndarray) -> List[int]:
        """Greedy explanation of the lossy rows over a CSR incidence index.

        Links that carried a completely clean pinned path are excluded from
        the universe (full-loss reasoning, as Netbouncer's link-health solving
        would conclude for them); the remaining lossy-path x link incidence is
        the same set-cover structure PMC and PLL run on, so the per-link
        coverage counters come from the shared vectorized kernel.
        """
        if not len(lossy_rows):
            return []
        indptr, links = table.take(lossy_rows).link_rows()
        healthy_links = table.take(healthy_rows).link_rows()[1]
        universe = np.setdiff1d(links, healthy_links).tolist()
        index = IncidenceIndex.from_rows(indptr, links, universe)
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
