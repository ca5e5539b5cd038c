"""SCORE: risk-model greedy localization (Kompella et al., NSDI 2005).

SCORE treats each link as a *risk group*: the set of paths that would be
affected if the link failed.  It greedily picks risk groups ordered by *hit
ratio* (fraction of the group's paths that are actually lossy), breaking ties
by *coverage* (how many unexplained lossy paths the group explains), until all
lossy paths are explained.  The classical formulation only admits groups whose
hit ratio reaches 1.0 -- appropriate for the full-loss failures it was
designed for, and the reason it underperforms PLL on partial losses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core import ProbeMatrix
from ..contracts import informational_wall
from .observations import LocalizationResult, ObservationSet

__all__ = ["ScoreConfig", "ScoreLocalizer"]


@dataclass(frozen=True)
class ScoreConfig:
    """Tuning knobs of the SCORE baseline.

    Attributes
    ----------
    hit_ratio_threshold:
        Minimum hit ratio a risk group needs to be selectable.  1.0 is the
        classical SCORE; lowering it ("error threshold" in the original
        paper) trades false negatives for false positives.
    """

    hit_ratio_threshold: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hit_ratio_threshold <= 1.0:
            raise ValueError("hit_ratio_threshold must lie in (0, 1]")


class ScoreLocalizer:
    """Callable localizer implementing SCORE."""

    name = "SCORE"

    def __init__(self, config: Optional[ScoreConfig] = None):
        self.config = config or ScoreConfig()

    @informational_wall(
        "LocalizationResult.elapsed_seconds is informational (excluded from "
        "deterministic snapshots); accuracy gates use the verdict itself"
    )
    def localize(
        self, probe_matrix: ProbeMatrix, observations: ObservationSet
    ) -> LocalizationResult:
        start = time.perf_counter()

        observed = observations.path_indices()
        lossy_paths: Set[int] = set(observations.lossy_paths())

        # Risk groups restricted to observed paths, gathered off the CSC
        # columns through an observed-path mask.
        index = probe_matrix.incidence
        observed_mask = np.zeros(index.num_paths, dtype=bool)
        observed_mask[observed] = True
        group: Dict[int, Set[int]] = {}
        lossy_in_group: Dict[int, Set[int]] = {}
        for path in lossy_paths:
            for link in probe_matrix.links_on(path):
                if link not in group:
                    rows = index.col_rows(index.position(link))
                    members = set(rows[observed_mask[rows]].tolist())
                    group[link] = members
                    lossy_in_group[link] = members & lossy_paths

        unexplained = set(lossy_paths)
        suspected: List[int] = []
        pool = set(group)
        threshold = self.config.hit_ratio_threshold
        while unexplained and pool:
            best: Optional[Tuple[float, int, int]] = None  # (hit ratio, coverage, link)
            for link in sorted(pool):
                members = group[link]
                if not members:
                    continue
                hit_ratio = len(lossy_in_group[link]) / len(members)
                if hit_ratio < threshold:
                    continue
                coverage = len(lossy_in_group[link] & unexplained)
                if coverage == 0:
                    continue
                key = (hit_ratio, coverage, -link)
                if best is None or key > (best[0], best[1], -best[2]):
                    best = (hit_ratio, coverage, link)
            if best is None:
                break
            _, _, link = best
            suspected.append(link)
            pool.discard(link)
            unexplained -= lossy_in_group[link]

        elapsed = time.perf_counter() - start
        return LocalizationResult(
            suspected_links=suspected,
            estimated_loss_rates={},
            unexplained_paths=sorted(unexplained),
            elapsed_seconds=elapsed,
            algorithm=self.name,
        )
