"""Tomo: the NetDiagnoser greedy (Dhamdhere et al., CoNEXT 2007).

Baseline for PLL.  Tomo assumes the classical binary-tomography loss model:
a path is lossy if and only if it crosses at least one faulty link.  Under
that assumption any link that appears on a loss-free path must be good, so

1. links on at least one loss-free observed path are removed from the
   candidate set, and
2. the smallest explaining set is approximated greedily: repeatedly pick the
   candidate link that covers the largest number of still-unexplained lossy
   paths.

The full-loss assumption is exactly what breaks under data-center *partial*
losses (packet blackholes): the faulty link also carries healthy paths, gets
pruned in step 1, and the losses end up attributed to innocent links -- the
behaviour PLL's hit-ratio filter was designed to fix (§5.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from ..core import ProbeMatrix
from ..contracts import informational_wall
from .observations import LocalizationResult, ObservationSet

__all__ = ["TomoConfig", "TomoLocalizer"]


@dataclass(frozen=True)
class TomoConfig:
    """Tuning knobs of the Tomo baseline.

    Attributes
    ----------
    prune_on_good_paths:
        Apply the classical "a link on a loss-free path is good" pruning.
        Disabling it yields a plain greedy set cover over all links on lossy
        paths (used by ablation experiments).
    """

    prune_on_good_paths: bool = True


class TomoLocalizer:
    """Callable localizer implementing the Tomo greedy."""

    name = "Tomo"

    def __init__(self, config: Optional[TomoConfig] = None):
        self.config = config or TomoConfig()

    @informational_wall(
        "LocalizationResult.elapsed_seconds is informational (excluded from "
        "deterministic snapshots); accuracy gates use the verdict itself"
    )
    def localize(
        self, probe_matrix: ProbeMatrix, observations: ObservationSet
    ) -> LocalizationResult:
        start = time.perf_counter()

        lossy_paths: Set[int] = set(observations.lossy_paths())
        good_paths: Set[int] = {
            obs.path_index for obs in observations if not obs.is_lossy
        }

        # Candidate links and the lossy paths each can explain.
        candidates: Dict[int, Set[int]] = {}
        for path in lossy_paths:
            for link in probe_matrix.links_on(path):
                candidates.setdefault(link, set()).add(path)

        if self.config.prune_on_good_paths:
            # One vectorized pass: a link with any loss-free observed path is
            # exonerated under the full-loss assumption.
            index = probe_matrix.incidence
            good_mask = np.zeros(index.num_paths, dtype=bool)
            good_mask[sorted(good_paths)] = True
            good_counts = index.masked_col_counts(good_mask)
            candidates = {
                link: covered
                for link, covered in candidates.items()
                if not good_counts[index.position(link)]
            }

        unexplained = set(lossy_paths)
        suspected: List[int] = []
        pool = set(candidates)
        while unexplained and pool:
            best_link = None
            best_cover = 0
            for link in sorted(pool):
                cover = len(candidates[link] & unexplained)
                if cover > best_cover:
                    best_cover = cover
                    best_link = link
            if best_link is None or best_cover == 0:
                break
            suspected.append(best_link)
            pool.discard(best_link)
            unexplained -= candidates[best_link]

        elapsed = time.perf_counter() - start
        return LocalizationResult(
            suspected_links=suspected,
            estimated_loss_rates={},
            unexplained_paths=sorted(unexplained),
            elapsed_seconds=elapsed,
            algorithm=self.name,
        )
