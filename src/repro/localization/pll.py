"""PLL: the Packet Loss Localization algorithm of deTector (§5.3).

Given the probe matrix and the (pre-processed) per-path loss observations,
PLL finds a small set of links that best explains the lossy paths.  It is a
descendant of the Tomo greedy with two changes motivated by data-center loss
patterns:

* the probe matrix is decomposed into independent components first (same
  decomposition as PMC, Observation 1), so each component is solved on a tiny
  sub-matrix -- this is where the order-of-magnitude speed-up over Tomo/SCORE/
  OMP comes from, and
* links are pre-filtered by a *hit ratio* (fraction of the link's probe paths
  that are lossy) before the greedy, which copes with *partial* packet loss:
  a blackholed flow makes only a subset of the paths over the faulty link
  lossy, so requiring *all* paths to be lossy (as classical tomography does)
  would miss it, while accepting links with a single lossy path would flood
  the result with false positives.

Steps (numbered as in the paper):

1. decompose the probe matrix and solve each component separately;
2. drop links whose probe paths are all loss-free, compute each remaining
   link's hit ratio;
3. score every remaining link by the number of lost packets it can explain;
4. among links whose hit ratio exceeds the threshold, greedily pick the one
   with the highest score and mark its lossy paths as explained;
5. repeat 3-4 until every lossy path is explained (or no candidate remains).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import ProbeMatrix
from ..core.incidence import IncidenceIndex
from ..contracts import informational_wall
from .observations import LocalizationResult, ObservationSet

__all__ = ["PLLConfig", "PLLLocalizer"]


@dataclass(frozen=True)
class PLLConfig:
    """Tuning knobs of PLL.

    Attributes
    ----------
    hit_ratio_threshold:
        Minimum fraction of a link's probe paths that must be lossy for the
        link to be a candidate (0.6 by default, the value used in the paper's
        experiments).
    use_decomposition:
        Solve each connected component of the probe matrix separately
        (step 1).  Disabling it reproduces a "flat" greedy for ablations.
    explain_all:
        When ``True`` and some lossy paths remain unexplained after the
        thresholded greedy exhausts its candidates, fall back to picking the
        best-scoring link regardless of hit ratio until everything is
        explained.  The paper's PLL stops instead (the remaining losses are
        treated as noise); the fallback exists for ablation experiments.
    estimate_loss_rates:
        Attach a per-suspect loss-rate estimate to the result (§3.2: deTector
        "estimates the loss rates of suspected links").
    """

    hit_ratio_threshold: float = 0.6
    use_decomposition: bool = True
    explain_all: bool = False
    estimate_loss_rates: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.hit_ratio_threshold <= 1.0:
            raise ValueError("hit_ratio_threshold must lie in [0, 1]")


class PLLLocalizer:
    """Callable localizer implementing PLL."""

    name = "PLL"

    def __init__(self, config: Optional[PLLConfig] = None):
        self.config = config or PLLConfig()

    @informational_wall(
        "LocalizationResult.elapsed_seconds is informational (excluded from "
        "deterministic snapshots); accuracy gates use the verdict itself"
    )
    def localize(
        self, probe_matrix: ProbeMatrix, observations: ObservationSet
    ) -> LocalizationResult:
        """Run PLL and return the suspected links."""
        start = time.perf_counter()
        config = self.config

        # Step 2's inputs, gathered from the observation columns.
        observed_paths, sent, lost = observations.paths, observations.sent, observations.lost
        lossy_rows = np.flatnonzero(lost)
        lossy_list = observed_paths[lossy_rows].tolist()
        losses = dict(zip(lossy_list, lost[lossy_rows].tolist()))  # path -> lost
        lossy_paths = set(losses)

        suspected: List[int] = []
        unexplained: Set[int] = set()

        if lossy_paths:
            # Observed/lossy path masks shared by every component; per-link
            # counts are gathered component-locally so clean components cost
            # nothing (the decomposition is what makes PLL fast, §5.3).
            index = probe_matrix.incidence
            observed_mask = np.zeros(index.num_paths, dtype=bool)
            observed_mask[observed_paths] = True
            lossy_mask = np.zeros(index.num_paths, dtype=bool)
            lossy_mask[lossy_list] = True

            components = self._components(probe_matrix, observed_paths)
            for component_links, component_paths in components:
                component_lossy = lossy_paths.intersection(component_paths)
                if not component_lossy:
                    continue
                picked, remaining = self._solve_component(
                    index,
                    component_links,
                    component_paths,
                    losses,
                    lossy_mask,
                    observed_mask,
                )
                suspected.extend(picked)
                unexplained.update(remaining)

        estimates: Dict[int, float] = {}
        if config.estimate_loss_rates and suspected:
            estimates = self._estimate_loss_rates(
                probe_matrix, lossy_list, sent[lossy_rows].tolist(), losses, suspected
            )

        elapsed = time.perf_counter() - start
        return LocalizationResult(
            suspected_links=suspected,
            estimated_loss_rates=estimates,
            unexplained_paths=sorted(unexplained),
            elapsed_seconds=elapsed,
            algorithm=self.name,
        )

    # ------------------------------------------------------------------ steps
    def _components(
        self, probe_matrix: ProbeMatrix, observed_paths: np.ndarray
    ) -> List[Tuple[Sequence[int], Sequence[int]]]:
        """Step 1: split (links, paths) into independent components."""
        if not self.config.use_decomposition:
            return [(list(probe_matrix.link_ids), observed_paths.tolist())]
        return probe_matrix.incidence.components(observed_paths)

    def _solve_component(
        self,
        index: IncidenceIndex,
        component_links: Sequence[int],
        component_paths: Sequence[int],
        losses: Dict[int, int],
        lossy_mask,
        observed_mask,
    ) -> Tuple[List[int], Set[int]]:
        """Steps 2-5 for one component."""
        config = self.config

        # Step 2: keep only links with at least one lossy path; compute hit
        # ratios.  Counts are mask-gathers over the link's CSC column;
        # observed paths through a component link are exactly the component's
        # paths through it, so no per-component filtering is needed.
        candidates: Dict[int, List[int]] = {}
        hit_ratio: Dict[int, float] = {}
        for link in component_links:
            rows = index.col_rows(index.position(link))
            paths_here = int(np.count_nonzero(observed_mask[rows]))
            if not paths_here:
                continue
            lossy_here = rows[lossy_mask[rows]]
            if not len(lossy_here):
                continue  # all probe paths through this link are clean -> link is good
            candidates[link] = [int(p) for p in lossy_here]
            hit_ratio[link] = len(lossy_here) / paths_here

        unexplained: Set[int] = {p for p in component_paths if lossy_mask[p]}
        picked: List[int] = []

        def greedy(pool: Iterable[int]) -> None:
            pool = set(pool)
            while unexplained and pool:
                # Step 3: score = number of lost packets the link can explain.
                # Ties are broken by hit ratio: when a link and a "superset"
                # link on the same lossy paths explain the same losses, the
                # truly faulty link is the one whose healthy-path evidence is
                # weakest (highest hit ratio).
                best_link = None
                best_key = (0, -1.0)
                for link in sorted(pool):
                    score = sum(losses[p] for p in candidates[link] if p in unexplained)
                    key = (score, hit_ratio[link])
                    if key > best_key:
                        best_key = key
                        best_link = link
                if best_link is None or best_key[0] == 0:
                    break
                # Step 4: pick it and mark its lossy paths explained.
                picked.append(best_link)
                pool.discard(best_link)
                for path in candidates[best_link]:
                    unexplained.discard(path)

        # Step 4's threshold filter: only links with a high enough hit ratio.
        above_threshold = [
            link for link, ratio in hit_ratio.items() if ratio >= config.hit_ratio_threshold
        ]
        greedy(above_threshold)

        if unexplained and config.explain_all:
            greedy(set(candidates) - set(picked))

        return picked, unexplained

    # ------------------------------------------------------------- estimates
    @staticmethod
    def _estimate_loss_rates(
        probe_matrix: ProbeMatrix,
        lossy_paths: Sequence[int],
        sent: Sequence[int],
        losses: Dict[int, int],
        suspected: Sequence[int],
    ) -> Dict[int, float]:
        """Attribute each path's loss rate to the single suspect on it (if any).

        ``lossy_paths`` are the observed paths with losses, ascending, with
        their ``sent`` counts; ``losses`` maps each to its lost count.  A path that crosses exactly one
        suspected link gives a direct sample of that link's loss rate;
        averaging those samples is a simple, unbiased estimator when failures
        are sparse (the common case per the failure measurements cited in
        §6.4).  Paths crossing several suspects are skipped -- they only bound
        the combined rate.
        """
        suspect_set = set(suspected)
        samples: Dict[int, List[float]] = {link: [] for link in suspected}
        for path_index, path_sent in zip(lossy_paths, sent):
            on_path = probe_matrix.links_on(path_index) & suspect_set
            if len(on_path) == 1:
                (link,) = tuple(on_path)
                samples[link].append(losses[path_index] / path_sent)
        estimates: Dict[int, float] = {}
        for link, values in samples.items():
            if values:
                estimates[link] = sum(values) / len(values)
        return estimates
