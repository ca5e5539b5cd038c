"""Observation pre-processing: outlier removal and noise filtering (§5.1).

Two classes of observations must be removed before localization:

* **Outliers** caused by bad pingers/responders (server down or rebooting
  while probing): every path sourced at or targeted to an unhealthy server is
  dropped.  Server health comes from the watchdog service.
* **Normal-case noise**: links exhibit a benign background loss rate (1e-4 to
  1e-5) due to transient congestion and bit errors.  Paths whose loss rate
  (or absolute loss count) stays under a threshold are treated as healthy;
  the paper uses a 1e-3 loss-ratio threshold following Pingmesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from ..core import ProbeMatrix
from .observations import ObservationSet, PathObservation

__all__ = ["PreprocessConfig", "PreprocessReport", "preprocess_observations"]


@dataclass(frozen=True)
class PreprocessConfig:
    """Thresholds controlling which observations survive pre-processing.

    Attributes
    ----------
    loss_ratio_threshold:
        Minimum per-path loss ratio for the path to be considered lossy
        (default 1e-3, the Pingmesh value quoted in §5.1).
    min_losses:
        Alternative absolute threshold: a path with at least this many lost
        probes is kept even if its ratio is below ``loss_ratio_threshold``
        (useful for short windows with few probes).  Set to ``None`` to rely
        on the ratio alone.
    min_probes_for_ratio:
        A path needs at least this many probes before its loss *ratio* is
        meaningful; below it only the absolute ``min_losses`` test applies.
    """

    loss_ratio_threshold: float = 1e-3
    min_losses: Optional[int] = 3
    min_probes_for_ratio: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_ratio_threshold <= 1.0:
            raise ValueError("loss_ratio_threshold must lie in [0, 1]")
        if self.min_losses is not None and self.min_losses < 1:
            raise ValueError("min_losses must be >= 1 when given")
        if self.min_probes_for_ratio < 1:
            raise ValueError("min_probes_for_ratio must be >= 1")

    def path_is_lossy(self, observation: PathObservation) -> bool:
        """Decide whether an observation indicates a genuine failure."""
        return bool(self.genuine_loss(observation.sent, observation.lost))

    def genuine_loss(self, sent, lost):
        """:meth:`path_is_lossy`, elementwise over ``sent`` / ``lost`` columns."""
        sent = np.asarray(sent, dtype=np.int64)
        lost = np.asarray(lost, dtype=np.int64)
        genuine = np.zeros(lost.shape, dtype=bool)
        if self.min_losses is not None:
            genuine |= lost >= self.min_losses
        by_ratio = (lost > 0) & (sent >= self.min_probes_for_ratio)
        genuine[by_ratio] |= lost[by_ratio] / sent[by_ratio] >= self.loss_ratio_threshold
        return genuine


@dataclass
class PreprocessReport:
    """What pre-processing kept and what it removed."""

    observations: ObservationSet
    dropped_outlier_paths: List[int] = field(default_factory=list)
    filtered_noise_paths: List[int] = field(default_factory=list)

    @property
    def lossy_paths(self) -> List[int]:
        return self.observations.lossy_paths()


def preprocess_observations(
    probe_matrix: ProbeMatrix,
    observations: ObservationSet,
    config: Optional[PreprocessConfig] = None,
    unhealthy_servers: Iterable[str] = (),
) -> PreprocessReport:
    """Apply §5.1 pre-processing and return the cleaned observation set.

    Runs as array passes over the observation columns: the noise rule
    (:meth:`PreprocessConfig.genuine_loss`) elementwise, and the outlier drop
    -- a row mask from the probe table's endpoint columns -- only when
    ``unhealthy_servers`` names someone.  Dropped and filtered paths are
    reported in ascending path order.

    Parameters
    ----------
    probe_matrix:
        Needed to map paths to their endpoints for outlier removal.
    observations:
        Raw merged observations of one aggregation window.
    config:
        Thresholds; defaults to :class:`PreprocessConfig`.
    unhealthy_servers:
        Endpoints flagged by the watchdog (pingers or responders that were
        down / rebooting during the window).  Paths touching them are removed
        wholesale -- their losses say nothing about the network.
    """
    config = config or PreprocessConfig()
    unhealthy = set(unhealthy_servers)
    paths, sent, lost = observations.paths, observations.sent, observations.lost
    dropped = np.zeros(len(paths), dtype=bool)
    if unhealthy:
        dropped = probe_matrix.paths.rows_with_endpoint(unhealthy)[paths]
    # Background noise: the path stays, its losses zeroed, so it counts as
    # evidence of health exactly like a lossless path.
    noise = ~dropped & (lost > 0) & ~config.genuine_loss(sent, lost)
    kept = ~dropped
    return PreprocessReport(
        observations=ObservationSet.from_columns(
            paths[kept], sent[kept], np.where(noise, 0, lost)[kept]
        ),
        dropped_outlier_paths=paths[dropped].tolist(),
        filtered_noise_paths=paths[noise].tolist(),
    )
