"""The object-form window close: the reference the columnar close is held to.

:class:`repro.localization.ObservationSet` stores a window as three sorted
int64 columns, and pre-processing and PLL read those columns directly.  This
module keeps the same steps in their obvious form -- one
:class:`~repro.localization.PathObservation` per observed path in a dict,
pre-processing that walks them one ``probe_matrix.path(i)`` at a time, and
PLL's step-2 gather read back from the objects -- so a test can run one
window's counters through both and compare every output:

* :func:`object_from_counters` -- ``ObservationSet.from_counters``;
* :func:`object_preprocess` -- ``preprocess_observations``, with its own
  scalar noise rule;
* :func:`object_localize` -- ``PLLLocalizer.localize`` (a drop-in for the
  method: it reuses the product's component split and greedy, steps 1 and
  3-5, and owns the gather of step 2 and the loss-rate estimate).

Patching the last two into :mod:`repro.monitor.diagnoser` and feeding
``Diagnoser.diagnose`` an :class:`ObjectObservationSet` gives the whole
object-form diagnosis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.localization import (
    LocalizationResult,
    PathObservation,
    PreprocessConfig,
    PreprocessReport,
)


class ObjectObservationSet:
    """Per-path observations in a dict keyed by path index."""

    def __init__(self, observations: Iterable[PathObservation] = ()):
        self._by_path: Dict[int, PathObservation] = {}
        for obs in observations:
            self.add(obs)

    def add(self, observation: PathObservation) -> None:
        existing = self._by_path.get(observation.path_index)
        if existing is None:
            self._by_path[observation.path_index] = observation
        else:
            self._by_path[observation.path_index] = PathObservation(
                path_index=observation.path_index,
                sent=existing.sent + observation.sent,
                lost=existing.lost + observation.lost,
            )

    def __len__(self) -> int:
        return len(self._by_path)

    def __iter__(self):
        return iter(sorted(self._by_path.values(), key=lambda o: o.path_index))

    def __contains__(self, path_index: int) -> bool:
        return path_index in self._by_path

    def get(self, path_index: int) -> Optional[PathObservation]:
        return self._by_path.get(path_index)

    def path_indices(self) -> List[int]:
        return sorted(self._by_path)

    def lossy_paths(self) -> List[int]:
        return sorted(i for i, obs in self._by_path.items() if obs.is_lossy)

    def losses(self) -> Dict[int, int]:
        return {i: obs.lost for i, obs in self._by_path.items() if obs.is_lossy}

    def total_sent(self) -> int:
        return sum(obs.sent for obs in self._by_path.values())


def object_from_counters(sent: Sequence[int], lost: Sequence[int]) -> ObjectObservationSet:
    """One observation per path with probes sent, built in a loop over paths."""
    if len(sent) != len(lost):
        raise ValueError("sent and lost counter vectors must have equal length")
    observations = ObjectObservationSet()
    for index, count in enumerate(sent):
        if count:
            observations.add(
                PathObservation(path_index=index, sent=int(count), lost=int(lost[index]))
            )
    return observations


def object_preprocess(
    probe_matrix,
    observations,
    config: Optional[PreprocessConfig] = None,
    unhealthy_servers: Iterable[str] = (),
) -> PreprocessReport:
    """§5.1 pre-processing, one observation and one path object at a time."""
    config = config or PreprocessConfig()
    unhealthy = set(unhealthy_servers)
    cleaned = ObjectObservationSet()
    dropped: List[int] = []
    filtered: List[int] = []
    for obs in observations:
        path = probe_matrix.path(obs.path_index)
        if path.src in unhealthy or path.dst in unhealthy:
            dropped.append(obs.path_index)
            continue
        if obs.is_lossy and not _object_path_is_lossy(config, obs):
            filtered.append(obs.path_index)
            cleaned.add(PathObservation(path_index=obs.path_index, sent=obs.sent, lost=0))
            continue
        cleaned.add(obs)
    return PreprocessReport(
        observations=cleaned, dropped_outlier_paths=dropped, filtered_noise_paths=filtered
    )


def _object_path_is_lossy(config: PreprocessConfig, observation: PathObservation) -> bool:
    """The noise rule, one observation at a time."""
    if observation.lost == 0:
        return False
    if config.min_losses is not None and observation.lost >= config.min_losses:
        return True
    if observation.sent >= config.min_probes_for_ratio:
        return observation.loss_rate >= config.loss_ratio_threshold
    return False


def object_localize(localizer, probe_matrix, observations) -> LocalizationResult:
    """``PLLLocalizer.localize`` with the step-2 gather read from the objects."""
    config = localizer.config
    observed_paths = observations.path_indices()
    losses = observations.losses()
    lossy_paths = set(losses)
    suspected: List[int] = []
    unexplained: Set[int] = set()
    if lossy_paths:
        index = probe_matrix.incidence
        observed_mask = np.zeros(index.num_paths, dtype=bool)
        observed_mask[observed_paths] = True
        lossy_mask = np.zeros(index.num_paths, dtype=bool)
        lossy_mask[sorted(lossy_paths)] = True
        for component_links, component_paths in localizer._components(
            probe_matrix, np.asarray(observed_paths, dtype=np.int64)
        ):
            if not lossy_paths.intersection(component_paths):
                continue
            picked, remaining = localizer._solve_component(
                index, component_links, component_paths, losses, lossy_mask, observed_mask
            )
            suspected.extend(picked)
            unexplained.update(remaining)
    estimates: Dict[int, float] = {}
    if config.estimate_loss_rates and suspected:
        estimates = _object_estimates(probe_matrix, observations, suspected)
    return LocalizationResult(
        suspected_links=suspected,
        estimated_loss_rates=estimates,
        unexplained_paths=sorted(unexplained),
        elapsed_seconds=0.0,
        algorithm=localizer.name,
    )


def _object_estimates(probe_matrix, observations, suspected) -> Dict[int, float]:
    suspect_set = set(suspected)
    samples: Dict[int, List[float]] = {link: [] for link in suspected}
    for obs in observations:
        if not obs.is_lossy:
            continue
        on_path = probe_matrix.links_on(obs.path_index) & suspect_set
        if len(on_path) == 1:
            (link,) = tuple(on_path)
            samples[link].append(obs.loss_rate)
    return {link: sum(values) / len(values) for link, values in samples.items() if values}
