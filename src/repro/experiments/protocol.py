"""The §6.3 evaluation protocol: one trial loop for every localization experiment.

Every accuracy experiment of the paper follows one protocol: draw failure
scenarios, let each system monitor them, and score the links it suspects
against the links that failed.  This module holds that loop once:

* a **system adapter** -- :meth:`System.run` monitors one scenario and
  returns the suspected links and the probes sent; :meth:`System.score`
  applies the system's own scoring rule.  :class:`Detector` wraps
  :class:`~repro.monitor.DetectorSystem`, :class:`Baseline` an ECMP baseline
  and :class:`StaticLocalizer` a localizer over a fixed probe matrix;
* :func:`evaluate` -- walks the scenarios one by one, every system running
  scenario *i* before scenario *i + 1* is drawn;
* :func:`add_row` -- turns a :class:`Summary` into a table row.

The scenario source is an explicit argument, so every random draw happens
where the harness makes it.  :func:`draw` is lazy: a scenario is drawn just
before the systems run it, on whatever stream the harness hands its
generator (the probes' own stream, in all but Figure 6, which pre-draws its
scenarios from a dedicated stream and replays them for every system).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..localization import (
    ConfusionCounts,
    ObservationSet,
    aggregate_metrics,
    evaluate_localization,
    preprocess_observations,
)
from ..simulation import FailureGenerator, FailureScenario, ProbeConfig, ProbeSimulator
from .common import ExperimentTable

__all__ = [
    "System",
    "Detector",
    "Baseline",
    "MatrixObserver",
    "StaticLocalizer",
    "Summary",
    "draw",
    "evaluate",
    "add_row",
]


class System:
    """One evaluated system: monitor a scenario, then score what it suspected."""

    links: Sequence[int]  # the link universe the system is scored against

    def run(self, scenario: FailureScenario) -> Tuple[Sequence[int], int]:
        """Monitor one window of ``scenario``: (suspected links, probes sent)."""
        raise NotImplementedError

    def score(self, scenario: FailureScenario, suspected: Sequence[int]) -> ConfusionCounts:
        """Every failed link against :attr:`links`."""
        return evaluate_localization(scenario.bad_link_ids, suspected, self.links)


class Detector(System):
    """deTector: one ``DetectorSystem.run_window`` per scenario."""

    def __init__(self, system):
        self.system = system

    def run(self, scenario):
        outcome = self.system.run_window(scenario)
        self._metrics = outcome.metrics
        return outcome.suspected_links, outcome.probes_sent

    def score(self, scenario, suspected):
        # run_window scores its own window: the failed links its probe
        # matrix can observe, against that matrix's links.
        return self._metrics


class Baseline(System):
    """An ECMP baseline (Pingmesh or NetNORAD), scored against every switch link.

    :attr:`delays` keeps each window's time to localization.
    """

    def __init__(self, baseline):
        self.baseline = baseline
        self.links = [link.link_id for link in baseline.topology.switch_links]
        self.delays: List[float] = []

    def run(self, scenario):
        outcome = self.baseline.run_window(scenario)
        self.delays.append(outcome.time_to_localization_seconds)
        return outcome.suspected_links, outcome.total_probes


class MatrixObserver:
    """Probes every path of a fixed probe matrix once per scenario.

    Each scenario gets a fresh simulator on the shared ``rng``; the cleaned
    observations are kept until the next scenario, so every localizer reading
    this observer sees one observation set per scenario.
    """

    def __init__(self, topology, probe_matrix, rng, probes_per_path: int):
        self.topology = topology
        self.probe_matrix = probe_matrix
        self.rng = rng
        self.config = ProbeConfig(probes_per_path=probes_per_path)
        self._last: tuple = (None,)  # (scenario, cleaned observations, probes sent)

    def observe(self, scenario: FailureScenario) -> Tuple[ObservationSet, int]:
        """The cleaned observations of ``scenario`` and the probes sent."""
        if self._last[0] is not scenario:
            simulator = ProbeSimulator(self.topology, scenario, self.rng)
            observations = simulator.observe_probe_matrix(self.probe_matrix, self.config)
            self._last = (
                scenario,
                preprocess_observations(self.probe_matrix, observations).observations,
                int(observations.sent.sum()),
            )
        return self._last[1:]


class StaticLocalizer(System):
    """A localizer (PLL, Tomo, SCORE or OMP) over an observer's probe matrix.

    Scored against the matrix's links; :attr:`runtimes` keeps each verdict's
    wall time.
    """

    def __init__(self, localizer, observer: MatrixObserver):
        self.localizer = localizer
        self.observer = observer
        self.links = observer.probe_matrix.link_ids
        self.runtimes: List[float] = []

    def run(self, scenario):
        observations, probes = self.observer.observe(scenario)
        verdict = self.localizer.localize(self.observer.probe_matrix, observations)
        self.runtimes.append(verdict.elapsed_seconds)
        return verdict.suspected_links, probes


class Summary(NamedTuple):
    """One system's confusion counts and probes sent, one entry per scenario."""

    counts: List[ConfusionCounts]
    probes: List[int]

    def percentages(self) -> Dict[str, float]:
        aggregated = aggregate_metrics(self.counts)
        return {
            "accuracy_pct": 100.0 * aggregated["accuracy"],
            "false_positive_pct": 100.0 * aggregated["false_positive_ratio"],
            "false_negative_pct": 100.0 * aggregated["false_negative_ratio"],
        }


def draw(generator: FailureGenerator, count: int, trials: int) -> Iterator[FailureScenario]:
    """``trials`` scenarios of ``count`` failed links, each drawn when first read."""
    return (generator.generate(count) for _ in range(trials))


def evaluate(systems: Sequence[System], scenarios: Iterable[FailureScenario]) -> List[Summary]:
    """Run and score every system on every scenario, scenario by scenario."""
    summaries = [Summary([], []) for _ in systems]
    for scenario in scenarios:
        for system, summary in zip(systems, summaries):
            suspected, probes = system.run(scenario)
            summary.counts.append(system.score(scenario, suspected))
            summary.probes.append(probes)
    return summaries


def add_row(table: ExperimentTable, summary: Summary, **labels: object) -> None:
    """Append ``labels`` plus the summary's metrics, in the table's column order.

    ``probes_per_minute`` is the mean probes per 30-second window times two.
    """
    values = {**labels, **summary.percentages()}
    if "probes_per_minute" in table.columns:
        values["probes_per_minute"] = float(np.mean(summary.probes)) * 2.0
    table.rows.append({column: values[column] for column in table.columns if column in values})
