"""The diagnoser (§3.1): aggregates pinger reports and runs PLL.

Every 30 seconds the diagnoser takes the merge of the reports received from
all pingers, pre-processes it (outlier removal, noise filtering), runs the PLL algorithm
and emits alerts naming the suspected links together with estimated loss
rates.  Reports are also kept in a small in-memory log ("database" in the
paper) so operators can query past windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core import ProbeMatrix
from ..localization import (
    LocalizationResult,
    LossPatternClassifier,
    ObservationSet,
    PLLConfig,
    PLLLocalizer,
    PreprocessConfig,
    preprocess_observations,
)
from ..topology import Topology
from .watchdog import Watchdog

__all__ = ["Alert", "DiagnosisReport", "Diagnoser"]


@dataclass(frozen=True)
class Alert:
    """One suspected faulty link, as surfaced to the network operator."""

    link_id: int
    endpoints: Tuple[str, str]
    estimated_loss_rate: Optional[float]
    window_index: int
    loss_pattern: Optional[str] = None
    diagnosis_hint: Optional[str] = None

    def describe(self) -> str:
        rate = (
            f"~{self.estimated_loss_rate:.2%} loss"
            if self.estimated_loss_rate is not None
            else "loss rate unknown"
        )
        text = f"link {self.endpoints[0]} <-> {self.endpoints[1]} ({rate})"
        if self.loss_pattern is not None:
            text += f" [{self.loss_pattern}]"
        return text


@dataclass
class DiagnosisReport:
    """Outcome of one diagnosis window."""

    window_index: int
    localization: LocalizationResult
    alerts: List[Alert]
    lossy_paths: List[int]
    probes_analyzed: int

    @property
    def suspected_links(self) -> List[int]:
        return list(self.localization.suspected_links)


class Diagnoser:
    """Aggregates pinger reports and localizes losses with PLL."""

    def __init__(
        self,
        topology: Topology,
        probe_matrix: ProbeMatrix,
        pll_config: Optional[PLLConfig] = None,
        preprocess_config: Optional[PreprocessConfig] = None,
        watchdog: Optional[Watchdog] = None,
        classify_loss_patterns: bool = True,
    ):
        self.topology = topology
        self.probe_matrix = probe_matrix
        self._localizer = PLLLocalizer(pll_config)
        self._preprocess_config = preprocess_config or PreprocessConfig()
        self._watchdog = watchdog or Watchdog(topology)
        self._classifier = LossPatternClassifier() if classify_loss_patterns else None
        self._window_index = 0
        self.history: List[DiagnosisReport] = []

    # ------------------------------------------------------------- diagnosis
    def update_probe_matrix(self, probe_matrix: ProbeMatrix) -> None:
        """Install the probe matrix of a new controller cycle."""
        self.probe_matrix = probe_matrix

    def diagnose(
        self, merged: ObservationSet, probes_analyzed: Optional[int] = None
    ) -> DiagnosisReport:
        """Run pre-processing and PLL over one window's merged observations.

        The telemetry engine's stream aggregator folds timestamped probe
        batches into this merged per-path view; ``DetectorSystem.run_window``
        passes the merge of its pinger reports.  Pre-processing and
        PLL run as passes over the observation columns; ``PathObservation``
        objects are built only for the loss-pattern classifier, on the paths
        through the suspects.
        """
        probes_analyzed = merged.total_sent() if probes_analyzed is None else probes_analyzed
        preprocess = preprocess_observations(
            self.probe_matrix,
            merged,
            config=self._preprocess_config,
            unhealthy_servers=self._watchdog.unhealthy_servers,
        )
        localization = self._localizer.localize(self.probe_matrix, preprocess.observations)

        diagnoses = {}
        if self._classifier is not None and localization.suspected_links:
            diagnoses = {
                diagnosis.link_id: diagnosis
                for diagnosis in self._classifier.diagnose(
                    self.probe_matrix, preprocess.observations, localization.suspected_links
                )
            }

        alerts = []
        for link_id in localization.suspected_links:
            link = self.topology.link(link_id)
            diagnosis = diagnoses.get(link_id)
            alerts.append(
                Alert(
                    link_id=link_id,
                    endpoints=(link.a, link.b),
                    estimated_loss_rate=localization.estimated_loss_rates.get(link_id),
                    window_index=self._window_index,
                    loss_pattern=diagnosis.pattern.value if diagnosis else None,
                    diagnosis_hint=diagnosis.hint if diagnosis else None,
                )
            )

        report = DiagnosisReport(
            window_index=self._window_index,
            localization=localization,
            alerts=alerts,
            lossy_paths=preprocess.lossy_paths,
            probes_analyzed=probes_analyzed,
        )
        self.history.append(report)
        self._window_index += 1
        return report
