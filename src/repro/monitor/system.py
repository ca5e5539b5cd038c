"""End-to-end deTector system: the testbed-in-a-box used by examples and experiments.

:class:`DetectorSystem` wires the four components (controller, pingers,
responders, diagnoser) around the probing simulator.  One call to
:meth:`DetectorSystem.run_window` reproduces a full §3.2 cycle slice:

* the controller's current probe matrix defines the pinglists,
* every pinger probes its paths against the injected failure scenario, all
  pingers' probes in one call of the simulator's bulk kernel,
* the diagnoser merges the reports, runs PLL and produces alerts.

Controller cycles come in two modes (see
:meth:`DetectorSystem.run_controller_cycle`): the paper's full rebuild and
the churn-aware incremental cycle that consumes watchdog deltas.

Experiments evaluate the alerts against the scenario's ground truth with
:func:`repro.localization.evaluate_localization`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core import ProbeMatrix
from ..localization import (
    ConfusionCounts,
    PLLConfig,
    PreprocessConfig,
    evaluate_localization,
    merge_observations,
)
from ..simulation import FailureScenario, ProbeSimulator
from ..topology import Topology
from .controller import Controller, ControllerConfig, ControllerCycle
from .diagnoser import Diagnoser, DiagnosisReport
from .pinger import Pinger, PingerReport, probe_window
from .responder import Responder
from .watchdog import Watchdog

__all__ = ["WindowOutcome", "DetectorSystem"]


@dataclass
class WindowOutcome:
    """Everything produced by one 30-second monitoring window."""

    diagnosis: DiagnosisReport
    pinger_reports: List[PingerReport]
    probes_sent: int
    #: The window scored against the failed links the probe matrix observes.
    metrics: ConfusionCounts

    @property
    def suspected_links(self) -> List[int]:
        return self.diagnosis.suspected_links


class DetectorSystem:
    """The complete monitoring system over a simulated data center."""

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        controller_config: Optional[ControllerConfig] = None,
        pll_config: Optional[PLLConfig] = None,
        preprocess_config: Optional[PreprocessConfig] = None,
    ):
        self.topology = topology
        self.rng = rng
        self.watchdog = Watchdog(topology)
        self.controller = Controller(topology, controller_config, watchdog=self.watchdog)
        self._pll_config = pll_config
        self._preprocess_config = preprocess_config
        self.cycle: Optional[ControllerCycle] = None
        self.diagnoser: Optional[Diagnoser] = None
        self.responders: Dict[str, Responder] = {}
        self._simulator = ProbeSimulator(
            topology, FailureScenario(description="no failures"), rng
        )

    # ------------------------------------------------------------------ cycle
    def run_controller_cycle(self, incremental: bool = False) -> ControllerCycle:
        """Recompute the probe matrix and pinglists (the 10-minute cycle).

        Two modes mirror the controller's two cycle flavours:

        * ``incremental=False`` (default) -- the paper's behaviour: a **full
          rebuild**.  Candidate paths are filtered against the watchdog's
          current health state, PMC runs from scratch and every pinglist is
          regenerated.
        * ``incremental=True`` -- the **churn-aware** cycle: the controller
          diffs the watchdog's health snapshot against the one it last
          planned with, masks the delta's links on its cached incidence
          index and warm-starts PMC, falling back to a full rebuild when
          churn exceeds ``ControllerConfig.churn_rebuild_threshold`` (the
          produced cycle's ``mode`` field records which path ran).  Results
          are byte-identical to a full rebuild on the same health state.

        Either way the diagnoser is re-armed with the new probe matrix and
        responders are refreshed, so the next :meth:`run_window` probes with
        the new cycle's pinglists.
        """
        if incremental:
            self.cycle = self.controller.run_incremental_cycle()
        else:
            self.cycle = self.controller.run_cycle()
        self.diagnoser = Diagnoser(
            self.topology,
            self.cycle.probe_matrix,
            pll_config=self._pll_config,
            preprocess_config=self._preprocess_config,
            watchdog=self.watchdog,
        )
        self.responders = {
            server.name: Responder(server_name=server.name)
            for server in self.topology.servers
        }
        return self.cycle

    # Alias matching the controller-side naming; same modes, same semantics.
    run_cycle = run_controller_cycle

    @property
    def probe_matrix(self) -> ProbeMatrix:
        if self.cycle is None:
            raise RuntimeError("run_controller_cycle() must be called first")
        return self.cycle.probe_matrix

    @property
    def simulator(self) -> ProbeSimulator:
        """The probe simulator every pinger of this system sends through."""
        return self._simulator

    # ----------------------------------------------------------------- window
    def inject_failures(self, scenario: FailureScenario) -> None:
        """Install the failure scenario the next window will experience."""
        self._simulator.set_scenario(scenario)

    def build_pingers(self) -> Dict[str, Pinger]:
        """The healthy pingers of the current cycle, in pinglist order.

        Down pingers are simply absent (they stop reporting).  Both window
        modes are built on this set: :meth:`run_window` probes every
        pinger's whole window in one bulk call, the telemetry engine's probe
        scheduler turns each one into a timed probe stream.
        """
        pingers: Dict[str, Pinger] = {}
        for server, pinglist in self.cycle.pinglists.items():
            if not self.watchdog.is_server_healthy(server):
                continue
            pingers[server] = Pinger(
                pinglist,
                self._simulator,
                confirm_losses=self.controller.config.loss_confirmation_probes,
            )
        return pingers

    def run_window(self, scenario: Optional[FailureScenario] = None) -> WindowOutcome:
        """Run one 30-second aggregation window end to end.

        Primes the simulator with the cycle's probe matrix and sends every
        healthy pinger's window through one bulk call
        (:func:`~repro.monitor.pinger.probe_window`), one row per probe in
        the per-packet loop's order, so random draws are consumed exactly as
        probing packet by packet would.  The diagnoser runs on the merge of
        the per-pinger reports, and the outcome's ``metrics`` score its
        suspects against the scenario's failed links that the probe matrix
        observes.
        """
        if self.cycle is None or self.diagnoser is None:
            self.run_controller_cycle()
        if scenario is not None:
            self.inject_failures(scenario)
        self._simulator.prime_paths(self.probe_matrix.paths)
        reports = probe_window(self.build_pingers().values())
        probes_sent = sum(report.probes_sent for report in reports)
        diagnosis = self.diagnoser.diagnose(
            merge_observations(report.observations for report in reports)
        )
        observable_truth = [
            link
            for link in self._simulator.scenario.bad_link_ids
            if self.probe_matrix.contains_link(link)
        ]
        return WindowOutcome(
            diagnosis=diagnosis,
            pinger_reports=reports,
            probes_sent=probes_sent,
            metrics=evaluate_localization(
                observable_truth, diagnosis.suspected_links, self.probe_matrix.link_ids
            ),
        )
