"""The pinger module (§3.1, §6.1).

Each pinger owns the probe paths its pinglist assigns to it.  During an
aggregation window (30 seconds in the paper) it loops over its paths, sends
source-routed UDP probes with varying source ports and DSCP values, counts
losses (a probe unanswered within 100 ms is a loss) and posts an aggregate
report to the diagnoser.

The probing budget is expressed exactly as in the paper: the pinger sends
``probes_per_second`` packets in total, looping over its pinglist, so each of
its ``n`` paths receives about ``probes_per_second * window / n`` probes per
window.  When a loss is detected the pinger optionally re-sends the same
probe content to confirm the loss pattern (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..localization import ObservationSet, PathObservation
from ..routing import Path
from ..simulation import ProbeConfig, ProbeSimulator
from .pinglist import Pinglist

__all__ = ["PingerReport", "Pinger"]


@dataclass
class PingerReport:
    """One pinger's aggregated results for one window (the HTTP POST payload)."""

    pinger_server: str
    window_seconds: float
    observations: ObservationSet
    probes_sent: int
    probes_lost: int

    @property
    def loss_rate(self) -> float:
        return self.probes_lost / self.probes_sent if self.probes_sent else 0.0


class Pinger:
    """Sends probes according to a pinglist and aggregates the outcomes."""

    def __init__(
        self,
        pinglist: Pinglist,
        paths_by_index: Dict[int, Path],
        simulator: ProbeSimulator,
        confirm_losses: int = 2,
    ):
        self.pinglist = pinglist
        self._paths_by_index = paths_by_index
        self._simulator = simulator
        self._confirm_losses = confirm_losses

    @property
    def server_name(self) -> str:
        return self.pinglist.pinger_server

    @property
    def simulator(self) -> ProbeSimulator:
        """The probe simulator this pinger sends through."""
        return self._simulator

    @property
    def confirm_losses(self) -> int:
        """How many confirmation resends follow each detected loss (§3.1)."""
        return self._confirm_losses

    # -------------------------------------------------------------- probing
    def probes_per_path_per_window(self, window_seconds: Optional[float] = None) -> int:
        """How many probes each owned path receives during one window."""
        window = window_seconds or self.pinglist.report_interval_seconds
        num_paths = max(self.pinglist.num_paths, 1)
        budget = self.pinglist.probes_per_second * window
        return max(1, int(budget // num_paths))

    def probe_config(self, probes_per_path: int = 1) -> ProbeConfig:
        """The probe-entropy configuration this pinger's pinglist implies."""
        low_port, high_port = self.pinglist.source_port_range
        return ProbeConfig(
            probes_per_path=max(1, probes_per_path),
            port_range=max(1, high_port - low_port + 1),
            base_port=low_port,
            destination_port=self.pinglist.destination_port,
            dscp_values=self.pinglist.dscp_values,
        )

    def probe_entry(
        self,
        entry,
        probes: int,
        start_sequence: int = 0,
        config: Optional[ProbeConfig] = None,
    ) -> Tuple[int, int]:
        """Send ``probes`` probes on one pinglist entry; returns ``(sent, lost)``.

        The snapshot path's unit of work: each entry's whole per-window
        budget goes out in one call.  (The telemetry engine's
        :class:`~repro.engine.probes.ProbeScheduler` probes whole drains
        through :meth:`~repro.simulation.ProbeSimulator.probe_paths_bulk`
        instead.)  Counts include loss-confirmation resends.
        """
        config = config or self.probe_config(probes)
        path = self._paths_by_index[entry.path_index]
        sent = probes
        lost = 0
        for sequence in range(start_sequence, start_sequence + probes):
            packet = config.packet_for(path, sequence)
            delivered = self._simulator.round_trip(path, packet)
            if not delivered:
                confirmed_lost = 1
                # Confirm the loss pattern by re-sending the same content.
                for _ in range(self._confirm_losses):
                    sent += 1
                    if not self._simulator.round_trip(path, packet):
                        confirmed_lost += 1
                lost += confirmed_lost
        return sent, lost

    def run_window(self, window_seconds: Optional[float] = None) -> PingerReport:
        """Probe every owned path for one aggregation window."""
        window = window_seconds or self.pinglist.report_interval_seconds
        per_path = self.probes_per_path_per_window(window)
        probe_config = self.probe_config(per_path)

        observations = ObservationSet()
        sent_total = 0
        lost_total = 0
        for entry in self.pinglist.entries:
            sent, lost = self.probe_entry(entry, per_path, config=probe_config)
            observations.add(
                PathObservation(path_index=entry.path_index, sent=sent, lost=lost)
            )
            sent_total += sent
            lost_total += lost

        return PingerReport(
            pinger_server=self.server_name,
            window_seconds=window,
            observations=observations,
            probes_sent=sent_total,
            probes_lost=lost_total,
        )

    # ------------------------------------------------------------ accounting
    def probes_per_window(self, window_seconds: Optional[float] = None) -> int:
        """Nominal probe budget per window (excluding loss confirmations)."""
        return self.probes_per_path_per_window(window_seconds) * self.pinglist.num_paths
