"""The pinger module (§3.1, §6.1).

Each pinger owns the probe paths its pinglist assigns to it.  During an
aggregation window (30 seconds in the paper) it loops over its paths, sends
source-routed UDP probes with varying source ports and DSCP values, counts
losses (a probe unanswered within 100 ms is a loss) and posts an aggregate
report to the diagnoser.  :func:`probe_window` sends one window of every
pinger through the probe simulator's bulk kernel, one row per probe.

The probing budget is expressed exactly as in the paper: the pinger sends
``probes_per_second`` packets in total, looping over its pinglist, so each of
its ``n`` paths receives about ``probes_per_second * window / n`` probes per
window.  When a loss is detected the pinger optionally re-sends the same
probe content to confirm the loss pattern (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..localization import ObservationSet, PathObservation
from ..simulation import ProbeConfig, ProbeSimulator
from .pinglist import Pinglist

__all__ = ["PingerReport", "Pinger", "probe_window"]


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
    """One pinger: its pinglist, per-path budget, probe entropy and loss
    confirmation.  :func:`probe_window` (static windows) and the telemetry
    engine's scheduler (timed streams) send its probes."""

    def __init__(
        self,
        pinglist: Pinglist,
        simulator: ProbeSimulator,
        confirm_losses: int = 2,
    ):
        self.pinglist = pinglist
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

    # ------------------------------------------------------------ accounting
    def probes_per_window(self, window_seconds: Optional[float] = None) -> int:
        """Nominal probe budget per window (excluding loss confirmations)."""
        return self.probes_per_path_per_window(window_seconds) * self.pinglist.num_paths


def probe_window(pingers: Sequence[Pinger]) -> List[PingerReport]:
    """Probe one aggregation window of every pinger; one report each.

    Every probe of every pinger is one count-1 row of a single
    :meth:`~repro.simulation.ProbeSimulator.probe_rows` call: pinger by
    pinger, entry by entry in pinglist order, each entry's window budget in
    sequence order, each loss followed by the pinger's confirmation resends.
    The pingers share one simulator, primed with the probe matrix their
    pinglists index.  Each report is its pinger's slice of the call.
    """
    pingers = list(pingers)
    if not pingers:
        return []
    lengths = [pinger.pinglist.num_paths for pinger in pingers]
    rows = np.fromiter(
        (entry.path_index for pinger in pingers for entry in pinger.pinglist.entries),
        dtype=np.int64,
        count=sum(lengths),
    )
    pinger_of = np.repeat(np.arange(len(pingers)), lengths)
    per_path = np.asarray([pinger.probes_per_path_per_window() for pinger in pingers])
    sent, lost = pingers[0].simulator.probe_rows(
        rows,
        per_path[pinger_of],
        [pinger.probe_config() for pinger in pingers],
        pinger_of,
        [pinger.confirm_losses for pinger in pingers],
    )
    reports = []
    stop = 0
    for pinger, length in zip(pingers, lengths):
        window = slice(stop, stop + length)
        stop += length
        reports.append(
            PingerReport(
                pinger_server=pinger.server_name,
                window_seconds=pinger.pinglist.report_interval_seconds,
                observations=ObservationSet(
                    map(
                        PathObservation,
                        rows[window].tolist(),
                        sent[window].tolist(),
                        lost[window].tolist(),
                    )
                ),
                probes_sent=int(sent[window].sum()),
                probes_lost=int(lost[window].sum()),
            )
        )
    return reports
