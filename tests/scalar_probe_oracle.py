"""The per-packet probing loops: the reference count-1 bulk rows are held to.

The product probes every pinned and ECMP packet through
:meth:`~repro.simulation.ProbeSimulator.probe_paths_bulk`, one count-1 row per
probe (``probe_rows``, ``observe_probe_matrix``,
``repro.baselines.common.probe_pairs_ecmp``, ``repro.monitor.probe_window``).
This module is the obvious program they replace: one :func:`round_trip` per packet, through the simulator's one-way
:meth:`~repro.simulation.ProbeSimulator.transmit` (forward, then the echo
back over the same links), each lost pinger probe re-sent
``confirm_losses`` times.  A random-partial link draws one variate per packet
that reaches it, so a test that runs both on two simulators seeded alike
checks the product on observations, ``drops_per_link`` and the state the
generator is left in.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import PairProbeOutcome
from repro.engine import StreamAggregator
from repro.localization import ObservationSet, PathObservation, merge_observations
from repro.monitor import PingerReport
from repro.routing import ProbePacket
from repro.simulation import ProbeConfig


def round_trip(simulator, path, packet: ProbePacket) -> bool:
    """Probe plus echoed response; lost if either direction is dropped."""
    if not simulator.transmit(path.link_ids, packet.flow_key()):
        return False
    if not simulator._probe_reverse_path:
        return True
    reverse_key = (
        packet.dst_server,
        packet.src_server,
        packet.dst_port,
        packet.src_port,
        packet.protocol,
    )
    return simulator.transmit(path.link_ids, reverse_key)


def probe_path(simulator, path, config: ProbeConfig) -> PathObservation:
    """Send ``config.probes_per_path`` pinned probes along one path."""
    lost = 0
    for sequence in range(config.probes_per_path):
        if not round_trip(simulator, path, config.packet_for(path, sequence)):
            lost += 1
    return PathObservation(path_index=path.path_id, sent=config.probes_per_path, lost=lost)


def observe_probe_matrix(simulator, probe_matrix, config: Optional[ProbeConfig] = None):
    """Probe every path of a probe matrix once per window, packet by packet."""
    config = config or ProbeConfig()
    observations = ObservationSet()
    for index, path in enumerate(probe_matrix.paths):
        observation = probe_path(simulator, path, config)
        observations.add(PathObservation(index, observation.sent, observation.lost))
    return observations


def probe_entry(simulator, path, probes: int, config: ProbeConfig, confirm_losses: int):
    """Send ``probes`` probes on one path; every loss is re-sent
    ``confirm_losses`` times.  Returns ``(sent, lost)`` including resends."""
    sent = probes
    lost = 0
    for sequence in range(probes):
        packet = config.packet_for(path, sequence)
        if not round_trip(simulator, path, packet):
            lost += 1
            for _ in range(confirm_losses):
                sent += 1
                if not round_trip(simulator, path, packet):
                    lost += 1
    return sent, lost


def pinger_window(pinger, paths) -> PingerReport:
    """One pinger's aggregation window, entry by entry, packet by packet;
    ``paths`` is the probe matrix's path table its pinglist indexes."""
    per_path = pinger.probes_per_path_per_window()
    config = pinger.probe_config(per_path)
    observations = ObservationSet()
    sent_total = lost_total = 0
    for entry in pinger.pinglist.entries:
        sent, lost = probe_entry(
            pinger.simulator,
            paths[entry.path_index],
            per_path,
            config,
            pinger.confirm_losses,
        )
        observations.add(PathObservation(entry.path_index, sent, lost))
        sent_total += sent
        lost_total += lost
    return PingerReport(
        pinger_server=pinger.server_name,
        window_seconds=pinger.pinglist.report_interval_seconds,
        observations=observations,
        probes_sent=sent_total,
        probes_lost=lost_total,
    )


def pinger_reports(system) -> List[PingerReport]:
    """Every healthy pinger's window of a ``DetectorSystem``, in pinger order."""
    paths = system.probe_matrix.paths
    return [pinger_window(pinger, paths) for pinger in system.build_pingers().values()]


def snapshot_window(system, scenario=None):
    """``DetectorSystem.run_window`` the per-packet way.

    Returns ``(reports, diagnosis, window)``: the pinger reports, the
    diagnosis of their merge, and the stream aggregator's window after every
    report observation is folded at time 0.
    """
    if scenario is not None:
        system.inject_failures(scenario)
    reports = pinger_reports(system)
    aggregator = StreamAggregator(system.probe_matrix.incidence, window_seconds=30.0)
    for report in reports:
        for observation in report.observations:
            aggregator.record(observation.path_index, 0.0, observation.sent, observation.lost)
    window = aggregator.close_window(0.0)
    diagnosis = system.diagnoser.diagnose(merge_observations(r.observations for r in reports))
    return reports, diagnosis, window


def probe_pair_ecmp(
    simulator, router, src: str, dst: str, num_probes: int, config: Optional[ProbeConfig] = None
) -> PairProbeOutcome:
    """Probe one pair without path pinning: a fresh source port per probe,
    hashed by the router onto one candidate path."""
    config = config or ProbeConfig()
    lost = 0
    losses_by_path = {}
    for sequence in range(num_probes):
        packet = ProbePacket(
            src_server=src,
            dst_server=dst,
            src_port=config.base_port + (sequence % max(num_probes, config.port_range)),
            dst_port=config.destination_port,
            dscp=config.dscp_values[sequence % len(config.dscp_values)],
            sequence=sequence,
        )
        path_index = router.route_index(packet.flow_key())
        if path_index is None:
            raise ValueError(f"ECMP router has no candidate paths for {src} -> {dst}")
        if not round_trip(simulator, router.path_at(path_index), packet):
            lost += 1
            losses_by_path[path_index] = losses_by_path.get(path_index, 0) + 1
    return PairProbeOutcome(
        src=src, dst=dst, sent=num_probes, lost=lost, losses_by_path=losses_by_path
    )

