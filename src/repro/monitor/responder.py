"""The responder module (§3.1).

Responders are stateless user-space processes running on every server: they
listen on the probing port, timestamp incoming probes and echo them back.  In
the simulator the echo traversal is handled by the probing kernel
(:meth:`repro.simulation.ProbeSimulator.probe_paths_bulk` walks each probe's
path forward, then back); this class models the
per-packet behaviour (port filtering, timestamping, statelessness) so the
monitoring pipeline and its tests mirror the real component structure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..routing import ProbePacket

__all__ = ["Responder"]


@dataclass
class Responder:
    """Echoes probes addressed to it on the configured port."""

    server_name: str
    listen_port: int = 53535
    echoes: int = 0

    def handle(self, packet: ProbePacket, timestamp: float = 0.0) -> Optional[ProbePacket]:
        """Echo a probe back to its sender.

        Returns ``None`` for packets not addressed to this responder's port or
        server (they would simply be dropped by the host's UDP stack).  The
        echoed packet swaps the endpoints and ports and carries the responder
        timestamp in its sequence-preserving payload -- represented here by
        returning the packet unchanged apart from the swap, exactly the
        information the pinger needs to compute an RTT.
        """
        if packet.dst_port != self.listen_port or packet.dst_server != self.server_name:
            return None
        self.echoes += 1
        return replace(
            packet,
            src_server=self.server_name,
            dst_server=packet.src_server,
            src_port=packet.dst_port,
            dst_port=packet.src_port,
        )
