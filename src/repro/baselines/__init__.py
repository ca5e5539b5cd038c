"""Competitor monitoring systems: Pingmesh (+Netbouncer) and NetNORAD (+fbtracert)."""

from .common import BaselineConfig, ECMPBaseline, MonitoringOutcome, SuspectedPair
from .fbtracert import Fbtracert, FbtracertResult
from .netbouncer import Netbouncer, NetbouncerResult
from .netnorad import NetNORADSystem
from .pingmesh import PingmeshSystem

__all__ = [
    "BaselineConfig",
    "MonitoringOutcome",
    "SuspectedPair",
    "ECMPBaseline",
    "PingmeshSystem",
    "NetNORADSystem",
    "Netbouncer",
    "NetbouncerResult",
    "Fbtracert",
    "FbtracertResult",
]
