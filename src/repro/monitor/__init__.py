"""Monitoring system components: controller, pingers, responders, diagnoser, watchdog."""

from .controller import Controller, ControllerConfig, ControllerCycle
from .diagnoser import Alert, Diagnoser, DiagnosisReport
from .pinger import Pinger, PingerReport, probe_window
from .pinglist import Pinglist, PinglistEntry
from .responder import Responder
from .system import DetectorSystem, WindowOutcome
from .watchdog import Watchdog

__all__ = [
    "Controller",
    "ControllerConfig",
    "ControllerCycle",
    "Pinglist",
    "PinglistEntry",
    "Pinger",
    "PingerReport",
    "probe_window",
    "Responder",
    "Diagnoser",
    "DiagnosisReport",
    "Alert",
    "Watchdog",
    "DetectorSystem",
    "WindowOutcome",
]
