"""Discrete-event telemetry engine: timed probe streams over simulated time.

The static layers (PMC, PLL, the monitoring loop) evaluate *snapshots*; this
package adds the missing dimension -- time -- so detection and localization
*latency* become measurable, the axis systems like Pingmesh are actually
compared on.  See `ARCHITECTURE.md` ("The telemetry engine") for the event
dataflow and `docs/TUNING.md` for the knobs.
"""

from .aggregator import StreamAggregator, WindowReport
from .dynamics import (
    CongestionEpisode,
    DynamicFaultModel,
    FaultEpisode,
    FaultTransition,
    FlappingLink,
    GrayFailure,
    SwitchOutage,
)
from .engine import (
    CycleRecord,
    DetectionRecord,
    EngineConfig,
    EngineResult,
    EngineWindow,
    ServedWindow,
    SnapshotWindow,
    TelemetryEngine,
)
from .loop import BatchEventSource, EventHandle, EventLoop, SimClock
from .probes import ProbeScheduler

__all__ = [
    "SimClock",
    "EventLoop",
    "EventHandle",
    "BatchEventSource",
    "ProbeScheduler",
    "StreamAggregator",
    "WindowReport",
    "FaultTransition",
    "FaultEpisode",
    "FlappingLink",
    "CongestionEpisode",
    "GrayFailure",
    "SwitchOutage",
    "DynamicFaultModel",
    "EngineConfig",
    "DetectionRecord",
    "CycleRecord",
    "EngineWindow",
    "EngineResult",
    "ServedWindow",
    "SnapshotWindow",
    "TelemetryEngine",
]
