"""Simulation substrate: failure injection, packet-level probing, workload and latency models."""

from .failures import (
    ChurnSchedule,
    FailureGenerator,
    FailureGeneratorConfig,
    FailureScenario,
    LinkFailure,
    LossMode,
)
from .latency import LatencyConfig, LatencyModel, RTTSample
from .network import ProbeConfig, ProbeSimulator
from .resources import PingerResourceModel, ResourceUsage
from .rng import SeededStreams
from .workload import Flow, WorkloadConfig, WorkloadModel

__all__ = [
    "LossMode",
    "LinkFailure",
    "FailureScenario",
    "FailureGenerator",
    "FailureGeneratorConfig",
    "ChurnSchedule",
    "ProbeConfig",
    "ProbeSimulator",
    "WorkloadConfig",
    "WorkloadModel",
    "Flow",
    "LatencyConfig",
    "LatencyModel",
    "RTTSample",
    "PingerResourceModel",
    "ResourceUsage",
    "SeededStreams",
]
