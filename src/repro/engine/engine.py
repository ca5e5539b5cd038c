"""The telemetry engine: monitoring as a discrete-event simulation.

:class:`TelemetryEngine` wires a :class:`~repro.monitor.DetectorSystem` into
the event loop:

* a :class:`~repro.engine.probes.ProbeScheduler` drains per-pinger probe
  firings (configurable rates, jittered) into columnar probe batches,
* a :class:`~repro.engine.dynamics.DynamicFaultModel` evolves the live
  failure scenario (flaps, congestion, gray failures, switch outages),
* a :class:`~repro.engine.aggregator.StreamAggregator` folds the outcome
  stream into per-path/per-link window counters,
* every ``window_seconds`` a window-close event diagnoses the window
  (pre-processing + PLL) and updates detection bookkeeping,
* every ``cycle_seconds`` a controller-cycle event replays known churn into
  the watchdog and re-plans -- incrementally by default -- re-arming the
  scheduler and aggregator with the new probe matrix.

What the paper's static evaluation cannot measure falls out of the timeline:
**time-to-detection** (first window whose per-link loss counters show losses
crossing the faulty link) and **time-to-localization** (first window whose
diagnosis names it), per fault, per scenario.

One driver advances time: :meth:`TelemetryEngine.serve` streams windows as
they close, and :meth:`TelemetryEngine.run` is that stream drained to its
horizon and snapshotted by :meth:`TelemetryEngine.build_result`.

The legacy snapshot pipeline is the one-tick special case
(:meth:`TelemetryEngine.run_snapshot_window`): a frozen clock, every pinger's
whole window fired in one event, one window close.
``DetectorSystem.run_window`` delegates to it, so the static path and the
timed path share one implementation.
"""

from __future__ import annotations

import math
import time as _wall
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..contracts import informational_fields, informational_wall
from ..core.costmodel import CostModel
from ..core.incidence import resolve_backend, shm_telemetry
from ..obs import Observability, WindowProfiler, tracing
from ..parallel import pool_telemetry, resolve_jobs
from ..simulation.rng import SeededStreams
from .aggregator import StreamAggregator, WindowReport
from .dynamics import DynamicFaultModel
from .loop import EventLoop, SimClock
from .probes import (
    PRIORITY_CYCLE,
    PRIORITY_PROBE,
    PRIORITY_WINDOW,
    ProbeScheduler,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..monitor.diagnoser import DiagnosisReport
    from ..monitor.pinger import PingerReport
    from ..monitor.system import DetectorSystem

__all__ = [
    "EngineConfig",
    "DetectionRecord",
    "CycleRecord",
    "EngineWindow",
    "EngineResult",
    "ServedWindow",
    "SnapshotWindow",
    "TelemetryEngine",
]


@dataclass(frozen=True)
class EngineConfig:
    """Timing knobs of a telemetry engine run.

    Attributes
    ----------
    window_seconds:
        Aggregation-window length (30 s in the paper).
    cycle_seconds:
        Controller re-planning period (600 s in the paper).  Must be a
        multiple of ``window_seconds`` so cycles land on window boundaries.
    probes_per_second:
        Per-pinger probe rate; ``None`` uses each pinglist's own rate.
    probe_batch_seconds:
        Simulated time between a pinger's probe events; each event spends the
        budget accrued since the last one, so smaller batches mean finer
        probe timestamps at more event overhead.
    jitter_fraction:
        Each probe interval is scaled by ``1 + U(-j, +j)`` -- pingers drift
        apart instead of firing in lockstep.
    incremental_cycles:
        Run churn-aware incremental controller cycles (PR 2) instead of full
        rebuilds at each cycle boundary.
    run_controller_cycles:
        Disable to keep one probe matrix for the whole run (no cycle events).
    aggregator_shards:
        Number of :class:`~repro.engine.aggregator.StreamAggregator` shards;
        paths are keyed by the pod of their source node when the topology
        has pods.  Window reports are invariant in this knob.
    coalesce_horizon_seconds:
        Cap on the simulated-time span one coalesced drain may cover (bounds
        the latency of serve-mode output against huge event-free gaps).
    """

    window_seconds: float = 30.0
    cycle_seconds: float = 600.0
    probes_per_second: Optional[float] = None
    probe_batch_seconds: float = 1.0
    jitter_fraction: float = 0.1
    incremental_cycles: bool = True
    run_controller_cycles: bool = True
    aggregator_shards: int = 1
    coalesce_horizon_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.cycle_seconds <= 0:
            raise ValueError("cycle_seconds must be positive")
        ratio = self.cycle_seconds / self.window_seconds
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                "cycle_seconds must be an integer multiple of window_seconds "
                f"(got {self.cycle_seconds} / {self.window_seconds})"
            )
        if self.probe_batch_seconds <= 0:
            raise ValueError("probe_batch_seconds must be positive")
        if self.aggregator_shards < 1:
            raise ValueError("aggregator_shards must be at least 1")
        if self.coalesce_horizon_seconds <= 0:
            raise ValueError("coalesce_horizon_seconds must be positive")


@dataclass
class DetectionRecord:
    """Latency bookkeeping for one ground-truth faulty link."""

    link_id: int
    fault_start: float
    first_loss_time: Optional[float] = None
    localized_time: Optional[float] = None

    @property
    def detected(self) -> bool:
        return self.first_loss_time is not None

    @property
    def localized(self) -> bool:
        return self.localized_time is not None

    @property
    def detection_latency(self) -> Optional[float]:
        """Fault start -> first window close whose counters show its losses."""
        if self.first_loss_time is None:
            return None
        return self.first_loss_time - self.fault_start

    @property
    def localization_latency(self) -> Optional[float]:
        """Fault start -> first window close whose diagnosis names the link."""
        if self.localized_time is None:
            return None
        return self.localized_time - self.fault_start


@informational_fields("wall_seconds")
@dataclass
class CycleRecord:
    """One controller-cycle event: when, how, and how long it took (wall).

    ``touched_shards`` mirrors
    :attr:`~repro.monitor.controller.ControllerCycle.touched_shards`: the pod
    shards PMC actually re-solved this cycle (``None`` when the controller
    runs unsharded).
    """

    time: float
    mode: str
    churn: int
    wall_seconds: float
    num_paths: int
    touched_shards: Optional[Tuple[int, ...]] = None


@dataclass
class EngineWindow:
    """One closed window plus its diagnosis."""

    report: WindowReport
    diagnosis: "DiagnosisReport"


@informational_fields("wall_seconds")
@dataclass
class EngineResult:
    """Timeline and aggregates of one engine run."""

    config: EngineConfig
    duration: float
    windows: List[EngineWindow]
    cycles: List[CycleRecord]
    detections: List[DetectionRecord]
    probes_sent: int
    probes_lost: int
    events_processed: int
    #: Sum of the per-window walls (:attr:`ServedWindow.wall_seconds`): time
    #: spent advancing the loop, bootstrap and re-arm set-up excluded.
    wall_seconds: float
    #: Deterministic work counters of the run (aggregation folds, window
    #: closes, probe batches): byte-identical across backends and machines
    #: for a fixed seed, unlike ``wall_seconds`` (informational only).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock spent in the streaming plane: ``wall_seconds`` minus the
    #: controller cycles' wall.  Cycle latency is a control-plane metric
    #: reported separately (``cycles[*].wall_seconds``); dividing probes by
    #: total wall would let one slow re-plan mask the probe path's speed.
    probe_wall_seconds: float = 0.0

    @property
    def probe_events_per_second(self) -> float:
        """Streaming-plane probe throughput: probes per wall-clock second
        spent outside controller cycles."""
        wall = self.probe_wall_seconds if self.probe_wall_seconds > 0 else self.wall_seconds
        return self.probes_sent / wall if wall > 0 else 0.0

    def detection_latencies(self) -> List[float]:
        return [r.detection_latency for r in self.detections if r.detected]

    def localization_latencies(self) -> List[float]:
        return [r.localization_latency for r in self.detections if r.localized]

    def undetected_links(self) -> List[int]:
        """Faulty links whose losses were never observed in any window."""
        return sorted(r.link_id for r in self.detections if not r.detected)

    def unlocalized_links(self) -> List[int]:
        """Faulty links no window's diagnosis ever named (detected or not)."""
        return sorted(r.link_id for r in self.detections if not r.localized)

    def summary(self) -> Dict[str, float]:
        localization = self.localization_latencies()
        detection = self.detection_latencies()
        return {
            "sim_seconds": self.duration,
            "windows": len(self.windows),
            "cycles": len(self.cycles),
            "probes_sent": self.probes_sent,
            "probes_lost": self.probes_lost,
            "events_processed": self.events_processed,
            "wall_seconds": round(self.wall_seconds, 4),
            "probe_wall_seconds": round(self.probe_wall_seconds, 4),
            "probe_events_per_second": round(self.probe_events_per_second, 1),
            "faults": len(self.detections),
            "faults_detected": sum(1 for r in self.detections if r.detected),
            "faults_localized": sum(1 for r in self.detections if r.localized),
            "mean_detection_latency": (
                round(sum(detection) / len(detection), 3) if detection else None
            ),
            "mean_localization_latency": (
                round(sum(localization) / len(localization), 3) if localization else None
            ),
        }


@informational_fields("wall_seconds", "control_wall_seconds")
@dataclass
class ServedWindow:
    """One window streamed out of :meth:`TelemetryEngine.serve`.

    Counters are *deltas* over this window's span (the serve loop's unit of
    backpressure accounting), not run totals.
    """

    window: EngineWindow
    probes_sent: int
    probes_lost: int
    rejected_events: int
    events_processed: int
    wall_seconds: float
    control_wall_seconds: float

    @property
    def report(self) -> WindowReport:
        return self.window.report

    @property
    def probe_events_per_second(self) -> float:
        """Streaming-plane throughput over this window.

        Guarded against degenerate wall clocks: a window with no probes is
        ``0.0`` regardless of timing, and a positive probe count over a zero
        or sub-resolution wall delta (coarse timers, replayed traces) is
        ``inf`` -- never a ``ZeroDivisionError``.
        """
        if self.probes_sent <= 0:
            return 0.0
        wall = self.wall_seconds - self.control_wall_seconds
        if wall <= 0.0:
            return float("inf")
        return self.probes_sent / wall

    @property
    def realtime_factor(self) -> float:
        """Simulated seconds served per wall second (>1 means ahead of
        real time; <1 means the serve loop is falling behind).

        Same guards as :attr:`probe_events_per_second`: an empty window is
        ``0.0``, simulated progress over a zero wall delta is ``inf``.
        """
        if self.report.duration <= 0.0:
            return 0.0
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.report.duration / self.wall_seconds


@dataclass
class SnapshotWindow:
    """Result of the one-tick (frozen clock) engine run behind ``run_window``.

    ``window`` is ``None`` when the caller opted out of the stream fold
    (``fold_stream=False``): the legacy pipeline only needs reports and the
    diagnosis, so it skips the aggregator's per-link counter kernels.
    """

    reports: List["PingerReport"]
    diagnosis: "DiagnosisReport"
    window: Optional[WindowReport]


class TelemetryEngine:
    """Drives a :class:`DetectorSystem` through simulated time."""

    def __init__(
        self,
        system: "DetectorSystem",
        fault_model: DynamicFaultModel,
        config: Optional[EngineConfig] = None,
        rng: Optional[np.random.Generator] = None,
        obs: Optional[Observability] = None,
    ):
        self.system = system
        self.model = fault_model
        self.config = config or EngineConfig()
        # Default randomness flows through SeededStreams like every explicit
        # caller's does (`streams.generator("probe-jitter")`), never through a
        # bare ``default_rng`` -- one ``--seed`` governs every draw.
        self._rng = rng if rng is not None else SeededStreams(0).generator("probe-jitter")
        self.cost = CostModel()
        self.loop = EventLoop()
        system.watchdog.clock = self.loop.clock
        # The probe simulator reads the model's live scenario on every probe.
        system.inject_failures(fault_model.scenario)
        self._aggregator: Optional[StreamAggregator] = None
        self._scheduler = ProbeScheduler(
            self.loop,
            self._rng,
            probes_per_second=self.config.probes_per_second,
            batch_seconds=self.config.probe_batch_seconds,
            jitter_fraction=self.config.jitter_fraction,
            coalesce_horizon=self.config.coalesce_horizon_seconds,
        )
        self._scheduler.sink = self._record_outcome_batch
        self._windows: List[EngineWindow] = []
        self._cycles: List[CycleRecord] = []
        self._records: Dict[int, DetectionRecord] = {}
        self._cycle_index = 0
        self._control_wall = 0.0
        # ------------------------------------------------- observability plane
        self.obs = obs if obs is not None else Observability.from_env()
        self.obs.bind_clock(self.loop.clock)
        # Kernel counters retired with each controller re-arm (the new probe
        # matrix carries a fresh incidence index) are folded in here so the
        # ``kernels`` source stays a run-total.
        self._kernel_totals = CostModel()
        registry = self.obs.registry
        registry.register_source("engine_cost", self.cost.as_dict)
        registry.register_source("scheduler", self._scheduler.telemetry)
        registry.register_source("loop", self.loop.telemetry)
        registry.register_source("kernels", self._kernel_source)
        registry.register_source(
            "scheduler_drains", self._scheduler.drain_telemetry, informational=True
        )
        # Row classes of the bulk probing kernel: like the drains, they
        # describe how the work was batched, hence informational.
        registry.register_source("sim_bulk", self._bulk_probe_source, informational=True)
        # Dispatch-plane visibility (informational: spawn/reuse balance and
        # payload bytes vary with jobs, pool persistence and shm settings,
        # never with the workload's deterministic outcome).
        registry.register_source("dispatch_pool", pool_telemetry, informational=True)
        registry.register_source("shm_plane", shm_telemetry, informational=True)
        self._h_detection = registry.histogram(
            "detection_latency_seconds",
            help="fault start -> first window whose counters show the losses",
        )
        self._h_localization = registry.histogram(
            "localization_latency_seconds",
            help="fault start -> first window whose diagnosis names the link",
        )
        self._c_windows = registry.counter(
            "windows_closed", help="aggregation windows closed by the engine"
        )
        self._c_detected = registry.counter(
            "faults_detected", help="ground-truth faults whose losses were observed"
        )
        self._c_localized = registry.counter(
            "faults_localized", help="ground-truth faults a window diagnosis named"
        )
        self._c_cycles = registry.counter(
            "controller_cycles", help="controller-cycle events, labelled by mode"
        )
        self._g_cache = registry.gauge(
            "pmc_shard_cache_hit_ratio",
            help="fraction of pod shards replayed from cache in the last cycle",
        )
        self._g_rate = registry.gauge(
            "probe_events_per_second",
            help="streaming-plane probe throughput (wall clock; informational)",
            informational=True,
        )
        registry.gauge(
            "build_info", help="execution environment of this run", informational=True
        ).set(
            1,
            backend=resolve_backend().value,
            jobs=resolve_jobs(getattr(system.controller.config, "jobs", None)),
        )
        self._profiler = (
            WindowProfiler(self.obs.profile_path) if self.obs.profile_path else None
        )

    # --------------------------------------------------------------- plumbing
    def _record_outcome_batch(self, paths, times, sent, lost) -> None:
        self._aggregator.record_batch(paths, times, sent, lost)

    def _kernel_source(self) -> Dict[str, int]:
        """Run-total backend-kernel counters, ``kernel_``-prefixed.

        Live counters of the current incidence index plus the totals retired
        by past controller re-arms; deterministic across backends and jobs
        (worker deltas are folded back into the parent index by the PMC pool
        dispatch).
        """
        totals = CostModel(self._kernel_totals.as_dict())
        if self._aggregator is not None:
            totals.merge(self._aggregator.incidence.counters.cost)
        return {f"kernel_{name}": count for name, count in totals.as_dict().items()}

    def _bulk_probe_source(self) -> Dict[str, int]:
        """The probe simulator's bulk-kernel run totals, ``sim_bulk_``-prefixed."""
        telemetry = self.system.simulator.telemetry()
        return {f"sim_bulk_{name}": count for name, count in telemetry.items()}

    def _shard_assignment(self) -> Optional[List[int]]:
        """Pod-keyed shard of each probe path (source node's pod, when the
        topology has pods; round-robin otherwise)."""
        shards = self.config.aggregator_shards
        if shards <= 1:
            return None
        assignment: List[int] = []
        topology = self.system.topology
        for i, path in enumerate(self.system.probe_matrix.paths):
            node = topology.node(path.src)
            pod = getattr(node, "pod", None)
            assignment.append(int(pod) % shards if pod is not None else i % shards)
        return assignment

    def _rearm(self) -> None:
        """Point scheduler + aggregator at the current controller cycle."""
        if (
            self._aggregator is not None
            and self._aggregator.incidence is not self.system.probe_matrix.incidence
        ):
            # The outgoing cycle's incidence index retires with its kernel
            # counters; fold them into the run totals (identity-guarded so a
            # replayed probe matrix is never double-counted).
            self._kernel_totals.merge(self._aggregator.incidence.counters.cost)
        # The bulk probing kernel needs the path table primed up front.
        self.system.simulator.prime_paths(self.system.probe_matrix.paths)
        self._aggregator = StreamAggregator(
            self.system.probe_matrix.incidence,
            self.config.window_seconds,
            start_time=self.loop.clock.now,
            cost=self.cost,  # counters accumulate across controller re-arms
            num_shards=self.config.aggregator_shards,
            shard_of_path=self._shard_assignment(),
        )
        self._scheduler.set_pingers(self.system.build_pingers())

    # ----------------------------------------------------------------- events
    def _close_window(self, end_time: Optional[float] = None) -> None:
        aggregator = self._aggregator
        # The span is opened at close time but backdated to the window's open,
        # so its extent covers the simulated interval the window aggregated.
        with tracing.span(
            "engine.window",
            start=aggregator.window_start,
            index=aggregator.window_index,
        ):
            report = aggregator.close_window(end_time)
            with tracing.span("pll.diagnose", window=report.index):
                diagnosis = self.system.diagnoser.diagnose(
                    report.observations, report.probes_sent
                )
        self._windows.append(EngineWindow(report=report, diagnosis=diagnosis))
        self._c_windows.inc()
        self._update_detections(report, diagnosis)
        if self._profiler is not None:
            self._profiler.dump()  # the profile brackets exactly one window

    def _update_detections(self, report: WindowReport, diagnosis: "DiagnosisReport") -> None:
        # Ground truth: every link whose first fault interval opened before
        # this window's end gets a record the first time we see it.
        for link_id in self.model.faulty_links_before(report.end):
            if link_id not in self._records:
                self._records[link_id] = DetectionRecord(
                    link_id=link_id, fault_start=self.model.fault_start(link_id)
                )
        index = self._aggregator.incidence
        suspected = set(diagnosis.suspected_links)
        for record in self._records.values():
            if record.first_loss_time is None and index.contains_link(record.link_id):
                position = index.position(record.link_id)
                if report.link_lost[position] > 0:
                    record.first_loss_time = report.end
                    self._observe_detection(record)
            if record.localized_time is None and record.link_id in suspected:
                record.localized_time = report.end
                if record.first_loss_time is None:
                    # Localization implies its losses were observed this window.
                    record.first_loss_time = report.end
                    self._observe_detection(record)
                self._c_localized.inc()
                self._h_localization.observe(record.localization_latency)

    def _observe_detection(self, record: DetectionRecord) -> None:
        self._c_detected.inc()
        self._h_detection.observe(record.detection_latency)

    @informational_wall("CycleRecord.wall_seconds is informational; cycle gates use counters")
    def _run_controller_cycle(self) -> None:
        self._cycle_index += 1
        with tracing.span("controller.cycle", index=self._cycle_index) as cycle_span:
            delta = self.model.churn_delta(self._cycle_index - 1)
            if delta is not None:
                self.system.watchdog.apply_delta(delta)
            started = _wall.perf_counter()
            cycle = self.system.run_controller_cycle(
                incremental=self.config.incremental_cycles
            )
            wall = _wall.perf_counter() - started
            if cycle_span is not None:
                cycle_span.labels.update(
                    mode=cycle.mode, paths=cycle.probe_matrix.num_paths
                )
                cycle_span.wall_seconds = wall
        self._control_wall += wall
        self._cycles.append(
            CycleRecord(
                time=self.loop.clock.now,
                mode=cycle.mode,
                churn=cycle.delta.churn if cycle.delta is not None else 0,
                wall_seconds=wall,
                num_paths=cycle.probe_matrix.num_paths,
                touched_shards=cycle.touched_shards,
            )
        )
        self._observe_cycle(cycle)
        self._rearm()

    def _observe_cycle(self, cycle) -> None:
        """Fold one controller cycle's control-plane work into the registry."""
        registry = self.obs.registry
        self._c_cycles.inc(mode=cycle.mode)
        for name, count in cycle.pmc_result.stats.cost_counters().items():
            registry.counter(f"pmc_{name}").inc(count)
        shards = cycle.pmc_result.shards
        if shards:
            reused = sum(1 for shard in shards if shard.reused)
            registry.counter("pmc_shards_reused").inc(reused)
            registry.counter("pmc_shards_solved").inc(len(shards) - reused)
            self._g_cache.set(reused / len(shards))

    # -------------------------------------------------------------------- run
    def run(self, duration: float) -> EngineResult:
        """Simulate ``duration`` seconds of monitoring; returns the timeline.

        The bounded :meth:`serve` stream drained to its horizon: one driver
        places every window close and controller cycle on the timeline.
        """
        wall = control = 0.0
        for served in self.serve(duration=duration):
            wall += served.wall_seconds
            control += served.control_wall_seconds
        return self.build_result(duration, wall, max(wall - control, 0.0))

    def build_result(
        self, duration: float, wall_seconds: float, probe_wall_seconds: float = 0.0
    ) -> EngineResult:
        """Snapshot the engine's timeline into an :class:`EngineResult`
        (shared by :meth:`run` and serve-mode callers)."""
        counters = CostModel(self.cost.as_dict())
        counters.add("probe_batches_fired", self._scheduler.batches_fired)
        counters.add("probes_sent", self._scheduler.probes_sent)
        counters.add("probes_lost", self._scheduler.probes_lost)
        counters.add("events_processed", self.loop.events_processed)
        if wall_seconds > 0:
            self._g_rate.set(
                self._scheduler.probes_sent
                / (probe_wall_seconds if probe_wall_seconds > 0 else wall_seconds)
            )
        return EngineResult(
            config=self.config,
            duration=duration,
            windows=list(self._windows),
            cycles=list(self._cycles),
            detections=sorted(self._records.values(), key=lambda r: (r.fault_start, r.link_id)),
            probes_sent=self._scheduler.probes_sent,
            probes_lost=self._scheduler.probes_lost,
            events_processed=self.loop.events_processed,
            wall_seconds=wall_seconds,
            counters=counters.as_dict(),
            probe_wall_seconds=probe_wall_seconds,
        )

    # ------------------------------------------------------------------ serve
    def serve(
        self,
        max_windows: Optional[int] = None,
        duration: Optional[float] = None,
    ):
        """Stream closed windows as they happen (the long-running serve mode).

        A generator of :class:`ServedWindow`: each ``next()`` advances
        simulated time to the next window boundary -- probes, fault
        transitions, and controller cycles all fire on the way -- and yields
        that window plus its per-window
        backpressure deltas (probes folded, events rejected as late, wall
        spent).  With neither bound the stream is indefinite: windows keep
        closing until the consumer stops iterating.  ``duration`` bounds the
        simulated horizon (a trailing partial window closes there, and a
        cycle exactly at the horizon plans nothing); ``max_windows`` bounds
        the number of windows yielded.
        """
        if duration is not None and duration <= 0:
            raise ValueError("duration must be positive")
        if max_windows is not None and max_windows < 1:
            raise ValueError("max_windows must be at least 1")
        config = self.config
        # Setup runs under the tracer (the bootstrap cycle emits PMC spans);
        # the activation is NOT held across yields -- each window re-activates
        # in _serve_one, so a suspended serve loop never leaks its tracer.
        with tracing.activated(self.obs.tracer):
            if self.system.cycle is None or self.system.diagnoser is None:
                self.system.run_controller_cycle(incremental=config.incremental_cycles)
            start = self.loop.clock.now
            horizon = None if duration is None else start + duration
            self._rearm()
            self.model.install(self.loop, math.inf if horizon is None else horizon)

            if config.run_controller_cycles:
                # Cycles self-reschedule one ahead on a fixed grid.
                def schedule_cycle(k: int) -> None:
                    at = start + k * config.cycle_seconds
                    if horizon is not None and at >= horizon:
                        return

                    def fire() -> None:
                        self._run_controller_cycle()
                        schedule_cycle(k + 1)

                    self.loop.schedule_at(at, fire, PRIORITY_CYCLE)

                schedule_cycle(1)

        num_windows = None
        trailing = False
        if duration is not None:
            num_windows = int(math.floor(duration / config.window_seconds + 1e-9))
            trailing = duration - num_windows * config.window_seconds > 1e-9

        served = 0
        k = 1
        while max_windows is None or served < max_windows:
            if num_windows is not None and k > num_windows:
                if trailing:
                    yield self._serve_one(horizon, partial=True)
                break
            yield self._serve_one(start + k * config.window_seconds)
            served += 1
            k += 1

    @informational_wall("ServedWindow wall/backpressure stats are informational")
    def _serve_one(self, target: float, partial: bool = False) -> ServedWindow:
        probes_before = self._scheduler.probes_sent
        lost_before = self._scheduler.probes_lost
        events_before = self.loop.events_processed
        # The shared cost model survives controller re-arms; the aggregator's
        # own total does not (a mid-window cycle replaces the aggregator).
        rejected_before = self.cost.get("aggregator_events_rejected")
        control_before = self._control_wall
        if partial:
            self.loop.schedule_at(
                target, lambda: self._close_window(target), PRIORITY_WINDOW
            )
        else:
            self.loop.schedule_at(target, self._close_window, PRIORITY_WINDOW)
        if self._profiler is not None:
            self._profiler.arm()
        started = _wall.perf_counter()
        with tracing.activated(self.obs.tracer):
            self.loop.run_until(target)
        wall = _wall.perf_counter() - started
        served = ServedWindow(
            window=self._windows[-1],
            probes_sent=self._scheduler.probes_sent - probes_before,
            probes_lost=self._scheduler.probes_lost - lost_before,
            rejected_events=self.cost.get("aggregator_events_rejected") - rejected_before,
            events_processed=self.loop.events_processed - events_before,
            wall_seconds=wall,
            control_wall_seconds=self._control_wall - control_before,
        )
        rate = served.probe_events_per_second
        if math.isfinite(rate):  # keep the informational export strict JSON
            self._g_rate.set(rate)
        return served

    # ------------------------------------------------------------- snapshot
    @classmethod
    def run_snapshot_window(
        cls,
        system: "DetectorSystem",
        window_seconds: Optional[float] = None,
        fold_stream: bool = True,
    ) -> SnapshotWindow:
        """The legacy static pipeline as a one-tick engine run.

        A frozen clock, one probe event firing every healthy pinger's whole
        window budget (in pinglist order, through the same scalar probing loop
        the pre-engine code used, so random draws are consumed identically),
        and one window-close event running the diagnoser.  This *is* the
        implementation of ``DetectorSystem.run_window``; the timed engine is
        the same dataflow with real intervals between the events.

        ``fold_stream=False`` skips the aggregator fold (and its per-link
        counter kernels) when the caller only needs reports + diagnosis.
        """
        clock = SimClock(0.0)
        clock.freeze()
        loop = EventLoop(clock)
        window = window_seconds or system.controller.config.report_interval_seconds
        aggregator = (
            StreamAggregator(
                system.probe_matrix.incidence, window_seconds=window, start_time=0.0
            )
            if fold_stream
            else None
        )
        reports: List["PingerReport"] = []
        state: Dict[str, object] = {"window": None}

        def probe_event() -> None:
            for report in system.iter_pinger_reports():
                reports.append(report)
                if aggregator is not None:
                    aggregator.ingest_report(report, 0.0)
                system.diagnoser.ingest(report)

        def close_event() -> None:
            if aggregator is not None:
                state["window"] = aggregator.close_window(0.0)
            state["diagnosis"] = system.diagnoser.run_window()

        loop.schedule_at(0.0, probe_event, PRIORITY_PROBE)
        loop.schedule_at(0.0, close_event, PRIORITY_PROBE + 1)
        loop.run()
        return SnapshotWindow(
            reports=reports, diagnosis=state["diagnosis"], window=state["window"]
        )
