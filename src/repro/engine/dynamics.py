"""Time-evolving fault models: gray failures, flaps, congestion, outages.

The static :class:`~repro.simulation.failures.FailureScenario` describes one
frozen instant; real fabrics fail *over time* -- links flap, congestion
episodes raise loss for a while, gray failures silently blackhole a slice of
the flow space, a whole switch goes dark.  :class:`DynamicFaultModel` owns a
live scenario object shared with the :class:`~repro.simulation.ProbeSimulator`
and mutates it through transition events on the engine's
:class:`~repro.engine.loop.EventLoop`, keeping a full transition history and
per-link fault intervals so detection latency can be measured against ground
truth.

None of these faults are reported to the watchdog -- they are exactly the
failures deTector exists to *detect* from probe losses.  Known control-plane
churn (maintenance, reported downs) rides separately on the existing
:class:`~repro.simulation.failures.ChurnSchedule`, which the model replays
into the watchdog one delta per controller cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import tracing
from ..simulation.failures import ChurnSchedule, FailureScenario, LinkFailure, LossMode
from ..simulation.rng import SeededStreams
from ..topology import Topology, TopologyDelta
from .loop import EventLoop

__all__ = [
    "FaultTransition",
    "FaultEpisode",
    "FlappingLink",
    "CongestionEpisode",
    "GrayFailure",
    "SwitchOutage",
    "DynamicFaultModel",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class FaultTransition:
    """One ground-truth state change of the fault model."""

    time: float
    link_id: int
    active: bool
    kind: str


class FaultEpisode:
    """Base class: one fault process over a set of links.

    Subclasses implement :meth:`install`, scheduling their transition events
    on the loop.  ``horizon`` is the engine's end of time; open-ended episodes
    simply never schedule a recovery before it.
    """

    kind = "fault"

    def install(self, model: "DynamicFaultModel", loop: EventLoop, horizon: float) -> None:
        raise NotImplementedError


@dataclass
class FlappingLink(FaultEpisode):
    """A link that alternates between healthy and lossy states.

    Dwell times are exponential: the state survives time ``t`` with
    probability ``2**(-t / half_life)``, so ``half_life_*_seconds`` is
    literally the state's half-life.  While down the link drops packets at
    ``down_loss_rate`` (1.0 = full loss).
    """

    link_id: int
    start_time: float = 0.0
    end_time: Optional[float] = None
    half_life_up_seconds: float = 60.0
    half_life_down_seconds: float = 20.0
    down_loss_rate: float = 1.0
    kind = "flap"

    def install(self, model: "DynamicFaultModel", loop: EventLoop, horizon: float) -> None:
        end = horizon if self.end_time is None else min(self.end_time, horizon)
        rng = model.rng

        def dwell(half_life: float) -> float:
            return float(rng.exponential(half_life / _LN2))

        def go_down() -> None:
            if loop.clock.now >= end:
                return
            model.activate(self.link_id, self._failure(), self.kind)
            loop.schedule_after(dwell(self.half_life_down_seconds), go_up)

        def go_up() -> None:
            model.deactivate(self.link_id, self.kind)
            if loop.clock.now < end:
                loop.schedule_after(dwell(self.half_life_up_seconds), go_down)

        first_down = self.start_time + dwell(self.half_life_up_seconds)
        if first_down < end:
            loop.schedule_at(first_down, go_down)

    def _failure(self) -> LinkFailure:
        if self.down_loss_rate >= 1.0:
            return LinkFailure(link_id=self.link_id, mode=LossMode.FULL)
        return LinkFailure(
            link_id=self.link_id,
            mode=LossMode.RANDOM_PARTIAL,
            loss_rate=self.down_loss_rate,
        )


@dataclass
class CongestionEpisode(FaultEpisode):
    """Elevated-but-not-total random loss on a link for a fixed duration.

    Models buffer-overflow loss (§6.2 "random partial loss"): probes drop
    with ``loss_rate`` (default 5%), far above noise yet far below link-down.
    """

    link_id: int
    start_time: float
    duration_seconds: float
    loss_rate: float = 0.05
    kind = "congestion"

    def install(self, model: "DynamicFaultModel", loop: EventLoop, horizon: float) -> None:
        if self.start_time >= horizon:
            return
        failure = LinkFailure(
            link_id=self.link_id, mode=LossMode.RANDOM_PARTIAL, loss_rate=self.loss_rate
        )
        loop.schedule_at(
            self.start_time, lambda: model.activate(self.link_id, failure, self.kind)
        )
        end = self.start_time + self.duration_seconds
        if end < horizon:
            loop.schedule_at(end, lambda: model.deactivate(self.link_id, self.kind))


@dataclass
class GrayFailure(FaultEpisode):
    """A silent blackhole: a fixed slice of the flow space is dropped.

    The deterministic-partial loss class of §6.2 -- packets whose 5-tuple
    hash lands in ``match_fraction`` of the flow space vanish, everything
    else is perfect.  Invisible to counters and to the watchdog; only pinned
    probes with port entropy can see it.  Persists until ``end_time`` (or the
    horizon).
    """

    link_id: int
    start_time: float = 0.0
    end_time: Optional[float] = None
    match_fraction: float = 0.125
    salt: int = 0
    kind = "gray"

    def install(self, model: "DynamicFaultModel", loop: EventLoop, horizon: float) -> None:
        if self.start_time >= horizon:
            return
        failure = LinkFailure(
            link_id=self.link_id,
            mode=LossMode.DETERMINISTIC_PARTIAL,
            match_fraction=self.match_fraction,
            salt=self.salt,
        )
        loop.schedule_at(
            self.start_time, lambda: model.activate(self.link_id, failure, self.kind)
        )
        if self.end_time is not None and self.end_time < horizon:
            loop.schedule_at(self.end_time, lambda: model.deactivate(self.link_id, self.kind))


@dataclass
class SwitchOutage(FaultEpisode):
    """A correlated switch-wide outage: every incident link drops everything.

    How the testbed emulates switch-down (§6.2).  The affected link set is
    resolved from the topology at install time.
    """

    switch_name: str
    start_time: float
    duration_seconds: float
    kind = "switch_outage"

    def install(self, model: "DynamicFaultModel", loop: EventLoop, horizon: float) -> None:
        if self.start_time >= horizon:
            return
        link_ids = [link.link_id for link in model.topology.links_of(self.switch_name)]

        def down() -> None:
            for link_id in link_ids:
                model.activate(link_id, LinkFailure(link_id=link_id, mode=LossMode.FULL), self.kind)

        def up() -> None:
            for link_id in link_ids:
                model.deactivate(link_id, self.kind)

        loop.schedule_at(self.start_time, down)
        end = self.start_time + self.duration_seconds
        if end < horizon:
            loop.schedule_at(end, up)


class DynamicFaultModel:
    """Evolves a live :class:`FailureScenario` through scheduled transitions.

    The model owns the scenario object the probe simulator reads on every
    probe, so activations/deactivations take effect mid-window, exactly like
    a real fault would.  ``fault_intervals`` records ground truth as
    ``link_id -> [[start, end-or-None], ...]`` for latency accounting, and an
    optional :class:`ChurnSchedule` supplies the *known* control-plane churn
    the engine replays into the watchdog at controller-cycle boundaries.
    """

    def __init__(
        self,
        topology: Topology,
        episodes: Sequence[FaultEpisode] = (),
        rng: Optional[np.random.Generator] = None,
        churn_schedule: Optional[ChurnSchedule] = None,
        scenario: Optional[FailureScenario] = None,
    ):
        self.topology = topology
        self.episodes = list(episodes)
        # Like the engine's probe-jitter stream, the default dwell-time
        # randomness comes from a named SeededStreams stream rather than a
        # bare ``default_rng`` (explicit callers pass
        # ``streams.generator("fault-dynamics")``).
        self.rng = rng if rng is not None else SeededStreams(0).generator("fault-dynamics")
        self.churn_schedule = churn_schedule
        self.scenario = scenario if scenario is not None else FailureScenario(
            description="dynamic fault model"
        )
        self.transitions: List[FaultTransition] = []
        self.fault_intervals: Dict[int, List[List[Optional[float]]]] = {}
        # Per-link stack of the episodes currently holding the link faulty, as
        # (kind, failure): overlapping episodes (e.g. two switch outages
        # sharing a link, or a flap on a gray link) compose -- the newest
        # holder's failure is in force, and the link only heals when the last
        # holder releases it.
        self._holders: Dict[int, List[Tuple[str, LinkFailure]]] = {}

    # ------------------------------------------------------------- factories
    @classmethod
    def static(cls, topology: Topology, scenario: FailureScenario) -> "DynamicFaultModel":
        """A frozen model: the given scenario, active from t=0, no dynamics."""
        model = cls(topology, episodes=(), scenario=scenario)
        for link_id in scenario.bad_link_ids:
            model.fault_intervals[link_id] = [[0.0, None]]
        return model

    # ------------------------------------------------------------- installing
    def install(self, loop: EventLoop, horizon: float) -> None:
        """Schedule every episode's transitions on the loop."""
        self._loop = loop
        for episode in self.episodes:
            episode.install(self, loop, horizon)

    # ------------------------------------------------------------ transitions
    def activate(self, link_id: int, failure: LinkFailure, kind: str) -> None:
        """Turn a fault on at the loop's current instant.

        Episode holds on a link stack up: a second episode activating an
        already-faulty link overrides the drop behaviour while it holds the
        link (the newest failure is in force), and the link stays faulty until
        *every* holder deactivates.
        """
        now = self._now()
        self.scenario.add(failure)
        holders = self._holders.setdefault(link_id, [])
        holders.append((kind, failure))
        if len(holders) == 1:  # the transitions log records actual state changes only
            self.transitions.append(FaultTransition(now, link_id, True, kind))
            tracing.record("fault.transition", link=link_id, faulty=True, kind=kind)
        intervals = self.fault_intervals.setdefault(link_id, [])
        if not intervals or intervals[-1][1] is not None:
            intervals.append([now, None])

    def deactivate(self, link_id: int, kind: str) -> None:
        """Release the newest hold of episode kind ``kind`` on the link.

        Releasing the hold in force puts the newest remaining holder's failure
        back in force; the fault clears with the last hold.  A kind holding
        nothing on the link is a no-op.
        """
        holders = self._holders.get(link_id, [])
        released = next(
            (i for i in reversed(range(len(holders))) if holders[i][0] == kind), None
        )
        if released is None:
            return
        del holders[released]
        if holders:
            if released == len(holders):  # the failure in force was released
                self.scenario.add(holders[-1][1])
            return
        del self._holders[link_id]
        now = self._now()
        self.transitions.append(FaultTransition(now, link_id, False, kind))
        tracing.record("fault.transition", link=link_id, faulty=False, kind=kind)
        self.scenario.remove(link_id)
        intervals = self.fault_intervals.get(link_id)
        if intervals and intervals[-1][1] is None:
            intervals[-1][1] = now

    def _now(self) -> float:
        loop = getattr(self, "_loop", None)
        return loop.clock.now if loop is not None else 0.0

    # ------------------------------------------------------------------ views
    def active_fault_links(self) -> List[int]:
        """Links currently dropping packets, sorted."""
        return sorted(self.scenario.failures)

    def faulty_links_before(self, time: float) -> List[int]:
        """Links whose first fault interval started before ``time``."""
        return sorted(
            link
            for link, intervals in self.fault_intervals.items()
            if intervals and intervals[0][0] < time
        )

    def fault_start(self, link_id: int) -> Optional[float]:
        """When the link first became faulty (ground truth), if ever."""
        intervals = self.fault_intervals.get(link_id)
        return intervals[0][0] if intervals else None

    def churn_delta(self, cycle_index: int) -> Optional[TopologyDelta]:
        """The known-churn delta for a controller cycle, if a schedule exists."""
        if self.churn_schedule is None or cycle_index >= len(self.churn_schedule):
            return None
        return self.churn_schedule[cycle_index]
