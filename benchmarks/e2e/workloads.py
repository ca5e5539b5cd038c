"""Workload definitions and seeded input generation for the e2e benchmark.

Every workload runs the same chain -- cold plan, warm-up, churn cycles,
served windows -- and differs only in its *inputs*: the fabric, the controller
configuration, how many cycles and windows it measures, and the fault mix the
served windows see.  That is what lets every workload report every end-to-end
metric while each one still puts a different layer in charge of the wall time
(see ``README.md`` for the table of which layer carries which workload).

Inputs are a pure function of ``--seed``.  Their *shape* is fixed and only the
*identity* of the touched links is drawn from the seed: the churn schedule is a
repeating five-cycle unit and fault links are drawn per tier, so two seeds do
the same amount of work on symmetric-equivalent links.  A Poisson schedule
(``ChurnSchedule.generate``) would make ``cycle_s_mean`` swing by whole
multiples between seeds -- one extra two-links-down cycle costs 9 s on
``control_ft12_pods`` -- and the benchmark could not tell a regression from a
lucky draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.engine import (
    CongestionEpisode,
    EngineConfig,
    FaultEpisode,
    FlappingLink,
    GrayFailure,
)
from repro.monitor import ControllerConfig
from repro.simulation import SeededStreams
from repro.topology import Topology, TopologyDelta, build_fattree

__all__ = ["CYCLES_PER_UNIT", "ENGINE_CONFIG", "PLANS", "WORKLOADS", "Inputs", "Workload", "generate_inputs"]

#: The paper's timing (30 s windows, 10-minute cycles) at the stress probe
#: rate the old engine bench uses (10x the paper's 10 pps).
ENGINE_CONFIG = EngineConfig(
    window_seconds=30.0,
    cycle_seconds=600.0,
    probes_per_second=100.0,
    probe_batch_seconds=1.0,
    aggregator_shards=16,
)

#: Cold plans per run: two samples of ``plan_s``, and two digests to compare.
PLANS = 2

#: Length of the repeating churn unit built by :func:`_churn_deltas`.
CYCLES_PER_UNIT = 5

#: Fabric of every ``--smoke`` run: seconds in total, same code paths.
SMOKE_K = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fabric, a controller config and a work mix.

    ``churn_units`` and ``windows`` are sized for ``--seconds 10`` on the
    2-core sizing box and scale linearly with ``--seconds``; the ``PLANS``
    cold plans do not (a cold plan is a one-off, not part of the closed loop).
    ``faults`` names the fault mix of the served windows: ``none``,
    ``steady`` (3 slow-flapping links) or ``storm`` (6 % of switch links
    flapping, congested or gray).  ``fabric_plans`` appends one cold plan
    each of a BCube and a VL2 fabric to the traced run (``fabric.*``).  Why
    each workload is here is one line in ``BENCHMARK.json``, more in the README.
    """

    name: str
    fattree_k: int
    controller: ControllerConfig
    churn_units: int
    windows: int
    faults: str
    cold_gate: bool = True
    fabric_plans: bool = False

    def topology(self, smoke: bool) -> Topology:
        return build_fattree(SMOKE_K if smoke else self.fattree_k)

    def counts(self, seconds: float, smoke: bool) -> Tuple[int, int]:
        """(churn cycles, served windows) measured at ``--seconds``."""
        if smoke:
            return CYCLES_PER_UNIT, 4
        scale = seconds / 10.0
        units = max(1, round(self.churn_units * scale))
        return units * CYCLES_PER_UNIT, max(4, round(self.windows * scale))


_SERIAL = ControllerConfig(alpha=2, beta=1, jobs=1)
_PODS = ControllerConfig(alpha=2, beta=1, shard_by_pods=True, intrapod_paths=True, jobs=2)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady_ft16",
            fattree_k=16,
            controller=_SERIAL,
            churn_units=2,
            windows=100,
            faults="steady",
            cold_gate=False,
            fabric_plans=True,
        ),
        Workload(
            name="pods_ft12",
            fattree_k=12,
            controller=_PODS,
            churn_units=2,
            windows=40,
            faults="none",
        ),
        Workload(
            name="storm_ft12",
            fattree_k=12,
            controller=_SERIAL,
            churn_units=3,
            windows=18,
            faults="storm",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything the program is handed: plain deltas and fault episodes."""

    churn: Tuple[TopologyDelta, ...]
    episodes: Tuple[FaultEpisode, ...]


class _TierPools:
    """Per-tier shuffled link pools; every taken link is used once."""

    def __init__(self, topology: Topology, rng) -> None:
        groups = {
            tiers: links
            for tiers, links in topology.links_by_tier_pair().items()
            if "server" not in tiers
        }
        # Sorted tier pairs: on a fat-tree index 0 is aggregation-core (owned
        # by no pod) and index -1 aggregation-edge (owned by one pod).
        self._pools: List[List[int]] = [
            [int(groups[tiers][i].link_id) for i in rng.permutation(len(groups[tiers]))]
            for tiers in sorted(groups)
        ]

    def take(self, tier: int) -> int:
        return self._pools[tier % len(self._pools)].pop()


def _churn_deltas(pools: _TierPools, cycles: int) -> List[TopologyDelta]:
    """The repeating five-cycle unit; failed links after each cycle: 1 2 1 1 0.

    One core-tier failure, a second concurrent edge-tier failure (the state
    with >= 2 links down is the pod-sharded controller's slow mode), a
    recovery, a two-event swap and a final recovery that replays the pristine
    plan from the warm cache.  Three of the five re-solve and two mostly
    replay, so the median cycle sits inside the re-solve mode instead of in
    the gap between the two.
    """
    deltas: List[TopologyDelta] = []
    while len(deltas) < cycles:
        a, b, c = pools.take(0), pools.take(-1), pools.take(0)
        deltas += [
            TopologyDelta(failed_links=(a,)),
            TopologyDelta(failed_links=(b,)),
            TopologyDelta(recovered_links=(a,)),
            TopologyDelta(failed_links=(c,), recovered_links=(b,)),
            TopologyDelta(recovered_links=(c,)),
        ]
    return deltas[:cycles]


def _episodes(pools: _TierPools, faults: str, switch_links: int) -> List[FaultEpisode]:
    """Fault episodes of the served windows, staggered from t=30 s."""
    if faults == "none":
        return []
    if faults == "steady":
        return [
            FlappingLink(
                link_id=pools.take(j),
                start_time=30.0,
                half_life_up_seconds=300.0,
                half_life_down_seconds=60.0,
            )
            for j in range(3)
        ]
    if faults != "storm":
        raise ValueError(f"unknown fault mix {faults!r}")
    n = max(1, switch_links // 50)
    episodes: List[FaultEpisode] = []
    # 20 s half-lives: a link flips about 19 times in the 540 simulated s of a
    # ``--seconds 10`` run, so the share of time the flappers are down -- and
    # with it the share of dirty rows -- is close to one half on every seed.
    for j in range(n):
        episodes.append(
            FlappingLink(
                link_id=pools.take(j),
                start_time=30.0 + j,
                half_life_up_seconds=20.0,
                half_life_down_seconds=20.0,
            )
        )
    for j in range(n):
        episodes.append(
            CongestionEpisode(
                link_id=pools.take(j),
                start_time=30.0 + j,
                duration_seconds=1e9,  # the whole run
                loss_rate=0.05,
            )
        )
    for j in range(n):
        episodes.append(
            GrayFailure(link_id=pools.take(j), start_time=30.0 + j, match_fraction=0.125)
        )
    return episodes


def generate_inputs(
    workload: Workload, topology: Topology, streams: SeededStreams, cycles: int, windows: int
) -> Inputs:
    """Churn for the measured cycles plus every cycle event of the serve."""
    pools = _TierPools(topology, streams.generator("link-placement"))
    horizon = windows * ENGINE_CONFIG.window_seconds
    cycle_events = int(horizon // ENGINE_CONFIG.cycle_seconds)
    churn = _churn_deltas(pools, cycles + cycle_events)
    episodes = _episodes(pools, workload.faults, len(topology.switch_links))
    return Inputs(churn=tuple(churn), episodes=tuple(episodes))
