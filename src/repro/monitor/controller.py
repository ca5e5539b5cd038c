"""The deTector controller (§3.1, §6.1).

Once per cycle (10 minutes in the paper) the controller

1. reads the current topology and server health from the watchdog,
2. runs PMC to construct the probe matrix,
3. selects 2-4 pinger servers under every ToR switch,
4. splits the probe matrix into per-pinger pinglists, giving every path to at
   least two pingers for fault tolerance, and
5. hands the pinglists to the pingers (XML over HTTP in the paper, direct
   objects here -- the XML serialisation is still exercised).

Two cycle flavours exist:

* :meth:`Controller.run_cycle` -- the paper's behaviour: rebuild everything
  from scratch against the watchdog's current health state.
* :meth:`Controller.run_incremental_cycle` -- the steady-state fast path: the
  delta since the previously planned
  :class:`~repro.topology.HealthSnapshot` is translated into link-mask
  updates on a cached :class:`~repro.core.incidence.IncidenceIndex`, PMC
  re-runs only over surviving candidate rows (with per-subproblem warm-start
  through a :class:`~repro.core.lazy_greedy.ShardedSolutionCache`), and the
  result is byte-identical to a cold rebuild on the same post-delta state.
  When churn exceeds ``ControllerConfig.churn_rebuild_threshold`` the method
  transparently falls back to a full rebuild.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..contracts import informational_wall, trace_record
from ..core import (
    PMCOptions,
    PMCResult,
    ProbeMatrix,
    ShardedSolutionCache,
    construct_probe_matrix,
    construct_probe_matrix_masked,
)
from ..routing import PathTable, RoutingMatrix, enumerate_candidate_paths
from ..topology import FatTreeTopology, HealthSnapshot, Topology, TopologyDelta
from .pinglist import Pinglist, PinglistEntry
from .watchdog import Watchdog

__all__ = ["ControllerConfig", "ControllerCycle", "Controller"]


@dataclass(frozen=True)
class ControllerConfig:
    """Controller tuning knobs.

    Attributes
    ----------
    alpha, beta:
        Coverage and identifiability targets handed to PMC.
    pingers_per_tor:
        How many servers under each ToR act as pingers (2-4 in the paper).
    path_replication:
        Every probe path is assigned to at least this many pingers under its
        source ToR so a single pinger failure does not lose link coverage.
    probes_per_second:
        Default probe sending rate for the pinglists (10 pps in the paper).
    loss_confirmation_probes:
        How many times a pinger re-sends a probe whose response timed out to
        confirm the loss pattern (2 in the paper, §3.1).  Set to 0 when an
        experiment needs an exact probe budget.
    cycle_seconds / report_interval_seconds:
        Probe-matrix recomputation period and result aggregation window.
    ordered_pairs:
        Enumerate candidate paths for ordered ToR pairs (paper counting) or
        unordered (default; both directions of a path probe the same links).
    churn_rebuild_threshold:
        Maximum number of changed network elements (links + switches, downs
        plus recoveries) an incremental cycle will absorb through incidence
        masking; larger deltas trigger a full rebuild.  The paper has no
        equivalent (it always rebuilds); the default of 8 comfortably covers
        the "handful of devices per 10-minute cycle" churn the paper's
        setting implies.
    shard_by_pods:
        Run PMC over the pod-sharded decomposition instead of exact
        connected components: one subproblem per pod plus a residual shard
        for cross-pod paths.  Shards solve independently (and in parallel
        with ``jobs > 1``), the warm :class:`~repro.core.ShardedSolutionCache`
        fills one bucket per pod, and incremental cycles re-solve only the
        shards the churn touched.
    jobs:
        Worker processes for PMC subproblem solves; ``None`` resolves
        through the ``REPRO_JOBS`` environment variable (default 1).
        Results are byte-identical at any setting.
    intrapod_paths:
        Enumerate the short ``edge -> agg -> edge`` intra-pod candidate
        paths as well (Fattree only; ignored elsewhere).  Without them every
        default Fattree candidate crosses the core, so the pod sharding
        degenerates to a single residual shard.
    """

    alpha: int = 3
    beta: int = 1
    pingers_per_tor: int = 2
    path_replication: int = 2
    probes_per_second: float = 10.0
    loss_confirmation_probes: int = 2
    cycle_seconds: float = 600.0
    report_interval_seconds: float = 30.0
    ordered_pairs: bool = False
    churn_rebuild_threshold: int = 8
    shard_by_pods: bool = False
    jobs: Optional[int] = None
    intrapod_paths: bool = False

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.pingers_per_tor < 1:
            raise ValueError("pingers_per_tor must be >= 1")
        if self.path_replication < 1:
            raise ValueError("path_replication must be >= 1")
        if self.probes_per_second <= 0:
            raise ValueError("probes_per_second must be positive")
        if self.loss_confirmation_probes < 0:
            raise ValueError("loss_confirmation_probes must be non-negative")
        if self.churn_rebuild_threshold < 0:
            raise ValueError("churn_rebuild_threshold must be non-negative")


@dataclass
class ControllerCycle:
    """Everything produced by one controller cycle.

    ``mode`` records how the cycle was computed (``"full"`` rebuild or
    ``"incremental"`` masked update), ``delta`` the churn consumed since the
    previous cycle (``None`` for the first cycle), and ``changed_pingers``
    which pinglists actually differ from the previous cycle's -- the set a
    production controller would re-push over HTTP (incremental cycles only).

    With ``ControllerConfig.shard_by_pods``, ``touched_shards`` lists the
    pods whose shard was actually re-solved this cycle (``reused`` is false
    on its :class:`~repro.core.ShardOutcome`); shards replayed from the warm
    cache are excluded.  ``None`` when PMC ran unsharded.
    """

    version: int
    probe_matrix: ProbeMatrix
    pmc_result: PMCResult
    pinger_assignment: Dict[str, List[str]]
    pinglists: Dict[str, Pinglist]
    mode: str = "full"
    delta: Optional[TopologyDelta] = None
    changed_pingers: Optional[Tuple[str, ...]] = None
    touched_shards: Optional[Tuple[int, ...]] = None

    @property
    def num_pingers(self) -> int:
        return len(self.pinglists)

    def pinglist_for(self, server: str) -> Pinglist:
        return self.pinglists[server]


class Controller:
    """Builds probe matrices and distributes pinglists."""

    def __init__(
        self,
        topology: Topology,
        config: Optional[ControllerConfig] = None,
        watchdog: Optional[Watchdog] = None,
    ):
        self.topology = topology
        self.config = config or ControllerConfig()
        self.watchdog = watchdog or Watchdog(topology)
        self._version = 0
        # Incremental-cycle state: the candidate enumeration and its routing
        # matrix are pure functions of the (immutable) topology, so they are
        # computed once and shared by every subsequent cycle; the warm cache
        # memoizes solved CELF subproblems by content digest, one bucket per
        # pod so churn in one pod cannot evict another pod's cached solution.
        self._candidate_paths: Optional[PathTable] = None
        self._full_matrix: Optional[RoutingMatrix] = None
        self._warm = ShardedSolutionCache()
        self._planned_snapshot: Optional[HealthSnapshot] = None
        self._last_cycle: Optional[ControllerCycle] = None

    # ----------------------------------------------------------- shared state
    def _pmc_options(self) -> PMCOptions:
        config = self.config
        return PMCOptions(
            alpha=config.alpha,
            beta=config.beta,
            shard_by_pods=config.shard_by_pods,
            jobs=config.jobs,
        )

    def candidate_paths(self) -> PathTable:
        """The pristine topology's candidate table (computed once, cached)."""
        if self._candidate_paths is None:
            kwargs = {}
            if self.config.intrapod_paths and isinstance(self.topology, FatTreeTopology):
                kwargs["include_intrapod_agg"] = True
            self._candidate_paths = enumerate_candidate_paths(
                self.topology, ordered=self.config.ordered_pairs, **kwargs
            )
        return self._candidate_paths

    def _full_routing_matrix(self) -> RoutingMatrix:
        """Routing matrix over *all* candidate paths (the maskable cache)."""
        if self._full_matrix is None:
            self._full_matrix = RoutingMatrix(self.topology, self.candidate_paths())
        return self._full_matrix

    def close(self) -> None:
        """Release dispatch-plane resources held by the cached routing matrix.

        Pod-sharded dispatch may have exported the cached matrix's incidence
        into a shared-memory segment (see
        :meth:`~repro.core.incidence.IncidenceIndex.share`); retiring the
        controller unlinks it.  Idempotent, and safe on controllers that
        never dispatched -- nothing was shared, nothing is released.  The
        process-exit sweep covers controllers nobody closes.
        """
        if self._full_matrix is not None:
            self._full_matrix.incidence.release_share()

    # --------------------------------------------------------------- PMC step
    def compute_probe_matrix(self) -> PMCResult:
        """Run PMC against the watchdog's current health state (cold rebuild).

        Candidate paths are enumerated on the *pristine* topology and paths
        crossing any known-bad element are dropped (§6.1, footnote 4), so the
        probe matrix stays expressed in the original topology's link ids --
        the frame of reference the simulator, the diagnoser and the
        experiments share.  Filtering the pristine enumeration (rather than
        re-enumerating on a failure-trimmed graph) keeps the specialised
        Fattree/VL2/BCube enumerators in play and is exactly the semantics
        the incremental cycle reproduces through link masks.
        """
        failed = self.watchdog.failed_probe_link_ids()
        if failed:
            paths = self.candidate_paths().without_links(failed)
            routing_matrix = RoutingMatrix(self.topology, paths)
        else:
            routing_matrix = self._full_routing_matrix()
        return construct_probe_matrix(routing_matrix, self._pmc_options())

    # ----------------------------------------------------------- pinger step
    def _healthy_servers(self) -> Dict[str, List[str]]:
        """``{ToR: its healthy servers}``: one watchdog read per ToR, shared by a cycle."""
        return {
            tor.name: self.watchdog.healthy_servers_under(tor.name)
            for tor in self.topology.tor_switches
        }

    def select_pingers(
        self, healthy: Optional[Mapping[str, List[str]]] = None
    ) -> Dict[str, List[str]]:
        """Choose pinger servers under every ToR switch.

        ToRs without healthy servers (or topologies without servers at all,
        e.g. BCube where servers are modelled as switches) fall back to using
        the ToR node itself as the probing endpoint.  ``healthy`` is the
        cycle's ``{ToR: healthy servers}`` read, if the caller already has it.
        """
        config = self.config
        if healthy is None:
            healthy = self._healthy_servers()
        assignment: Dict[str, List[str]] = {}
        for tor in self.topology.tor_switches:
            servers = healthy[tor.name]
            if servers:
                assignment[tor.name] = servers[: config.pingers_per_tor]
            else:
                assignment[tor.name] = [tor.name]
        return assignment

    # --------------------------------------------------------- pinglist step
    @informational_wall("the controller.pinglist span's wall_seconds is informational; its labels are the record")
    def build_pinglists(
        self,
        probe_matrix: ProbeMatrix,
        pinger_assignment: Mapping[str, Sequence[str]],
        healthy: Optional[Mapping[str, List[str]]] = None,
    ) -> Dict[str, Pinglist]:
        """Split the probe matrix rows into per-pinger pinglists.

        Responders come from ``healthy`` (``{ToR: healthy servers}``, see
        :meth:`select_pingers`); a destination it lacks is read from the
        watchdog once per build, not once per path.  Emits one
        ``controller.pinglist`` span labelled with the pingers and entries built.
        """
        started = time.perf_counter()
        config = self.config
        servers_of: Dict[str, List[str]] = dict(healthy) if healthy is not None else {}
        pinglists: Dict[str, Pinglist] = {}
        for tor_name, pingers in pinger_assignment.items():
            intra_rack = [
                node.name
                for node in self.topology.servers_under(tor_name)
                if node.name not in pingers
            ] if self.topology.node(tor_name).is_switch else []
            for pinger in pingers:
                pinglists[pinger] = Pinglist(
                    version=self._version + 1,
                    pinger_server=pinger,
                    intra_rack_targets=tuple(intra_rack),
                    probes_per_second=config.probes_per_second,
                    cycle_seconds=config.cycle_seconds,
                    report_interval_seconds=config.report_interval_seconds,
                )

        for path_index, path in enumerate(probe_matrix.paths):
            pingers = list(pinger_assignment.get(path.src, []))
            if not pingers:
                continue
            replication = min(config.path_replication, len(pingers))
            # Rotate the starting pinger with the path index so load spreads
            # evenly across the pingers of a rack.
            start = path_index % len(pingers)
            chosen = [pingers[(start + offset) % len(pingers)] for offset in range(replication)]
            target = self._target_server(path.dst, path_index, servers_of)
            for pinger in chosen:
                pinglists[pinger].entries.append(
                    PinglistEntry(
                        path_index=path_index,
                        target_server=target,
                        waypoint=path.via,
                        node_walk=path.nodes,
                    )
                )
        trace_record(
            "controller.pinglist",
            wall_seconds=time.perf_counter() - started,
            # Informational: pooled experiments run controllers in workers,
            # which never trace, so the span's existence depends on ``jobs``.
            informational=True,
            pingers=len(pinglists),
            entries=sum(len(pinglist.entries) for pinglist in pinglists.values()),
        )
        return pinglists

    def _target_server(
        self, dst_tor: str, path_index: int, servers_of: Dict[str, List[str]]
    ) -> str:
        """Pick the responder server under the destination ToR for a path."""
        node = self.topology.node(dst_tor)
        if not node.is_switch:
            return dst_tor
        servers = servers_of.get(dst_tor)
        if servers is None:
            servers = servers_of[dst_tor] = self.watchdog.healthy_servers_under(dst_tor)
        if not servers:
            return dst_tor
        return servers[path_index % len(servers)]

    # ------------------------------------------------------------------ cycle
    def _finish_cycle(
        self,
        pmc_result: PMCResult,
        mode: str,
        delta: Optional[TopologyDelta],
    ) -> ControllerCycle:
        healthy = self._healthy_servers()
        pinger_assignment = self.select_pingers(healthy)
        pinglists = self.build_pinglists(pmc_result.probe_matrix, pinger_assignment, healthy)
        changed: Optional[Tuple[str, ...]] = None
        if mode == "incremental" and self._last_cycle is not None:
            changed = self._diff_pinglists(self._last_cycle.pinglists, pinglists)
        touched: Optional[Tuple[int, ...]] = None
        if self.config.shard_by_pods:
            touched = tuple(
                shard.pod for shard in pmc_result.shards if not shard.reused
            )
        self._version += 1
        self._planned_snapshot = self.watchdog.snapshot()
        cycle = ControllerCycle(
            version=self._version,
            probe_matrix=pmc_result.probe_matrix,
            pmc_result=pmc_result,
            pinger_assignment=pinger_assignment,
            pinglists=pinglists,
            mode=mode,
            delta=delta,
            changed_pingers=changed,
            touched_shards=touched,
        )
        self._last_cycle = cycle
        return cycle

    @staticmethod
    def _diff_pinglists(
        old: Mapping[str, Pinglist], new: Mapping[str, Pinglist]
    ) -> Tuple[str, ...]:
        """Pingers whose work orders changed (ignoring the version stamp)."""
        changed = []
        for name in sorted(set(old) | set(new)):
            before, after = old.get(name), new.get(name)
            if (
                before is None
                or after is None
                or before.entries != after.entries
                or before.intra_rack_targets != after.intra_rack_targets
            ):
                changed.append(name)
        return tuple(changed)

    def run_cycle(self) -> ControllerCycle:
        """One full path-computation cycle (complete rebuild, §3.1)."""
        delta = None
        if self._planned_snapshot is not None:
            delta = TopologyDelta.between(self._planned_snapshot, self.watchdog.snapshot())
        return self._finish_cycle(self.compute_probe_matrix(), mode="full", delta=delta)

    def run_incremental_cycle(self) -> ControllerCycle:
        """One churn-aware cycle: mask the delta instead of rebuilding.

        Consumes the :class:`~repro.topology.TopologyDelta` between the last
        planned snapshot and the watchdog's current one.  Small deltas are
        translated into ``apply_link_mask`` / ``revert_link_mask`` calls on
        the cached incidence index and PMC re-runs only over the surviving
        candidate rows (warm-started per decomposition subproblem), which is
        byte-identical to -- and much cheaper than -- a cold rebuild.  Falls
        back to :meth:`run_cycle` for the first cycle or when churn exceeds
        ``ControllerConfig.churn_rebuild_threshold``.
        """
        snapshot = self.watchdog.snapshot()
        delta = (
            TopologyDelta.between(self._planned_snapshot, snapshot)
            if self._planned_snapshot is not None
            else None
        )
        if delta is None or delta.churn > self.config.churn_rebuild_threshold:
            return self._finish_cycle(self.compute_probe_matrix(), mode="full", delta=delta)

        matrix = self._full_routing_matrix()
        index = matrix.incidence
        target = {
            link_id
            for link_id in self.watchdog.failed_probe_link_ids()
            if index.contains_link(link_id)
        }
        current = set(index.masked_link_ids)
        index.apply_link_mask(sorted(target - current))
        index.revert_link_mask(sorted(current - target))
        pmc_result = construct_probe_matrix_masked(
            matrix, self._pmc_options(), warm=self._warm
        )
        return self._finish_cycle(pmc_result, mode="incremental", delta=delta)
