"""Packet-level probing simulator.

This is the substitute for the paper's 20-switch SDN testbed: probes are
simulated packets that traverse the links of their (pinned or ECMP-chosen)
path; each failed link drops them according to its :class:`LossMode`.  The
round trip is modelled explicitly -- the echoed response traverses the same
links in the reverse direction and can be dropped too, which is why deTector
treats links as undirected (§4.1).

The simulator is deliberately stateless about time: an "aggregation window" is
just a number of probes per path.  All randomness flows through an explicit
``numpy.random.Generator``.

Every pinned and ECMP probe goes through one kernel,
:meth:`ProbeSimulator.probe_paths_bulk`.  It answers a whole drain of
``(path, count)`` rows from a plan compiled per primed path table and patched
per scenario version (only the rows crossing a changed link are recompiled)
-- clean rows by a mask, rows crossing only full-loss / deterministic-partial
links closed-form from a per-port "first link that drops it" table, rows
crossing a random-partial link in one plain-Python pass over one block of
uniform variates per drain.  The telemetry engine's scheduler sends count-k
rows; pinger windows (:meth:`ProbeSimulator.probe_rows`), the paper
experiments (:meth:`ProbeSimulator.observe_probe_matrix`) and the ECMP
baselines (primed rows the baselines route to) send one count-1 row per
probe, in packet order, which is draw for draw what a per-packet round-trip
loop does.  The per-packet loops and the one-row-per-call
:meth:`ProbeSimulator.probe_path_batch` are the references
(``tests/scalar_probe_oracle.py``, ``tests/per_event_oracle.py``): they agree
with the bulk kernel on ``(sent, lost)``, ``drops_per_link`` and the
generator state after every call (``docs/INVARIANTS.md``).  One-way
transmission with a TTL (:meth:`ProbeSimulator.transmit`) stays per packet
for fbtracert's traces, which walk failed links in hop order where a bulk row
walks ``link_ids`` order (they differ on 2 092 of 2 268 Fattree(8) rows,
taking every seventh): on the bulk kernel they would draw differently.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..contracts import informational_wall, trace_record
from ..core import ProbeMatrix
from ..localization import ObservationSet
from ..routing import Path, PathTable, ProbePacket
from ..topology import Topology
from .failures import FailureScenario, LinkFailure, LossMode

__all__ = ["ProbeConfig", "ProbeSimulator"]


@dataclass(frozen=True)
class ProbeConfig:
    """How a pinger exercises one probe path during a window (§6.1).

    Attributes
    ----------
    probes_per_path:
        Number of probe packets sent on each path during the window.
    port_range:
        The pinger loops over this many source ports to increase packet
        entropy; deterministic blackholes then hit only a subset of probes.
    base_port:
        First source port of the loop.
    destination_port:
        The UDP port responders listen on.
    dscp_values:
        DSCP values cycled across probes (different QoS classes).
    """

    probes_per_path: int = 5
    port_range: int = 16
    base_port: int = 33434
    destination_port: int = 53535
    dscp_values: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.probes_per_path < 1:
            raise ValueError("probes_per_path must be >= 1")
        if self.port_range < 1:
            raise ValueError("port_range must be >= 1")
        if not self.dscp_values:
            raise ValueError("dscp_values must not be empty")

    def packet_for(self, path: Path, sequence: int) -> ProbePacket:
        """The probe packet for the ``sequence``-th probe of a path."""
        return ProbePacket(
            src_server=path.src,
            dst_server=path.dst,
            src_port=self.base_port + (sequence % self.port_range),
            dst_port=self.destination_port,
            dscp=self.dscp_values[sequence % len(self.dscp_values)],
            sequence=sequence,
        )


# How one failed link of a compiled path treats the probes that reach it.
_FULL, _MATCH, _RANDOM = range(3)

#: What of a :class:`ProbeConfig` decides a probe's flow key:
#: ``(base_port, port_range, destination_port)``.
_Signature = Tuple[int, int, int]


def _group_rows(rows: np.ndarray, signatures: List[_Signature], config_of: np.ndarray):
    """Split drain rows by the signature of the pinger that fired them."""
    distinct = list(dict.fromkeys(signatures))
    if len(distinct) == 1:
        return [(distinct[0], rows)] if len(rows) else []
    index = {signature: k for k, signature in enumerate(distinct)}
    of_firing = np.fromiter((index[s] for s in signatures), np.int64, len(signatures))
    of_row = of_firing[config_of[rows]]
    groups = [(signature, rows[of_row == k]) for k, signature in enumerate(distinct)]
    return [(signature, group) for signature, group in groups if len(group)]


def _set_bits(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


class _SlotMask:
    """A deterministic-partial link's per-port-slot decisions as an int bitmask.

    Bit ``s`` of ``bits`` is set when the link drops a probe sent from port
    slot ``s``.  ``periodic`` repeats that pattern over ``span`` bits, so the
    fate of any run of consecutive probes is one shift and one mask.
    """

    __slots__ = ("bits", "period", "periodic", "span")

    def __init__(self, pattern: Sequence[bool]):
        self.period = self.span = len(pattern)
        self.bits = self.periodic = sum(1 << slot for slot, drops in enumerate(pattern) if drops)

    def window(self, start_sequence: int, size: int) -> int:
        """Bit ``i`` set when probe ``start_sequence + i`` is dropped."""
        offset = start_sequence % self.period
        while self.span < offset + size:
            self.periodic |= self.periodic << self.span
            self.span *= 2
        return (self.periodic >> offset) & ((1 << size) - 1)


class _HitLists(dict):
    """Per loss rate, the positions of a random block that drop a probe --
    the variates below the rate -- ascending, closed by a ``len(block)``
    sentinel; built on first lookup."""

    def __init__(self, block: np.ndarray):
        super().__init__()
        self.block = block

    def __missing__(self, rate: float) -> List[int]:
        hits = self[rate] = np.flatnonzero(self.block < rate).tolist() + [len(self.block)]
        return hits


class _SignatureTables(NamedTuple):
    """A plan's dirty paths compiled for one port-entropy signature.

    ``first_drop[path, s]`` is the link dropping a deterministic path's probe
    sent from port slot ``s`` -- the first match walking the path forward,
    then back -- and -1 when it is delivered (and on every path that is not
    deterministic).  A stochastic path owns ``walks[path]``: the same walk as
    ``(link_id, kind, argument)`` steps, the argument being the loss rate of a
    random step and the :class:`_SlotMask` of a deterministic-partial one.
    """

    first_drop: np.ndarray
    walks: Dict[int, tuple]


class _ScenarioPlan:
    """The primed path table compiled against one scenario object.

    ``failing`` is the snapshot of ``scenario.failures`` the plan matches, as
    of ``version``.  ``dirty`` marks the primed paths crossing a failed link,
    ``stochastic`` those of them crossing a random-partial one,
    ``random_steps[path]`` counts the random steps of a path's round trip, and
    ``failures[row]`` is a dirty path's ``(link_id, LinkFailure)`` list in the
    order the scalar kernel walks it.  ``tables`` holds one
    :class:`_SignatureTables` per port-entropy signature met since the plan
    was created.  A plan starts empty and is brought to every version it
    meets by recompiling the rows that cross a changed link.
    """

    __slots__ = (
        "scenario", "version", "failing", "dirty", "stochastic", "random_steps", "failures",
        "tables",
    )

    def __init__(self, scenario: FailureScenario, num_paths: int):
        self.scenario = scenario
        self.version: Optional[int] = None
        self.failing: Dict[int, LinkFailure] = {}
        self.dirty = np.zeros(num_paths, dtype=bool)
        self.stochastic = np.zeros(num_paths, dtype=bool)
        self.random_steps = np.zeros(num_paths, dtype=np.int64)
        self.failures: Dict[int, List[Tuple[int, LinkFailure]]] = {}
        self.tables: Dict[_Signature, _SignatureTables] = {}


class ProbeSimulator:
    """Simulates probe transmission over a topology with injected failures."""

    def __init__(
        self,
        topology: Topology,
        scenario: FailureScenario,
        rng: np.random.Generator,
        probe_reverse_path: bool = True,
    ):
        self._topology = topology
        self._scenario = scenario
        self._rng = rng
        self._probe_reverse_path = probe_reverse_path
        self.drops_per_link: Dict[int, int] = {}
        # Bulk-probing state (prime_paths): the primed path table, a
        # link -> path-rows reverse index, the plan compiled for the current
        # scenario object, and the per-port decisions of every
        # deterministic-partial failure met since the last prime.
        self._primed_paths: Optional[PathTable] = None
        self._rows_by_link: Dict[int, np.ndarray] = {}
        self._plan_cache: Optional[_ScenarioPlan] = None
        self._compiled_reported = 0  # rows_compiled already on a sim.bulk span
        self._flow_memo: Dict[tuple, Tuple[_SlotMask, _SlotMask]] = {}
        # Run totals of the bulk kernel (telemetry()).
        self._bulk_totals = {
            "rows_clean": 0,
            "rows_deterministic": 0,
            "rows_stochastic": 0,
            "scenario_compiles": 0,
            "rows_compiled": 0,
            "random_draws": 0,
        }

    # ------------------------------------------------------------------ state
    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def scenario(self) -> FailureScenario:
        return self._scenario

    @property
    def primed_paths(self) -> Optional[PathTable]:
        """The table :meth:`prime_paths` registered; bulk rows index it."""
        return self._primed_paths

    def dirty_paths(self) -> np.ndarray:
        """Read-only mask over the primed paths: ``True`` where a path
        crosses a failed link of the current scenario version.

        It is the mask :meth:`probe_paths_bulk` classifies rows by, from the
        same plan (compiled or patched here if the version moved; the next
        bulk call's ``sim.bulk`` span reports those compiled rows), so a
        caller can answer the clean rows itself and pass only the dirty ones.
        """
        if self._primed_paths is None:
            raise RuntimeError("prime_paths() must be called before dirty_paths()")
        mask = self._plan().dirty.view()
        mask.flags.writeable = False
        return mask

    def set_scenario(self, scenario: FailureScenario) -> None:
        """Swap the failure scenario (new evaluation minute, same simulator)."""
        self._scenario = scenario
        self.drops_per_link = {}
        self._plan_cache = None

    def telemetry(self) -> Dict[str, int]:
        """Run totals of the bulk kernel, shaped for a metrics-registry source.

        Rows answered per class (clean / deterministic / stochastic), plans
        compiled (one per scenario version the kernel met), plan rows
        compiled (every dirty row of a fresh plan, the rows crossing a changed
        link on a version bump) and uniform variates drawn.  Only
        :meth:`probe_paths_bulk` ticks them (directly or through the count-1
        callers); they read zero for rows probed through the reference
        kernel (:meth:`probe_path_batch`, the tests' oracle) -- informational,
        like the scheduler's drain statistics.
        """
        return dict(self._bulk_totals)

    # ------------------------------------------------------------ bulk probing
    def prime_paths(self, paths: Sequence[Path]) -> None:
        """Register a path table (a sequence of paths is wrapped into one)
        for :meth:`probe_paths_bulk`.

        Builds a link -> rows reverse index from the link column once per
        controller cycle (once per ECMP baseline) so that a scenario change
        recompiles only the rows crossing the links it touched; only the rows
        a plan compiles become :class:`~repro.routing.Path` objects.  Drops
        the compiled plan (the next drain compiles every dirty row from
        scratch) and the per-port decision memo: a long ``serve()`` holds at
        most one controller cycle's ``(failure, src, dst)`` patterns.
        """
        table = paths if isinstance(paths, PathTable) else PathTable.from_paths(paths)
        indptr, links = table.link_rows()
        num_rows = max(len(table), 1)
        owner = np.repeat(np.arange(len(table)), np.diff(np.asarray(indptr, dtype=np.int64)))
        # (link, row) entries sorted by link, then row; a row crossing a link
        # twice keeps one entry.
        entries = np.sort(np.asarray(links, dtype=np.int64) * num_rows + owner)
        link_of, rows = np.divmod(entries[np.diff(entries, prepend=-1) != 0], num_rows)
        starts = np.flatnonzero(np.diff(link_of, prepend=-1))
        bounds = starts.tolist() + [len(rows)]
        self._primed_paths = table
        self._rows_by_link = {
            link_id: rows[start:end]
            for link_id, start, end in zip(link_of[starts].tolist(), bounds, bounds[1:])
        }
        self._plan_cache = None
        self._flow_memo = {}

    def _plan(self) -> _ScenarioPlan:
        """The plan of the current ``(scenario, scenario.version)``.

        A new path table or scenario object (:meth:`prime_paths`,
        :meth:`set_scenario`) starts an empty plan, which the first patch
        fills with every dirty row.  A version bump -- the fault model bumps
        it on every in-place activation/deactivation -- patches the plan.
        """
        scenario = self._scenario
        plan = self._plan_cache
        if plan is None or plan.scenario is not scenario:
            plan = self._plan_cache = _ScenarioPlan(scenario, len(self._primed_paths))
        if plan.version != scenario.version:
            self._patch(plan)
        return plan

    def _patch(self, plan: _ScenarioPlan) -> None:
        """Recompile the rows crossing a link whose failure changed since the
        plan's snapshot (added, removed or replaced)."""
        live = plan.scenario.failures
        before = plan.failing
        changed = list(before.keys() - live.keys()) + [
            link_id
            for link_id, failure in live.items()
            if before.get(link_id) is not failure and before.get(link_id) != failure
        ]
        plan.failing = dict(live)
        plan.version = plan.scenario.version
        crossing = [self._rows_by_link[link] for link in changed if link in self._rows_by_link]
        rows = np.unique(np.concatenate(crossing)).tolist() if crossing else []
        for row in rows:
            self._compile_row(plan, row)
        self._bulk_totals["scenario_compiles"] += 1
        self._bulk_totals["rows_compiled"] += len(rows)

    def _compile_row(self, plan: _ScenarioPlan, row: int) -> None:
        """Bring one primed row of ``plan`` up to the plan's failure snapshot."""
        failing = plan.failing
        # Same link iteration order as the scalar transmit() loop, so drop
        # attribution (which failed link gets charged) matches that regime.
        failures = [
            (link_id, failing[link_id])
            for link_id in self._primed_paths[row].link_ids
            if link_id in failing
        ]
        random_links = sum(failure.mode is LossMode.RANDOM_PARTIAL for _, failure in failures)
        plan.dirty[row] = bool(failures)
        plan.stochastic[row] = random_links > 0
        plan.random_steps[row] = random_links * (2 if self._probe_reverse_path else 1)
        if failures:
            plan.failures[row] = failures
        else:
            plan.failures.pop(row, None)
        for signature, tables in plan.tables.items():
            self._compile_row_tables(plan, tables, signature, row)

    def _slot_masks(
        self, failure: LinkFailure, src: str, dst: str, signature: _Signature
    ) -> Tuple[_SlotMask, _SlotMask]:
        """Per-port-slot ``drops_flow`` decisions, forward and reverse.

        The flow key varies only through the source port, so ``port_range``
        decisions per direction cover every probe a pinger can send on the
        pair.  Memoized across scenario versions until the next prime.
        """
        key = (failure, src, dst, signature)
        masks = self._flow_memo.get(key)
        if masks is None:
            base_port, port_range, dst_port = signature
            ports = range(base_port, base_port + port_range)
            masks = self._flow_memo[key] = (
                _SlotMask([failure.drops_flow((src, dst, port, dst_port, 17)) for port in ports]),
                _SlotMask([failure.drops_flow((dst, src, dst_port, port, 17)) for port in ports]),
            )
        return masks

    def _tables(self, plan: _ScenarioPlan, signature: _Signature) -> _SignatureTables:
        """``plan``'s dirty paths compiled for ``signature``, on first use."""
        tables = plan.tables.get(signature)
        if tables is None:
            first_drop = np.full((len(self._primed_paths), signature[1]), -1, dtype=np.int64)
            tables = plan.tables[signature] = _SignatureTables(first_drop, {})
            for row in plan.failures:
                self._compile_row_tables(plan, tables, signature, row)
        return tables

    def _compile_row_tables(
        self, plan: _ScenarioPlan, tables: _SignatureTables, signature: _Signature, row: int
    ) -> None:
        """One row's walk (stochastic) or first-drop slots (deterministic)."""
        tables.walks.pop(row, None)
        port_range = signature[1]
        first = [-1] * port_range
        failures = plan.failures.get(row)
        if failures is not None:
            path = self._primed_paths[row]
            walk = []
            for direction in (0, 1) if self._probe_reverse_path else (0,):
                for link_id, failure in failures:
                    if failure.mode is LossMode.FULL:
                        walk.append((link_id, _FULL, None))
                    elif failure.mode is LossMode.DETERMINISTIC_PARTIAL:
                        masks = self._slot_masks(failure, path.src, path.dst, signature)
                        walk.append((link_id, _MATCH, masks[direction]))
                    else:
                        walk.append((link_id, _RANDOM, failure.loss_rate))
            if plan.stochastic[row]:
                tables.walks[row] = tuple(walk)
            else:
                delivered = (1 << port_range) - 1  # the slots no link has dropped yet
                for link_id, kind, slots in walk:
                    dropped = delivered if kind == _FULL else delivered & slots.bits
                    for slot in _set_bits(dropped):
                        first[slot] = link_id
                    delivered ^= dropped
                    if not delivered:
                        break
        tables.first_drop[row] = first

    @informational_wall("the sim.bulk span's wall_seconds is informational; its labels are the record")
    def probe_paths_bulk(
        self,
        path_indices: np.ndarray,
        counts: np.ndarray,
        start_sequences: np.ndarray,
        configs: Sequence[ProbeConfig],
        config_of: np.ndarray,
        confirms: Sequence[int],
        clean_rows: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe many ``(path, count)`` rows in one columnar call.

        ``path_indices[i]`` names a primed path receiving ``counts[i]`` probes
        starting at sequence ``start_sequences[i]``; ``configs[config_of[i]]``
        and ``confirms[config_of[i]]`` supply the row's probe entropy and
        loss-confirmation settings (one entry per firing pinger).  Rows are
        answered by class, from the plan of the scenario version:

        * *clean* rows (no failed link; the overwhelming majority in steady
          state) are ``(count, 0)`` wholesale;
        * *deterministic* rows (full-loss and deterministic-partial links
          only) in one numpy pass: probes per port slot from ``divmod`` on
          ``(count, start_sequence)``, a slot's fate from the compiled
          first-drop table, every loss re-sent and lost again ``confirm``
          times, drops charged per link by one ``bincount``;
        * *stochastic* rows (at least one random-partial link) in one
          plain-Python pass, in row order, over one block of uniform variates
          drawn for the whole drain (:meth:`_probe_stochastic_rows`).

        No randomness is consumed by the first two classes, so ``(sent,
        lost)``, ``drops_per_link`` and the generator state equal issuing the
        same rows one :meth:`probe_path_batch` call at a time.  ``clean_rows``
        counts rows the caller answered itself as clean (by
        :meth:`dirty_paths`) and did not pass; they join the clean class.
        Emits one informational ``sim.bulk`` span per call, labelled with the
        rows of each class, the variates drawn and the plan rows compiled
        since the previous call.  Returns ``(sent, lost)`` int64 arrays
        including confirmation resends.
        """
        started = time.perf_counter()
        if self._primed_paths is None:
            raise RuntimeError("prime_paths() must be called before probe_paths_bulk()")
        counts = np.asarray(counts, dtype=np.int64)
        sent = counts.copy()
        lost = np.zeros(len(counts), dtype=np.int64)
        totals = self._bulk_totals
        plan = self._plan()
        compiled = totals["rows_compiled"] - self._compiled_reported
        self._compiled_reported = totals["rows_compiled"]
        dirty_rows = np.flatnonzero(plan.dirty[path_indices])
        stochastic = plan.stochastic[path_indices[dirty_rows]]
        draws = 0
        if len(dirty_rows):
            signatures = [(c.base_port, c.port_range, c.destination_port) for c in configs]
            confirm_of = np.asarray(confirms, dtype=np.int64)
            rows = dirty_rows[~stochastic]
            for signature, group in _group_rows(rows, signatures, config_of):
                sent[group], lost[group] = self._probe_deterministic_rows(
                    self._tables(plan, signature).first_drop[path_indices[group]],
                    counts[group],
                    start_sequences[group],
                    confirm_of[config_of[group]],
                )
            rows = dirty_rows[stochastic]
            if len(rows):
                sent[rows], lost[rows], draws = self._probe_stochastic_rows(
                    plan,
                    path_indices[rows],
                    counts[rows],
                    start_sequences[rows],
                    config_of[rows],
                    signatures,
                    confirm_of,
                )
        num_stochastic = int(np.count_nonzero(stochastic))
        row_classes = {
            "rows_clean": len(counts) - len(dirty_rows) + clean_rows,
            "rows_deterministic": len(dirty_rows) - num_stochastic,
            "rows_stochastic": num_stochastic,
        }
        for name, rows in row_classes.items():
            totals[name] += rows
        totals["random_draws"] += draws
        trace_record(
            "sim.bulk",
            wall_seconds=time.perf_counter() - started,
            informational=True,
            draws=draws,
            compiled=compiled,
            **row_classes,
        )
        return sent, lost

    def _probe_deterministic_rows(
        self, first: np.ndarray, counts: np.ndarray, starts: np.ndarray, confirms: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Closed-form outcome of rows whose every port slot has a fixed fate.

        ``first[i, s]`` is the link dropping row ``i``'s probes from port slot
        ``s`` (-1: delivered).  A row sends ``count // port_range`` probes
        from every slot plus one from each of the ``count % port_range``
        slots following ``start_sequence``; a dropped probe is re-sent and
        dropped again ``confirm`` times, each copy charged to the same link.
        """
        port_range = first.shape[1]
        whole, part = np.divmod(counts, port_range)
        behind_start = (np.arange(port_range) - starts[:, None]) % port_range
        probes = whole[:, None] + (behind_start < part[:, None])
        dropped = first >= 0
        lost_once = np.where(dropped, probes, 0).sum(axis=1)
        charged = np.bincount(
            first[dropped], weights=(probes * (1 + confirms)[:, None])[dropped]
        )
        drops = self.drops_per_link
        for link_id in np.flatnonzero(charged).tolist():
            drops[link_id] = drops.get(link_id, 0) + int(charged[link_id])
        return counts + confirms * lost_once, (1 + confirms) * lost_once

    def _probe_stochastic_rows(
        self,
        plan: _ScenarioPlan,
        paths: np.ndarray,
        counts: np.ndarray,
        starts: np.ndarray,
        firings: np.ndarray,
        signatures: List[_Signature],
        confirm_of: np.ndarray,
    ) -> Tuple[List[int], List[int], int]:
        """Rows crossing a random-partial link, in row order, from one block.

        Draw for draw what one :meth:`probe_path_batch` call per row does: a
        random step consumes one variate per probe of its transmission (dead
        probes included), nothing is drawn once every probe is dead, and a
        row's ``confirm`` re-transmissions of the probes it lost follow it.
        The variates come from one ``random(bound)`` block, ``bound`` being
        the most the rows can consume (random steps x count x (1 + confirm));
        afterwards the generator is rewound and exactly the consumed variates
        are redrawn, which leaves it where the per-row calls leave it
        (``advance`` would drop a buffered 32-bit half).  Alive sets are int
        bitmasks; a random step's losses are the block positions below its
        loss rate, found by bisection in a per-rate hit list.  Returns
        ``(sent, lost, variates consumed)``.
        """
        confirms = confirm_of[firings]
        bound = int((plan.random_steps[paths] * counts * (1 + confirms)).sum())
        rng = self._rng
        state = rng.bit_generator.state
        block = rng.random(bound)
        hit_lists = _HitLists(block)
        walks = {signature: self._tables(plan, signature).walks for signature in set(signatures)}
        walks_of = [walks[signature] for signature in signatures]
        drops = self.drops_per_link
        cursor = 0
        sent: List[int] = []
        lost: List[int] = []
        for path, count, start, firing, confirm in zip(
            paths.tolist(), counts.tolist(), starts.tolist(), firings.tolist(), confirms.tolist()
        ):
            walk = walks_of[firing][path]
            # The probes of a transmission, as positions in the row and as a
            # mask: the whole row first, then the probes it lost, re-sent.
            positions = range(count)
            sending = (1 << count) - 1
            lost_once = row_lost = 0
            for attempt in range(1 + confirm):
                alive = sending
                size = len(positions)
                for link_id, kind, argument in walk:
                    if kind == _RANDOM:
                        # Variate k of the step decides the probe at positions[k].
                        hits = hit_lists[argument]
                        end = cursor + size
                        at = bisect_left(hits, cursor)
                        dead = 0
                        while hits[at] < end:
                            dead |= 1 << positions[hits[at] - cursor]
                            at += 1
                        cursor = end
                        dead &= alive
                    elif kind == _FULL:
                        dead = alive
                    else:
                        dead = alive & argument.window(start, count)
                    if dead:
                        drops[link_id] = drops.get(link_id, 0) + dead.bit_count()
                        alive ^= dead
                        if not alive:
                            break
                missing = sending ^ alive
                if attempt:
                    row_lost += missing.bit_count()
                elif missing:
                    lost_once = row_lost = missing.bit_count()
                    positions = _set_bits(missing)
                    sending = missing
                else:
                    break  # nothing to confirm
            sent.append(count + confirm * lost_once)
            lost.append(row_lost)
        if cursor < bound:
            rng.bit_generator.state = state
            rng.random(cursor)
        return sent, lost, cursor

    # ------------------------------------------------------------ primitives
    def _dropped_on_link(self, failure: LinkFailure, flow_key: Tuple) -> bool:
        if failure.mode is LossMode.FULL:
            return True
        if failure.mode is LossMode.DETERMINISTIC_PARTIAL:
            return failure.drops_flow(flow_key)
        return bool(self._rng.random() < failure.loss_rate)

    def transmit(self, link_ids: Iterable[int], flow_key: Tuple) -> bool:
        """One-way transmission attempt; returns ``True`` when delivered."""
        for link_id in link_ids:
            failure = self._scenario.failure_on(link_id)
            if failure is None:
                continue
            if self._dropped_on_link(failure, flow_key):
                self.drops_per_link[link_id] = self.drops_per_link.get(link_id, 0) + 1
                return False
        return True

    # ------------------------------------------------------ batched probing
    def _batch_transmit(self, failures, ports, src: str, dst: str, dst_port: int):
        """Vectorized round trips for probes distinguished only by source port.

        Returns a boolean delivery mask, one entry per probe.  Links are
        applied in the same iteration order as the scalar ``transmit`` loop
        in each direction; per-link drop counts are accounted the same way (a
        probe is charged to the first link that drops it).  Random-loss draws consume the generator
        in batch order, so batched and scalar probing are two distinct --
        individually reproducible -- random regimes.
        """
        count = len(ports)
        alive = np.ones(count, dtype=bool)
        for direction in ("forward", "reverse"):
            if direction == "reverse" and not self._probe_reverse_path:
                break
            for link_id, failure in failures:
                if not alive.any():
                    return alive
                if failure.mode is LossMode.FULL:
                    dead = alive.copy()
                elif failure.mode is LossMode.DETERMINISTIC_PARTIAL:
                    # The flow key varies only through the source port, so one
                    # decision per distinct port covers the whole batch.
                    decisions = {}
                    for port in np.unique(ports):
                        key = (
                            (src, dst, int(port), dst_port, 17)
                            if direction == "forward"
                            else (dst, src, dst_port, int(port), 17)
                        )
                        decisions[int(port)] = failure.drops_flow(key)
                    pattern = np.array([decisions[int(p)] for p in ports], dtype=bool)
                    dead = alive & pattern
                else:
                    dead = alive & (self._rng.random(count) < failure.loss_rate)
                if dead.any():
                    self.drops_per_link[link_id] = self.drops_per_link.get(
                        link_id, 0
                    ) + int(dead.sum())
                    alive &= ~dead
        return alive

    def probe_path_batch(
        self,
        path: Path,
        config: ProbeConfig,
        count: int,
        start_sequence: int = 0,
        confirm_losses: int = 0,
    ) -> Tuple[int, int]:
        """Send ``count`` pinned probes on one path in a single vectorized call.

        Semantically equivalent to ``count`` per-packet round trips plus the
        pinger's loss-confirmation resends, but whole failure-free paths
        (the overwhelming majority in steady state) cost one dictionary probe
        and no random draws -- this is what lets the telemetry engine sustain
        hundreds of thousands of probe events per wall-clock second.  Returns
        ``(sent, lost)`` including confirmation traffic, the same counters the
        per-packet pinger loop produces.  No ``src/`` code calls it: it is
        the one-row-per-call reference of :meth:`probe_paths_bulk`.
        """
        if count <= 0:
            return 0, 0
        # Same link iteration order as the scalar transmit() loop, so drop
        # attribution (which failed link gets charged) matches that regime.
        failures = [
            (link_id, failure)
            for link_id in path.link_ids
            if (failure := self._scenario.failure_on(link_id)) is not None
        ]
        if not failures:
            return count, 0
        sequences = np.arange(start_sequence, start_sequence + count)
        ports = config.base_port + (sequences % config.port_range)
        alive = self._batch_transmit(failures, ports, path.src, path.dst, config.destination_port)
        lost = int(np.count_nonzero(~alive))
        sent = count
        # Loss confirmation: every lost probe is re-sent with identical
        # content ``confirm_losses`` times (§3.1); resends of deterministically
        # dropped probes die again, random ones re-roll.
        dead_ports = ports[~alive]
        for _ in range(confirm_losses):
            if len(dead_ports) == 0:
                break
            sent += len(dead_ports)
            redelivered = self._batch_transmit(
                failures, dead_ports, path.src, path.dst, config.destination_port
            )
            lost += int(np.count_nonzero(~redelivered))
        return sent, lost

    # ------------------------------------------------ per-packet probing
    def probe_rows(
        self,
        rows: np.ndarray,
        probes: np.ndarray,
        configs: Sequence[ProbeConfig],
        config_of: np.ndarray,
        confirms: Sequence[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Send ``probes[i]`` probes, sequences ``0 .. probes[i] - 1``, on
        primed row ``rows[i]``, one :meth:`probe_paths_bulk` row per probe.

        The count-1 rows keep packet order (row by row, sequence by
        sequence), so the kernel consumes one variate per random link a
        probe reaches, stops at its first drop and follows it with its
        ``confirms[config_of[i]]`` resends -- the per-packet loop, draw for
        draw.  Returns per-row ``(sent, lost)`` int64 arrays including
        confirmation resends.
        """
        rows = np.asarray(rows, dtype=np.int64)
        probes = np.asarray(probes, dtype=np.int64)
        owner = np.repeat(np.arange(len(rows)), probes)
        starts = np.arange(len(owner)) - np.repeat(np.cumsum(probes) - probes, probes)
        sent, lost = self.probe_paths_bulk(
            rows[owner],
            np.ones(len(owner), dtype=np.int64),
            starts,
            configs,
            np.asarray(config_of, dtype=np.int64)[owner],
            confirms,
        )
        folded = np.bincount(
            np.concatenate((owner, owner + len(rows))),
            weights=np.concatenate((sent, lost)),
            minlength=2 * len(rows),
        ).astype(np.int64)
        return folded[: len(rows)], folded[len(rows) :]

    def observe_probe_matrix(
        self, probe_matrix: ProbeMatrix, config: Optional[ProbeConfig] = None
    ) -> ObservationSet:
        """Probe every path of a probe matrix once per window (deTector's view).

        Primes the matrix's path table and sends ``config.probes_per_path``
        probes on every row, without loss confirmation.
        """
        config = config or ProbeConfig()
        self.prime_paths(probe_matrix.paths)
        rows = np.arange(probe_matrix.num_paths)
        sent, lost = self.probe_rows(
            rows, np.full(len(rows), config.probes_per_path), [config], np.zeros(len(rows)), [0]
        )
        return ObservationSet.from_columns(rows, sent, lost)
