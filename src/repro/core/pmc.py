"""Probe Matrix Construction (PMC) -- Algorithm 1 of the paper.

Given the routing matrix ``R`` (every candidate probe path the routing
protocol allows), PMC greedily selects a minimal set of paths such that the
resulting probe matrix

* covers every inter-switch link at least ``alpha`` times,
* is ``beta``-identifiable (every combination of at most ``beta`` failed links
  yields a unique loss syndrome), and
* spreads probe load evenly across links.

The greedy repeatedly picks the candidate path with the lowest score

    score(path) = sum_{link on path} w[link]  -  (# of link sets on path)   (Eq. 1)

where ``w[link]`` counts how many selected paths already cross the link and
the "link sets" are the cells of the refinement partition described in §4.2
(over the extended link space that includes virtual links for ``beta >= 2``).

Three optional optimisations reproduce §4.3:

* **decomposition** -- split into independent subproblems (connected
  components of the path/link bipartite graph) and solve each separately,
* **lazy update** -- CELF-style deferred re-scoring via a min-heap (a bucket
  queue of integer scores on the numpy backend),
* **symmetry** -- isomorphic subproblems (the same incidence in *rank
  coordinates*: rows by position, links by rank among the subproblem's link
  ids) are one greedy run, so the first occurrence solves and the others
  replay its selection through their own rows -- Observation 3 where it is
  exact: the ``k/2`` components of a healthy Fattree(k) are one subproblem.

Independent of the score, a popped candidate that can no longer refine any
link set nor cover an under-covered link is discarded permanently: by
submodularity its marginal gain can only shrink, so it will never become
useful.  This keeps the selection minimal when the requested identifiability
is unachievable (e.g. ``beta = 2`` in a 4-ary Fattree, §6.3).

The loop's stop condition is closed-form rather than "until fully refined or
out of candidates": for ``beta = 1`` the finest partition a subproblem's
candidates can reach has one cell per distinct column signature (the set of
candidate rows crossing a link; all never-crossed links share one), so the
greedy stops as soon as the partition has that many cells and every coverable
link lies on ``alpha`` selected paths, or on all of its candidates when it has
fewer -- with the selection an exhaustive drain of the heap would return,
since from there on every candidate is a zero-gain discard (see
:func:`_solve_subproblem`).  That is what keeps a cycle with links down, whose
orphaned links can never be separated, as cheap as a healthy one.

Both public entry points -- :func:`construct_probe_matrix` (cold: every
candidate row) and :func:`construct_probe_matrix_masked` (incremental: the
active rows of a link-masked index, warm-startable) -- are thin wrappers over
one pipeline, :func:`_construct`: decompose, digest each subproblem, replay
the digests already solved (earlier in this call, or in a warm cache), solve
the first occurrence of every other one (inline at ``jobs == 1``, over a
worker pool otherwise) and merge in canonical subproblem order.  Which wrapper
or ``jobs`` value ran is invisible in the selection, the cost counters, the
kernel totals and the per-subproblem :class:`ShardOutcome` records.
"""

from __future__ import annotations

import hashlib
import time
import weakref
from array import array
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

try:  # only used by the numpy-backend batch scorer
    import numpy as _np
except ImportError:  # pragma: no cover - numpy backend is then unavailable
    _np = None

from ..contracts import (
    informational_fields,
    informational_wall,
    trace_record,
    trace_span,
)
from ..parallel import (
    WorkerTelemetry,
    in_main_process,
    merge_worker_telemetry,
    pool_map,
    resolve_jobs,
)
from ..topology import Topology
from .costmodel import CostModel
from .decomposition import Subproblem, decompose_routing_matrix, pod_shards_for_matrix
from .incidence import Backend, IncidenceHandle, IncidenceIndex, RefinablePartition, RowProjection
from .lazy_greedy import BucketQueue, LazyMinHeap, ShardedSolutionCache
from .probe_matrix import ProbeMatrix
from .virtual_links import ExtendedLinkSpace

if TYPE_CHECKING:  # imported lazily at runtime to avoid a routing<->core cycle
    from ..routing import RoutingMatrix

__all__ = [
    "PMCOptions",
    "PMCStats",
    "PMCResult",
    "ShardOutcome",
    "construct_probe_matrix",
    "construct_probe_matrix_masked",
    "pmc_for_topology",
]


@dataclass
class PMCOptions:
    """Tuning knobs of the PMC algorithm.

    Attributes
    ----------
    alpha:
        Coverage target: every link must lie on at least ``alpha`` selected
        paths (links that no candidate path crosses are reported as
        uncoverable instead of looping forever).
    beta:
        Identifiability target; ``beta = 0`` requests pure coverage.
    use_decomposition / use_lazy_update / use_symmetry:
        The three speed-ups of §4.3.  All disabled reproduces the strawman
        column of Table 2.  ``use_symmetry`` replays isomorphic subproblems
        inside a call (:func:`_subproblem_digest`); off, a call without a warm
        cache solves them all -- the oracle the replay is tested against.  Same
        selection either way; only the replayed subproblems' counters differ.
    skip_zero_gain:
        Discard popped candidates with no marginal gain (default).  Turning
        this off reproduces the textbook greedy exactly but may select
        useless paths when the identifiability target is unachievable.
    max_paths:
        Optional hard cap on the number of selected paths (safety valve for
        experiments; ``None`` means unlimited).
    shard_by_pods:
        Replace the exact connected-component decomposition with the pod
        sharding of :func:`~repro.core.decomposition.pod_shards_for_matrix`:
        one subproblem per pod plus a residual shard for cross-pod paths.
        Shards are solved independently (identifiability is refined per
        shard, not jointly across shards) and merged in canonical shard
        order, which is what makes the solve parallelisable.
    jobs:
        Worker processes for solving subproblems; ``None`` resolves through
        the ``REPRO_JOBS`` environment variable (default 1, serial).  Any
        value produces byte-identical selections, stats and cost counters --
        only wall-clock time changes.  ``max_paths`` forces an inline solve
        (its early-stop crosses subproblem boundaries).
    """

    alpha: int = 1
    beta: int = 1
    use_decomposition: bool = True
    use_lazy_update: bool = True
    use_symmetry: bool = True
    skip_zero_gain: bool = True
    max_paths: Optional[int] = None
    shard_by_pods: bool = False
    jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def resolved_jobs(self) -> int:
        """The effective worker count (explicit ``jobs`` > ``REPRO_JOBS`` > 1)."""
        return resolve_jobs(self.jobs)

    def label(self) -> str:
        """Short human readable tag, e.g. ``(alpha=2, beta=1, lazy+sym)``."""
        opts = []
        if self.shard_by_pods:
            opts.append("pods")
        elif self.use_decomposition:
            opts.append("decomp")
        if self.use_lazy_update:
            opts.append("lazy")
        if self.use_symmetry:
            opts.append("sym")
        tag = "+".join(opts) if opts else "strawman"
        return f"(alpha={self.alpha}, beta={self.beta}, {tag})"


@informational_fields("elapsed_seconds", "candidates_scored")
@dataclass
class PMCStats:
    """Bookkeeping produced while constructing a probe matrix.

    ``candidates_scored`` counts scoring *work performed*, not distinct
    candidates: the numpy backend's chunked rescoring scores whole batches at
    a time, so its count includes chunk overshoot and is higher than the
    python backend's for the same (byte-identical) selection sequence.

    ``greedy_evaluations`` is its deterministic sibling: the number of
    *logical* candidate evaluations the (unbatched) greedy performs -- chunk
    overshoot excluded -- so it is byte-identical across ``REPRO_BACKEND``
    backends and machines.  ``lazy_skips`` counts pops resolved from a score
    cached earlier in the same iteration (the CELF saving),
    ``partition_splits`` / ``partition_cells_created`` /
    ``partition_gain_queries`` the §4.2 refinement work.  Together with
    ``iterations``, ``candidates_discarded``, ``subproblems`` and
    ``reused_subproblems`` they form :meth:`cost_counters`, the machine-
    independent work profile the benchmark gates assert on (wall-clock
    ``elapsed_seconds`` is informational only).

    The three verdicts mean the same thing on every path to a solve -- exact
    or pod-sharded decomposition, cold, masked, or replayed from another
    solve -- and merge by conjunction / union over subproblems:

    * ``uncoverable_links``: the links no candidate row crosses (dead links,
      orphans of a pod sharding).  Nothing else reports them.
    * ``coverage_satisfied``: every *coverable* link lies on ``alpha``
      selected paths of its subproblem.
    * ``fully_refined``: the requested identifiability holds over the whole
      link universe -- every pair of (extended) links is separated by the
      selection *and* no link is uncoverable, because an uncovered link's
      failure is indistinguishable from no failure
      (:func:`~repro.core.properties.check_identifiability` rejects an empty
      syndrome for the same reason).  ``beta = 0`` requests nothing and
      reports ``True``.
    """

    iterations: int = 0
    candidates_scored: int = 0
    candidates_discarded: int = 0
    subproblems: int = 1
    reused_subproblems: int = 0
    greedy_evaluations: int = 0
    lazy_skips: int = 0
    partition_splits: int = 0
    partition_cells_created: int = 0
    partition_gain_queries: int = 0
    elapsed_seconds: float = 0.0
    fully_refined: bool = False
    coverage_satisfied: bool = False
    uncoverable_links: Tuple[int, ...] = ()

    def merge(self, other: "PMCStats") -> None:
        self.iterations += other.iterations
        self.candidates_scored += other.candidates_scored
        self.candidates_discarded += other.candidates_discarded
        self.reused_subproblems += other.reused_subproblems
        self.greedy_evaluations += other.greedy_evaluations
        self.lazy_skips += other.lazy_skips
        self.partition_splits += other.partition_splits
        self.partition_cells_created += other.partition_cells_created
        self.partition_gain_queries += other.partition_gain_queries
        self.fully_refined = self.fully_refined and other.fully_refined
        self.coverage_satisfied = self.coverage_satisfied and other.coverage_satisfied
        self.uncoverable_links = tuple(
            sorted(set(self.uncoverable_links) | set(other.uncoverable_links))
        )

    def cost_counters(self) -> Dict[str, int]:
        """The deterministic work profile of this run as a :class:`CostModel` dict.

        Every value is an exact integer, byte-identical across backends and
        machines; ``elapsed_seconds`` and ``candidates_scored`` (which count
        wall time and physical batch work) are deliberately excluded.
        """
        model = CostModel()
        model.add("greedy_iterations", self.iterations)
        model.add("greedy_evaluations", self.greedy_evaluations)
        model.add("lazy_skips", self.lazy_skips)
        model.add("candidates_discarded", self.candidates_discarded)
        model.add("partition_splits", self.partition_splits)
        model.add("partition_cells_created", self.partition_cells_created)
        model.add("partition_gain_queries", self.partition_gain_queries)
        model.add("subproblems", self.subproblems)
        model.add("reused_subproblems", self.reused_subproblems)
        return model.as_dict()


@dataclass(frozen=True, slots=True)
class ShardOutcome:
    """Per-subproblem provenance of a PMC run.

    One record per :class:`~repro.core.decomposition.Subproblem`, in the
    canonical merge order (pods ascending, residual last; plain components in
    component order).  ``digest`` is the canonical :func:`_subproblem_digest`
    -- two subproblems, of one call or of two cycles, are the same greedy run
    iff their digests match, which is what the replay keys on and the
    incremental shard-isolation gates compare.  ``kernel_cost`` is the shard's
    :class:`~repro.core.costmodel.KernelCounters` delta (exact integers,
    byte-identical across backends and across ``jobs`` settings; empty for
    replays, which perform no kernel work).
    """

    pod: Optional[int]
    num_links: int
    num_paths: int
    num_selected: int
    digest: str
    reused: bool
    cost_counters: Dict[str, int]
    kernel_cost: Dict[str, int]


@dataclass
class PMCResult:
    """Outcome of a PMC run: the probe matrix plus provenance."""

    probe_matrix: ProbeMatrix
    selected_indices: Tuple[int, ...]
    options: PMCOptions
    stats: PMCStats
    #: One record per subproblem resolved, in merge order (a ``max_paths``
    #: early stop ends the list at the subproblem that reached the cap).
    shards: Tuple[ShardOutcome, ...]

    @property
    def num_paths(self) -> int:
        return len(self.selected_indices)

    def shard_digests(self) -> Dict[Optional[int], str]:
        """``{pod: digest}`` of a pod-sharded run's shards.

        Unsharded subproblems all carry ``pod=None``; read their digests off
        :attr:`shards` directly.
        """
        return {outcome.pod: outcome.digest for outcome in self.shards}


def construct_probe_matrix(
    routing_matrix: RoutingMatrix,
    options: Optional[PMCOptions] = None,
) -> PMCResult:
    """Run PMC over a routing matrix and return the constructed probe matrix.

    The cold entry point: every candidate row, no warm cache, coverability
    judged against the full candidate set (a link mask on the index is
    ignored).

    Parameters
    ----------
    routing_matrix:
        The candidate paths and the link universe.
    options:
        :class:`PMCOptions`; defaults to ``alpha=1, beta=1`` with all three
        §4.3 speed-ups enabled.
    """
    options = options or PMCOptions()
    return _construct(
        routing_matrix,
        options,
        masked=False,
        coverage_counts=routing_matrix.incidence.coverage_counts(),
    )


def construct_probe_matrix_masked(
    routing_matrix: "RoutingMatrix",
    options: Optional[PMCOptions] = None,
    warm: Optional[ShardedSolutionCache] = None,
) -> PMCResult:
    """PMC over the *active* rows of a link-masked routing matrix (warm-startable).

    This is the incremental sibling of :func:`construct_probe_matrix`: instead
    of rebuilding paths and incidence for the post-delta topology, the caller
    masks the failed links on the cached
    :class:`~repro.core.incidence.IncidenceIndex`
    (:meth:`~repro.core.incidence.IncidenceIndex.apply_link_mask` /
    :meth:`~repro.core.incidence.IncidenceIndex.revert_link_mask`) and this
    function runs the greedy over the surviving rows.  The selection --
    expressed as row indices into the *full* routing matrix -- is
    byte-identical to what a cold :func:`construct_probe_matrix` over a
    freshly built routing matrix containing only the surviving paths would
    select, because every solver input matches:

    * the decomposition is the one of the active rows only (masked columns
      surface as path-less singleton components, exactly like fully-failed
      links do in a cold rebuild) -- computed by re-splitting only the
      components of the index's pristine decomposition that own a masked
      link (:func:`~repro.core.decomposition.decompose_routing_matrix`),
    * coverability is judged against :meth:`active_coverage_counts`, and
    * the CELF heap is seeded with the active rows in ascending row order,
      which is the same relative order a cold rebuild's re-densified rows
      have.

    ``warm`` is an optional :class:`ShardedSolutionCache` (one bucket per
    ``Subproblem.pod``; unsharded subproblems share the ``None`` bucket) that
    carries solves from call to call: a subproblem an earlier cycle solved --
    the same links and surviving rows, or an isomorphic image of them --
    replays the cached selection without touching a heap, so steady-state
    cycles with little or no churn skip CELF almost entirely.  The cache must
    only ever see this routing matrix.  With ``options.shard_by_pods`` churn
    confined to one pod re-solves only that pod's shard plus the shared
    residual shard; every other shard keeps its digest and replays.
    """
    options = options or PMCOptions()
    return _construct(
        routing_matrix,
        options,
        masked=True,
        coverage_counts=routing_matrix.incidence.active_coverage_counts(),
        warm=warm,
    )


def pmc_for_topology(
    topology: Topology,
    alpha: int = 1,
    beta: int = 1,
    ordered_pairs: bool = False,
    **option_overrides,
) -> PMCResult:
    """Enumerate candidate paths for *topology* and run PMC on them.

    This is the one-call entry point used by the CLI and the examples:
    it wires together path enumeration and the greedy itself.
    """
    from ..routing import RoutingMatrix, enumerate_candidate_paths

    paths = enumerate_candidate_paths(topology, ordered=ordered_pairs)
    routing_matrix = RoutingMatrix(topology, paths)
    options = PMCOptions(alpha=alpha, beta=beta, **option_overrides)
    return construct_probe_matrix(routing_matrix, options)


# ---------------------------------------------------------------------------
# the pipeline: decompose -> digest -> replay -> solve -> merge
# ---------------------------------------------------------------------------

def _decompose(
    routing_matrix: "RoutingMatrix", options: PMCOptions, masked: bool
) -> List[Subproblem]:
    """Subproblems over all candidate rows, or (``masked``) the active ones."""
    if options.use_decomposition and not options.shard_by_pods:
        return decompose_routing_matrix(routing_matrix, masked=masked)
    rows = routing_matrix.incidence.active_rows() if masked else None
    if options.shard_by_pods:
        return pod_shards_for_matrix(routing_matrix, rows=rows)
    return [
        Subproblem(
            link_ids=tuple(routing_matrix.link_ids),
            path_indices=tuple(range(routing_matrix.num_paths) if rows is None else rows),
        )
    ]


@informational_wall(
    "PMCStats.elapsed_seconds is informational; gates use cost_counters()"
)
def _construct(
    routing_matrix: "RoutingMatrix",
    options: PMCOptions,
    masked: bool,
    coverage_counts,
    warm: Optional[ShardedSolutionCache] = None,
) -> PMCResult:
    """The one PMC driver behind both public entry points.

    ``masked`` (solve the index's active rows rather than every candidate)
    and ``coverage_counts`` (per-column candidate counts over those rows) are
    the only things the cold and masked flavours disagree on.  A subproblem
    whose canonical digest
    (:func:`_subproblem_digest`) this call already met, or ``warm`` still
    holds, replays (:func:`_replay`); the first occurrence of every other
    digest goes through :func:`_solve_many`; everything merges in canonical
    subproblem order (pods ascending, residual last; components in component
    order), keeping each subproblem's greedy selection order -- should two
    subproblems ever nominate the same candidate row, the first occurrence
    wins.  The order depends only on the subproblem list, so warm, cold,
    inline and pooled runs all agree byte for byte on the same inputs.

    A call replays when it was handed a warm cache or ``use_symmetry`` is on;
    with neither, every subproblem is solved.  A cold call's memo is its own,
    so a cold rebuild stays an independent oracle for the incremental cycle.
    ``warm`` is asked by :func:`_identity_key` first: an untouched subproblem
    of a churn cycle never pays the canonical gather again.

    The path cap stops early across subproblem boundaries, so a capped run
    resolves one subproblem at a time (nothing past the stop is looked up or
    solved, and :attr:`PMCResult.shards` ends there); every other run
    resolves the whole list as one batch, which is what lets the misses share
    a worker pool.
    """
    start = time.perf_counter()
    index = routing_matrix.incidence
    subproblems = _decompose(routing_matrix, options, masked)
    stats = PMCStats(
        subproblems=len(subproblems), fully_refined=True, coverage_satisfied=True
    )
    capped = options.max_paths is not None
    jobs = 1 if capped else options.resolved_jobs()
    step = 1 if capped else max(1, len(subproblems))
    replaying = warm is not None or options.use_symmetry
    memo: Dict[bytes, _Solution] = {}  # by canonical digest: solved, or read from ``warm``

    selected: List[int] = []
    seen: Set[int] = set()
    outcomes: List[ShardOutcome] = []
    with trace_span(
        "pmc.construct",
        paths=routing_matrix.num_paths,
        subproblems=len(subproblems),
        sharded=options.shard_by_pods,
        masked=masked,
    ):
        for lo in range(0, len(subproblems), step):
            batch = subproblems[lo : lo + step]
            # plan: (subproblem, digest, identity key, slot in ``tasks`` or None = replay)
            plan: List[Tuple[Subproblem, bytes, Optional[bytes], Optional[int]]] = []
            tasks: List[Tuple[Subproblem, Tuple[int, ...]]] = []
            claimed: Set[bytes] = set()  # digests a task of this batch will solve
            for sub in batch:
                identity = solution = shard_counts = None
                if warm is not None:
                    identity = _identity_key(sub, options)
                    solution = warm.get(sub.pod, identity)
                if solution is not None:
                    digest = solution.digest
                else:
                    shard_counts = _shard_counts(index, sub, coverage_counts)
                    digest = _subproblem_digest(index, sub, shard_counts, options)
                    if warm is not None:
                        solution = warm.get(sub.pod, digest)
                if solution is not None:
                    memo.setdefault(digest, solution)
                slot = None
                if not replaying or (digest not in memo and digest not in claimed):
                    slot = len(tasks)
                    tasks.append((sub, shard_counts))
                    claimed.add(digest)
                plan.append((sub, digest, identity, slot))

            solved = _solve_many(index, tasks, options, jobs)
            # In subproblem order, so the solve a replay reads is in ``memo`` by then.
            for sub, digest, identity, slot in plan:
                reused = slot is None
                result = _replay(memo[digest], sub) if reused else solved[slot]
                if replaying and not reused:
                    memo[digest] = _cache_entry(digest, sub, result)
                if warm is not None:
                    warm.put(sub.pod, digest, memo[digest])
                    warm.put(sub.pod, identity, memo[digest])
                sub_selected, sub_stats, telemetry = result
                for row in sub_selected:
                    if row not in seen:
                        seen.add(row)
                        selected.append(row)
                stats.merge(sub_stats)
                # Parent-side span emission in canonical order: workers never
                # trace themselves, so the span tree is invariant to ``jobs``.
                _record_shard_span(sub, digest, len(sub_selected), reused, telemetry)
                outcomes.append(
                    ShardOutcome(
                        pod=sub.pod,
                        num_links=sub.num_links,
                        num_paths=sub.num_paths,
                        num_selected=len(sub_selected),
                        digest=digest.hex(),
                        reused=reused,
                        cost_counters=sub_stats.cost_counters(),
                        kernel_cost=dict(telemetry.counters),
                    )
                )
            if capped and len(selected) >= options.max_paths:
                del selected[options.max_paths :]
                break

    stats.elapsed_seconds = time.perf_counter() - start
    selected_tuple = tuple(selected)
    return PMCResult(
        probe_matrix=ProbeMatrix.from_selection(routing_matrix, selected_tuple),
        selected_indices=selected_tuple,
        options=options,
        stats=stats,
        shards=tuple(outcomes),
    )


@dataclass(frozen=True, slots=True)
class _Solution:
    """What a replay keeps of a solve, in the digest's rank coordinates.

    ``selected`` are positions in ``Subproblem.path_indices``, ``uncoverable``
    ranks in ``sorted(Subproblem.link_ids)``: a subproblem with this digest
    reads them back through its *own* rows and links (:func:`_replay`), where
    global ids would hand one component the rows and links of another.
    """

    digest: bytes
    selected: Tuple[int, ...]
    fully_refined: bool
    coverage_satisfied: bool
    uncoverable: Tuple[int, ...]


def _cache_entry(digest: bytes, subproblem: Subproblem, result) -> _Solution:
    """A solve result of *subproblem* in rank coordinates."""
    sub_selected, sub_stats, _telemetry = result
    wanted = set(sub_selected)
    rank_of = {row: rank for rank, row in enumerate(subproblem.path_indices) if row in wanted}
    dead = set(sub_stats.uncoverable_links)
    return _Solution(
        digest=digest,
        selected=tuple(rank_of[row] for row in sub_selected),
        fully_refined=sub_stats.fully_refined,
        coverage_satisfied=sub_stats.coverage_satisfied,
        uncoverable=tuple(
            rank for rank, link in enumerate(sorted(subproblem.link_ids)) if link in dead
        ),
    )


def _replay(solution: _Solution, subproblem: Subproblem):
    """*solution* as a solve result of *subproblem* that touched no heap: zero counters."""
    rows, link_ids = subproblem.path_indices, sorted(subproblem.link_ids)
    stats = PMCStats(
        reused_subproblems=1,
        fully_refined=solution.fully_refined,
        coverage_satisfied=solution.coverage_satisfied,
        uncoverable_links=tuple(link_ids[rank] for rank in solution.uncoverable),
    )
    return [rows[rank] for rank in solution.selected], stats, WorkerTelemetry()


def _record_shard_span(
    subproblem: Subproblem, digest: bytes, num_selected: int, reused: bool, telemetry: WorkerTelemetry
) -> None:
    """One ``pmc.solve`` span per shard, emitted by the dispatching parent.

    The ``digest`` label makes "which component was new this cycle" a query
    on one run's export: the digest no earlier span of the run carries.
    """
    labels: Dict[str, object] = {
        "paths": subproblem.num_paths,
        "links": subproblem.num_links,
        "selected": num_selected,
        "reused": reused,
        "digest": digest.hex()[:12],
    }
    if subproblem.pod is not None:
        labels["pod"] = subproblem.pod
    trace_record("pmc.solve", wall_seconds=telemetry.wall_seconds, **labels)


def _options_key(options: PMCOptions) -> str:
    """Every option field a subproblem solve reads, as a compact string.

    Suffixes the subproblem digest (same inputs + same key = same selection)
    and the persistent-pool context key (workers keep the options they were
    initialised with).
    """
    return (
        f"a{options.alpha}b{options.beta}z{int(options.skip_zero_gain)}"
        f"l{int(options.use_lazy_update)}m{options.max_paths}"
    )


def _packed(values) -> bytes:
    """*values* as native int64 bytes, the same on both backends."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64).tobytes()
    return array("q", values).tobytes()


def _subproblem_digest(
    index: IncidenceIndex,
    subproblem: Subproblem,
    shard_counts: Sequence[int],
    options: PMCOptions,
) -> bytes:
    """Canonical content digest of a decomposition subproblem.

    Hashes what a solve reads and nothing else: the subproblem's CSR in *rank
    coordinates* (rows in ``path_indices`` order, each as the ranks of its
    links in ``sorted(link_ids)``; :func:`_decompose` emits closed
    subproblems, so these are the whole rows), which links are coverable (all
    the greedy reads of the :func:`_shard_counts` slice) and
    :func:`_options_key`.  Candidates enter the heap in ``path_indices`` order
    and ties break by that order, so equal digests are the same greedy run
    selecting the same *ranks* -- the ``k/2`` components of a healthy
    Fattree(k), or two path-less singleton links.  Byte-identical across
    backends, and ticks no kernel counter: a replayed shard's delta is zero.
    """
    rows = subproblem.path_indices
    projection = RowProjection(index, sorted(subproblem.link_ids))
    if index.backend is Backend.NUMPY:
        segments, ranks = projection.batch(rows)
        lengths = _np.bincount(segments, minlength=len(rows))
    else:
        projected = [projection.row(row) for row in rows]
        lengths = [len(row) for row in projected]
        ranks = [rank for row in projected for rank in row]
    hasher = hashlib.sha256(
        f"{len(rows)}|{subproblem.num_links}|{_options_key(options)}|".encode()
    )
    hasher.update(_packed(lengths))
    hasher.update(_packed(ranks))
    hasher.update(bytes(map(bool, shard_counts)))
    return hasher.digest()


#: ``(options key, identity key)`` of live subproblems.  A component the
#: masked decomposition carries is the same object every churn cycle, so its
#: ids are hashed once per index rather than once per cycle.
_IDENTITY_KEYS: "weakref.WeakKeyDictionary[Subproblem, Tuple[str, bytes]]" = (
    weakref.WeakKeyDictionary()
)


def _identity_key(subproblem: Subproblem, options: PMCOptions) -> bytes:
    """Shortcut to a subproblem's :class:`_Solution` inside one warm cache.

    A warm cache serves one routing matrix, where the same links, surviving
    rows and options are the same subproblem: this hash of the ids as they
    stand costs a tenth of the canonical gather.  Never leaves :func:`_construct`.
    """
    options_key = _options_key(options)
    cached = _IDENTITY_KEYS.get(subproblem)
    if cached is not None and cached[0] == options_key:
        return cached[1]
    hasher = hashlib.sha256(f"ids|{subproblem.num_links}|{options_key}|".encode())
    hasher.update(_packed(subproblem.link_ids))
    hasher.update(_packed(subproblem.path_indices))
    key = hasher.digest()
    _IDENTITY_KEYS[subproblem] = (options_key, key)
    return key


# ---------------------------------------------------------------------------
# solving a batch of subproblems: inline or over a worker pool
# ---------------------------------------------------------------------------

#: Per-worker solve context: ``(incidence_index, options)``.  Installed once
#: per worker process by the pool initializer -- for a numpy-backed parent
#: through a ~100-byte :class:`~repro.core.incidence.IncidenceHandle` the
#: worker attaches (zero-copy shared memory), otherwise by pickling the index
#: itself.  Per-shard data (the subproblem and its coverage slice) rides in
#: the task payload, so steady-state dispatch ships O(churned shards) bytes,
#: never the matrix.
_SHARD_CONTEXT: Optional[Tuple[IncidenceIndex, PMCOptions]] = None


def _init_shard_context(index_source, options) -> None:
    global _SHARD_CONTEXT
    if isinstance(index_source, IncidenceHandle):
        index_source = IncidenceIndex.attach(index_source)
    _SHARD_CONTEXT = (index_source, options)


def _solve_shard_task(task):
    """Pool entry point: solve one ``(subproblem, shard_counts)`` task."""
    index, options = _SHARD_CONTEXT
    subproblem, shard_counts = task
    return _solve_shard(index, subproblem, options, shard_counts)


@informational_wall("WorkerTelemetry.wall_seconds is informational; the kernel delta gates")
def _solve_shard(
    index: IncidenceIndex,
    subproblem: Subproblem,
    options: PMCOptions,
    shard_counts,
):
    """Solve one shard and capture the kernel-counter delta it caused.

    The delta is read off the index's :class:`~repro.core.costmodel.KernelCounters`
    around the solve, so it is the same whether the solve ran inline (ticking
    the parent's counters) or in a worker (ticking its attached/pickled
    copy's) -- that equivalence is what keeps per-shard kernel gates
    invariant to ``jobs``.  The coverability input (``shard_counts``, see
    :func:`_shard_counts`) comes precomputed from the dispatching parent for
    the same reason: a solve must not re-derive (and re-tick) it.

    Returns ``(selection, stats, telemetry)`` where the
    :class:`~repro.parallel.WorkerTelemetry` carries the kernel delta
    (deterministic) and the solve's own wall seconds (informational).
    """
    counters = index.counters
    before = counters.as_dict()
    started = time.perf_counter()
    selected, sub_stats = _solve_subproblem(index, subproblem, options, shard_counts)
    wall = time.perf_counter() - started
    kernel_cost = counters.cost.delta_since(before)
    return selected, sub_stats, WorkerTelemetry(wall_seconds=wall, counters=kernel_cost)


def _shard_counts(index: IncidenceIndex, subproblem: Subproblem, coverage_counts):
    """The shard's slice of the coverage vector, in sorted-link (local) order.

    This is the only piece of the parent's coverage state a shard solve ever
    reads, so it is what travels in the task payload: O(shard links) integers
    instead of the O(topology) vector -- which both keeps per-cycle dispatch
    payload proportional to churn and keeps the persistent pool's worker
    context mask-independent (the masked vector changes every delta; the
    attached index does not).
    """
    return tuple(
        int(coverage_counts[index.position(link)]) for link in sorted(subproblem.link_ids)
    )


def _shard_dispatch_context(index: IncidenceIndex):
    """``(initializer source, context id)`` for pooled shard dispatch.

    The mechanism follows from what the code can observe, never from a
    switch: a numpy-backed index in the main process exports (once -- the
    share is cached on the index) into shared memory and ships the handle;
    the python backend has no buffers to export and ships the pickled index.
    Inside a multiprocessing child (a pooled experiment harness solving with
    ``jobs > 1``) the pickle path is used too: fork children skip atexit, so
    a worker-side segment would leak until the resource tracker complains
    (see :func:`repro.parallel.in_main_process`).

    The context id goes into the persistent-pool key: the share generation
    (or the index uid) changes whenever the underlying index does, so a warm
    pool can never serve a different topology's context.
    """
    if index.backend is Backend.NUMPY and in_main_process():
        share = index.share()  # repro: allow[REP008] -- the index owns and caches the share; released via release_share()/the atexit sweep
        return share.handle, f"shm:g{share.handle.generation}"
    return index, f"pickle:inc{index.uid}"


def _solve_many(
    index: IncidenceIndex,
    tasks: Sequence[Tuple[Subproblem, Sequence[int]]],
    options: PMCOptions,
    jobs: int,
) -> List[Tuple[List[int], PMCStats, WorkerTelemetry]]:
    """Solve a batch of ``(subproblem, shard_counts)`` tasks inline or over a pool.

    Either way the returned list is ordered like *tasks* and every
    entry is ``(selection, stats, telemetry)`` -- byte-identical at any
    ``jobs`` setting (telemetry wall seconds aside), because workers run the
    exact same :func:`_solve_shard` against the same incidence structure (a
    zero-copy shared-memory view, or a pickled copy) with the same per-shard
    coverage slice.  After a pooled run the workers' kernel deltas are folded
    back into the parent's index counters, so the parent's kernel *totals*
    match the inline path's too -- workers ticked their own copies.

    The pool itself persists across calls (same index, same options, same
    ``jobs``): the context key below hands :func:`~repro.parallel.pool_map`
    everything the initializer installs, so repeated controller/engine cycles
    reuse warm workers and pay dispatch only for the task payloads.  A worker
    dying mid-dispatch degrades to the inline solve of the same batch -- same
    selections, and the same kernel totals since inline ticks the parent's
    counters directly -- while the broken pool is left for
    :func:`~repro.parallel.pool_map` to respawn on the next dispatch.
    """
    if jobs > 1 and len(tasks) > 1:
        source, context_id = _shard_dispatch_context(index)
        try:
            results = pool_map(
                _solve_shard_task,
                tasks,
                jobs=jobs,
                initializer=_init_shard_context,
                initargs=(source, options),
                context_key=f"pmc:{context_id}:{_options_key(options)}",
            )
        except BrokenProcessPool:
            pass  # a worker died: the inline solve below gives the same answer
        else:
            merge_worker_telemetry(
                (telemetry for _, _, telemetry in results),
                cost=index.counters.cost,
            )
            return results
    return [
        _solve_shard(index, subproblem, options, shard_counts)
        for subproblem, shard_counts in tasks
    ]


# ---------------------------------------------------------------------------
# subproblem solver
# ---------------------------------------------------------------------------

def _solve_subproblem(
    index: IncidenceIndex,
    subproblem: Subproblem,
    options: PMCOptions,
    shard_counts: Sequence[int],
) -> Tuple[List[int], PMCStats]:
    """Greedy-solve one subproblem against an incidence index.

    ``shard_counts`` is the subproblem's slice of the candidate-count vector
    in local-id (sorted-link) order, see :func:`_shard_counts`: a link is
    coverable iff its count is non-zero.  The counts are judged against the
    full candidate set (a link with zero candidate paths anywhere can never
    be covered, even if this subproblem has paths); masked (incremental) runs
    slice the active-row counts, so coverability is judged against the
    surviving candidates only -- the same vector a from-scratch rebuild on
    the post-delta topology would compute.

    The loop ends when ``goals_met``: the partition has ``reachable_cells``
    cells (identifiability requested) and every coverable link lies on
    ``min(alpha, its candidates)`` selected paths.
    One rule for every heap flavour, backend and dispatch mode; see the
    comments at ``progress`` and ``reachable_cells`` for why stopping there
    returns the selection an exhaustive drain of the heap returns.
    """
    stats = PMCStats()
    link_ids = sorted(subproblem.link_ids)
    path_indices = list(subproblem.path_indices)

    if not link_ids or not path_indices:
        # Links that no candidate path can probe are reported as uncoverable;
        # coverage is vacuously satisfied among coverable links, but a
        # requested identifiability target cannot be met for them.
        stats.fully_refined = options.beta == 0 or not link_ids
        stats.coverage_satisfied = True
        stats.uncoverable_links = tuple(link_ids)
        return [], stats

    # The subproblem is solved on the dense local universe 0..n-1 (links in
    # sorted-id order, matching the physical numbering of ExtendedLinkSpace):
    # weights, coverage targets and the refinement partition are flat vectors
    # and every per-path query is a gather over the projected CSR row.
    kernels = index.kernels
    num_local = len(link_ids)
    proj = index.projection(link_ids)

    extended = ExtendedLinkSpace(link_ids, options.beta)
    partition = RefinablePartition(extended.num_extended, backend=index.backend)
    weights = kernels.int_zeros(num_local)

    if options.beta >= 2:
        # Virtual-link ids per path, computed on demand and cached (the lazy
        # greedy revisits candidates).  For beta <= 1 the extended space *is*
        # the local physical space, so the projected row doubles as ext row.
        ext_cache: Dict[int, object] = {}

        def ext_row(path_index: int):
            cached = ext_cache.get(path_index)
            if cached is None:
                covered = extended.extended_links_on_path(index.row_link_set(path_index))
                cached = kernels.int_array(sorted(covered))
                ext_cache[path_index] = cached
            return cached

    else:
        ext_row = proj.row

    coverable_locals = [local for local in range(num_local) if shard_counts[local]]
    stats.uncoverable_links = tuple(
        link for local, link in enumerate(link_ids) if not shard_counts[local]
    )
    under_covered = kernels.bool_zeros(num_local)
    under_count = 0
    if options.alpha > 0 and coverable_locals:
        kernels.set_true(under_covered, kernels.int_array(coverable_locals))
        under_count = len(coverable_locals)

    # A link with fewer than alpha candidates can hold at most that many
    # selected paths.  Once it does, no unselected row crosses it, so its
    # coverage gain is zero for every remaining candidate and it leaves
    # ``under_covered``: ``progress`` counts its selected paths up from its
    # deficit ``alpha - candidates``, reaching alpha then.  Until then its
    # gain is what it always was; left in, it kept the loop scanning zero-gain
    # candidates until the heap was empty.  ``short_links`` keeps
    # ``coverage_satisfied`` meaning "alpha reached".  ``shard_counts`` are
    # the subproblem's own candidates on a closed subproblem; on a pod shard
    # they count every shard's, so a link other shards also probe never
    # saturates there and drains as before.  The textbook greedy (no
    # ``skip_zero_gain``) selects zero-gain candidates, so its target stays
    # alpha.
    progress, short_links = weights, 0
    if under_count and options.skip_zero_gain:
        deficits = [max(options.alpha - int(count), 0) if count else 0 for count in shard_counts]
        short_links = sum(1 for deficit in deficits if deficit)
        if short_links:
            progress = kernels.int_array(deficits)

    def score(path_index: int) -> int:
        stats.candidates_scored += 1
        weight_term = kernels.sum_at(weights, proj.row(path_index))
        return weight_term - partition.cells_touched(ext_row(path_index))

    # Batched rescoring (numpy backend, physical link space): the whole batch
    # is scored with two segmented kernels instead of per-candidate gathers.
    # For beta >= 2 the virtual-link rows are not CSR slices, so scoring stays
    # per-candidate there.
    use_batch_scoring = index.backend is Backend.NUMPY and options.beta <= 1

    def rescore_batch(items):
        """Fresh scores of *items* (rows) as an int64 array."""
        stats.candidates_scored += len(items)
        segments, locals_ = proj.batch(items)
        weight_terms = _np.bincount(
            segments, weights=weights[locals_], minlength=len(items)
        ).astype(_np.int64)
        cells = partition.cells_touched_segmented(segments, locals_, len(items))
        return weight_terms - cells

    # Every non-empty path initially touches the single cell with zero weight,
    # so its initial score is exactly -1; empty paths score 0 and will be
    # discarded on pop.  Every queue holds one live entry per row, so a
    # selected row is never popped again.
    row_lengths = index.row_lengths()
    use_bucket_queue = use_batch_scoring and options.use_lazy_update
    if use_bucket_queue:
        rows = _np.asarray(path_indices, dtype=_np.int64)
        heap = BucketQueue(rows, _np.where(row_lengths[rows] > 0, -1, 0))
    else:
        heap = LazyMinHeap(((-1 if row_lengths[i] else 0), i) for i in path_indices)

    selected: List[int] = []
    identifiability_needed = options.beta > 0
    iteration = 0

    # The cell count at which refinement is over.  Selections only ever group
    # links by which selected rows cross them, so no selection can separate
    # two links crossed by the same candidate rows: the finest reachable
    # partition has one cell per distinct column signature.  A partition with
    # that many cells *is* that partition, hence no candidate can split it, and
    # zero gain is absorbing (later refinements keep a path all-or-nothing on
    # every cell; ``under_covered`` only shrinks) -- every candidate still in
    # the heap would be popped, rescored and discarded, so stopping here
    # returns the selection the exhaustive drain returns.  That argument needs
    # the zero-gain discard, so without ``skip_zero_gain`` (the textbook
    # greedy, which selects such candidates) the target stays the trivial
    # bound "every id alone"; so it does in the virtual-link space of
    # ``beta >= 2``, where counting distinct unions of signatures costs more
    # than the drain it would save at the scales that space is usable at.
    reachable_cells = extended.num_extended
    if options.beta == 1 and options.skip_zero_gain:
        reachable_cells = index.distinct_column_signatures(link_ids, path_indices)

    def goals_met() -> bool:
        refined = not identifiability_needed or partition.num_cells == reachable_cells
        return refined and under_count == 0

    def marginal_gain(path_index: int) -> Tuple[int, int]:
        """(new cells the path would split off, under-covered links it crosses)."""
        covers = kernels.count_true_at(under_covered, proj.row(path_index))
        splits = 0
        if identifiability_needed and partition.num_cells < reachable_cells:
            splits = partition.splits_gained(ext_row(path_index))
        return splits, covers

    def apply_selection(path_index: int) -> None:
        nonlocal under_count
        cols = proj.row(path_index)
        if identifiability_needed:
            partition.split(ext_row(path_index))
        kernels.add_at(weights, cols, 1)
        if progress is not weights:
            kernels.add_at(progress, cols, 1)
        if under_count:
            under_count -= kernels.clear_if_reached(
                under_covered, progress, cols, options.alpha
            )
        selected.append(path_index)

    while not goals_met():
        if options.max_paths is not None and len(selected) >= options.max_paths:
            break
        iteration += 1
        if use_bucket_queue:
            popped = heap.pop(rescore_batch)
        elif options.use_lazy_update:
            popped = heap.pop_lazy(iteration, score)
        elif use_batch_scoring:
            popped = heap.pop_eager_batch(lambda items: rescore_batch(items).tolist())
        else:
            popped = heap.pop_eager(score)
        if popped is None:
            break
        _, path_index = popped

        splits, covers = marginal_gain(path_index)
        if options.skip_zero_gain and splits == 0 and covers == 0:
            stats.candidates_discarded += 1
            continue

        apply_selection(path_index)
        stats.iterations += 1

    stats.fully_refined = not identifiability_needed or (
        partition.fully_refined and not stats.uncoverable_links
    )
    stats.coverage_satisfied = under_count == 0 and not short_links
    stats.greedy_evaluations = heap.evaluations
    stats.lazy_skips = heap.lazy_skips
    stats.partition_splits = partition.splits_performed
    stats.partition_cells_created = partition.cells_created
    stats.partition_gain_queries = partition.gain_queries
    return selected, stats
