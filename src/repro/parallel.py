"""Deterministic process-pool plumbing shared by PMC sharding and the runner.

Two consumers fan work out over processes:

* the pod-sharded control plane (``repro.core.pmc`` with
  ``PMCOptions.shard_by_pods`` / ``jobs``) dispatches per-pod
  :class:`~repro.core.decomposition.Subproblem` solves, and
* the experiment sweep runner (``repro.experiments.runner.run_all``)
  dispatches whole table/figure harnesses.

Both go through :func:`pool_map`, which pins the one property every caller
relies on: **results come back in submission order**, regardless of worker
count, completion order or scheduling.  Combined with payloads that carry
every input (specs are plain data; shard workers receive their solve context
once through the pool initializer), parallel output is byte-identical to the
serial loop at any ``jobs`` setting -- the pool only changes wall-clock time.

Which executor a pooled dispatch gets follows from what :func:`pool_map` can
observe, never from a switch.  A call that passes a ``context_key`` from the
main process gets a :class:`PersistentPool` -- one warm
:class:`~concurrent.futures.ProcessPoolExecutor` keyed by
``(jobs, context digest)`` that outlives the call and is reused by every
later dispatch with the same key (controller cycles, engine runs,
``experiment all``).  A changed key (new topology, new options) retires the
old pool and spawns a fresh generation, so stale worker state can never leak
into a new context.  Unkeyed calls, and any call made from inside a pool
worker (see :func:`in_main_process`), get an ephemeral executor that is torn
down with the call.  ``REPRO_MP_START`` pins the multiprocessing start method
(CI runs a ``spawn`` leg to catch fork-only assumptions).

``jobs`` resolves like the incidence backend does
(:func:`repro.core.incidence.resolve_backend`): explicit argument first, then
the ``REPRO_JOBS`` environment variable, then the serial default of 1.  That
lets CI run the whole tier-1 suite under ``REPRO_JOBS=4`` without threading a
flag through every call site.

Worker seeding rides :meth:`repro.simulation.rng.SeededStreams.spawn_seed`:
:func:`derive_seeds` turns one root seed into per-task seeds keyed by task
*name*, so a task's seed never depends on submission order or on which worker
picks it up.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from .contracts import informational_fields, pool_payload, trace_span
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = [
    "resolve_jobs",
    "resolve_start_method",
    "in_main_process",
    "pool_map",
    "PersistentPool",
    "shutdown_pools",
    "pool_telemetry",
    "derive_seeds",
    "WorkerTelemetry",
    "merge_worker_telemetry",
]

_ENV_VAR = "REPRO_JOBS"
_START_ENV = "REPRO_MP_START"

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker-process count: explicit argument > ``REPRO_JOBS`` > 1.

    Mirrors :func:`repro.core.incidence.resolve_backend` so the two process
    knobs of the reproduction (backend, parallelism) configure the same way.
    """
    if jobs is None:
        env = os.environ.get(_ENV_VAR, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{_ENV_VAR} must be a positive integer, got {env!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_start_method(method: Optional[str] = None) -> Optional[str]:
    """Resolve the multiprocessing start method: argument > ``REPRO_MP_START`` > platform default.

    ``None`` / empty means "whatever the platform picks" (fork on Linux).
    CI runs a ``spawn`` leg through this seam to catch fork-only assumptions
    (module globals inherited by forked workers instead of shipped through
    initializers) before they land.
    """
    if method is None:
        method = os.environ.get(_START_ENV, "")
    method = method.strip().lower()
    if not method:
        return None
    available = multiprocessing.get_all_start_methods()
    if method not in available:
        raise ValueError(
            f"{_START_ENV} must be one of {available}, got {method!r}"
        )
    return method


def _mp_context():
    method = resolve_start_method()
    return None if method is None else multiprocessing.get_context(method)


def in_main_process() -> bool:
    """True outside any multiprocessing child.

    Pool persistence and shared-memory export are main-process features: a
    forked pool worker inherits the parent's ``_POOLS`` registry by copy, so
    reusing or evicting those executors from inside a worker would operate on
    processes the worker does not own, and fork children skip :mod:`atexit`,
    so nothing would ever sweep a worker-side pool or segment.  Nested
    dispatch inside a worker (an experiment harness solving with
    ``jobs > 1``) therefore takes the ephemeral pool and pickle dispatch.
    """
    return multiprocessing.parent_process() is None


# ---------------------------------------------------------------------------
# pool telemetry (informational: spawn/reuse balance and payload volume vary
# with jobs and persistence settings, so none of it may feed deterministic
# snapshots -- it feeds the obs plane's informational "dispatch_pool" source
# and the BENCH_podshard payload gates, which pin scaling within one run)
# ---------------------------------------------------------------------------

@dataclass
class _PoolTelemetry:
    spawns: int = 0  # executors created (ephemeral or persistent)
    reuses: int = 0  # keyed pool_map calls served by a warm executor
    shutdowns: int = 0  # executors retired (eviction, re-key, shutdown_pools)
    workers_provisioned: int = 0  # max_workers summed over spawns
    tasks_dispatched: int = 0  # items shipped across the pool boundary
    payload_bytes: int = 0  # pickled task payload bytes shipped to workers
    context_bytes: int = 0  # pickled initargs bytes shipped at spawn time
    generation: int = 0  # generation of the most recently armed pool


_TELEMETRY = _PoolTelemetry()
_GENERATIONS = itertools.count(1)


def pool_telemetry() -> Dict[str, int]:
    """Process-wide dispatch counters (informational; see class note above)."""
    return {
        "pool_spawns": _TELEMETRY.spawns,
        "pool_reuses": _TELEMETRY.reuses,
        "pool_shutdowns": _TELEMETRY.shutdowns,
        "pool_workers_provisioned": _TELEMETRY.workers_provisioned,
        "pool_tasks_dispatched": _TELEMETRY.tasks_dispatched,
        "dispatch_payload_bytes": _TELEMETRY.payload_bytes,
        "dispatch_context_bytes": _TELEMETRY.context_bytes,
        "pool_generation": _TELEMETRY.generation,
    }


# ---------------------------------------------------------------------------
# the persistent pool
# ---------------------------------------------------------------------------

class PersistentPool:
    """One warm :class:`ProcessPoolExecutor` keyed by ``(jobs, context digest)``.

    The executor outlives a single :func:`pool_map` call: its workers ran the
    initializer once (attaching the shared-memory incidence segment or
    unpickling the python-backend index) and keep that context between
    dispatches, so steady-state controller cycles pay neither a pool spawn
    nor a context re-ship.  ``generation`` is a process-wide monotonic
    counter stamped at spawn time; a dispatch whose context digest differs
    from the armed one never reaches this pool -- the registry retires it and
    arms a fresh generation, which is what makes stale worker state
    structurally impossible.
    """

    def __init__(
        self,
        jobs: int,
        context_key: str,
        initializer: Optional[Callable[..., None]],
        initargs: Tuple,
        generation: int,
    ):
        self.jobs = jobs
        self.context_key = context_key
        self.generation = generation
        self.broken = False
        self._executor = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=initializer,
            initargs=initargs,
            mp_context=_mp_context(),
        )

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Submission-order map over the warm executor.

        A dead worker surfaces as :class:`BrokenProcessPool`; the pool marks
        itself broken so the registry respawns on the next dispatch instead
        of handing out a dead executor.
        """
        try:
            futures = [self._executor.submit(fn, item) for item in items]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self.broken = True
            raise

    def shutdown(self) -> None:
        _TELEMETRY.shutdowns += 1
        self._executor.shutdown(wait=True, cancel_futures=True)


#: Live pools, LRU-ordered by last use.  The cap bounds idle worker processes
#: when many distinct contexts are armed in one process (e.g. a test suite).
_POOLS: "OrderedDict[Tuple[int, str], PersistentPool]" = OrderedDict()
_MAX_POOLS = 4


def _ensure_pool(
    jobs: int,
    context_key: str,
    initializer: Optional[Callable[..., None]],
    initargs: Tuple,
) -> PersistentPool:
    key = (jobs, context_key)
    pool = _POOLS.get(key)
    if pool is not None and not pool.broken:
        _POOLS.move_to_end(key)
        _TELEMETRY.reuses += 1
        return pool
    if pool is not None:  # broken: retire before respawning under the same key
        del _POOLS[key]
        pool.shutdown()
    generation = next(_GENERATIONS)
    _TELEMETRY.spawns += 1
    _TELEMETRY.workers_provisioned += jobs
    _TELEMETRY.generation = generation
    _TELEMETRY.context_bytes += len(
        pickle.dumps(initargs, protocol=pickle.HIGHEST_PROTOCOL)
    )
    with trace_span(
        "pool.spawn", informational=True, jobs=jobs, generation=generation, persistent=True
    ):
        pool = PersistentPool(jobs, context_key, initializer, initargs, generation)
    _POOLS[key] = pool
    while len(_POOLS) > _MAX_POOLS:
        _, evicted = _POOLS.popitem(last=False)
        evicted.shutdown()
    return pool


def shutdown_pools() -> int:
    """Retire every persistent pool (idempotent); returns how many were live.

    Registered via :mod:`atexit` so a normal exit, an engine Ctrl-C or a test
    run never leaves orphaned worker processes behind; callers that want the
    workers gone earlier (lifecycle tests, long-lived daemons between phases)
    call it directly.
    """
    count = 0
    while _POOLS:
        _, pool = _POOLS.popitem(last=False)
        pool.shutdown()
        count += 1
    return count


atexit.register(shutdown_pools)


def pool_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    jobs: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    context_key: Optional[str] = None,
) -> List[R]:
    """Map *fn* over *items*, preserving item order in the result list.

    ``jobs == 1`` (or fewer than two items) runs everything inline in this
    process -- no pool, no pickling -- which is also the code path the
    differential tests compare parallel runs against.  ``jobs > 1`` dispatches
    over a :class:`~concurrent.futures.ProcessPoolExecutor`; *initializer*
    runs once per worker (the hook shard dispatch uses to ship the solve
    context a single time instead of once per subproblem).

    *context_key* is a digest of everything the initializer installs (for PMC
    dispatch: the incidence identity plus solver options).  When given, and
    the caller is the main process, the executor is a :class:`PersistentPool`
    reused by every later call with the same ``(jobs, context_key)``;
    otherwise the call spawns and tears down its own executor.

    The result list is ordered by *submission* index, never by completion
    order, so callers can zip it back onto ``items`` directly.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in items]
    _TELEMETRY.tasks_dispatched += len(items)
    _TELEMETRY.payload_bytes += sum(
        len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)) for item in items
    )
    if context_key is not None and in_main_process():
        pool = _ensure_pool(jobs, context_key, initializer, initargs)
        return pool.map(fn, items)
    _TELEMETRY.spawns += 1
    _TELEMETRY.workers_provisioned += min(jobs, len(items))
    _TELEMETRY.context_bytes += len(
        pickle.dumps(initargs, protocol=pickle.HIGHEST_PROTOCOL)
    )
    with trace_span("pool.spawn", informational=True, jobs=jobs, persistent=False):
        executor = ProcessPoolExecutor(
            max_workers=min(jobs, len(items)),
            initializer=initializer,
            initargs=initargs,
            mp_context=_mp_context(),
        )
    with executor as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]


@pool_payload
@informational_fields("wall_seconds")
@dataclass(frozen=True, slots=True)
class WorkerTelemetry:
    """Telemetry one pooled task carries back to the dispatching parent.

    ``counters`` is the task's *deterministic* counter delta (for PMC shards,
    the kernel-counter delta the solve caused on the worker's attached or
    pickled :class:`~repro.core.costmodel.KernelCounters` copy) --
    byte-identical whether the task ran inline or in a worker.
    ``wall_seconds`` is the task's own wall clock, informational by the usual
    contract.  The payload is plain data, so it pickles across the pool
    boundary like every other task result.
    """

    wall_seconds: float = 0.0
    counters: Mapping[str, int] = field(default_factory=dict)


def merge_worker_telemetry(
    telemetries: Iterable[Optional[WorkerTelemetry]], cost=None
) -> float:
    """Fold per-task telemetry back into the parent, in submission order.

    When *cost* (a :class:`~repro.core.costmodel.CostModel`) is given, every
    task's counter delta merges into it -- the hook PMC dispatch uses so the
    parent's kernel totals after a pooled solve match the inline path's
    (workers tick their own copies, which would otherwise vanish).
    Returns the summed wall seconds (informational).
    """
    total_wall = 0.0
    for telemetry in telemetries:
        if telemetry is None:
            continue
        total_wall += telemetry.wall_seconds
        if cost is not None:
            for name in sorted(telemetry.counters):
                cost.add(name, telemetry.counters[name])
    return total_wall


def derive_seeds(root_seed: int, names: Sequence[str]) -> Dict[str, int]:
    """Per-task seeds from one root seed, keyed by task name.

    Each seed is ``SeededStreams(root_seed).spawn_seed(name)``: a pure
    function of ``(root_seed, name)``, so it is independent of the order of
    *names*, of the jobs count and of worker placement -- the property that
    makes seeded parallel sweeps replayable.
    """
    from .simulation.rng import SeededStreams

    streams = SeededStreams(root_seed)
    return {name: streams.spawn_seed(name) for name in names}
