"""Lifecycle tests for the shared-memory incidence plane and persistent pools.

Three layers of guarantees, in rough order of blast radius:

* **share/attach correctness** -- an attached index is a faithful read-only
  view of the exported one, and repeated ``share()`` calls reuse one segment.
* **persistent pools** -- keyed :func:`repro.parallel.pool_map` calls reuse a
  warm executor, a broken pool is retired and respawned, and a PMC solve
  inside a pool worker never dispatches (it solves inline).
* **no leaks** -- subprocess scenarios (clean exit, Ctrl-C, worker crash)
  leave no ``/dev/shm`` segment behind and trigger no resource-tracker
  warnings, which is the property the atexit sweeps exist for.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro import parallel
from repro.core import PMCOptions, construct_probe_matrix
from repro.core.incidence import (
    IncidenceIndex,
    SharedIncidence,
    release_all_shares,
    shm_telemetry,
)
from repro.parallel import (
    pool_map,
    pool_telemetry,
    resolve_start_method,
    shutdown_pools,
)
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_fattree

REPO_ROOT = Path(__file__).resolve().parents[1]

# Same fixed instance the incidence unit tests use: 5 paths over 6 links.
LINKS = [3, 7, 10, 11, 20, 21]
PATHS = [
    frozenset({3, 7}),
    frozenset({7, 10}),
    frozenset({11, 20}),
    frozenset(),
    frozenset({20, 21, 3}),
]


def _numpy_index() -> IncidenceIndex:
    return IncidenceIndex(PATHS, LINKS)


@pytest.fixture(autouse=True)
def _clean_process_state():
    """Every test starts and ends with no live pools or exported segments."""
    shutdown_pools()
    release_all_shares()
    yield
    shutdown_pools()
    release_all_shares()


def _segment_is_gone(name: str) -> bool:
    try:
        leftover = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    # Only on failure: close the accidental attach so the test itself
    # does not leak (the owner already unlinked or never will).
    leftover.close()  # repro: allow[REP008] -- probe attach on the failure path only
    return False


# ---------------------------------------------------------------------------
# share / attach round trip
# ---------------------------------------------------------------------------

class TestShareAttach:
    def test_round_trip_is_faithful(self):
        index = _numpy_index()
        share = index.share()  # repro: allow[REP008] -- released via release_share() below
        attached = IncidenceIndex.attach(share.handle)
        try:
            assert attached.attached
            assert attached.link_ids == index.link_ids
            assert attached.num_paths == index.num_paths
            assert attached.nnz == index.nnz
            assert list(attached.coverage_counts()) == list(index.coverage_counts())
            for row in range(index.num_paths):
                assert attached.row_link_set(row) == index.row_link_set(row)
        finally:
            attached.detach()
            index.release_share()
        assert _segment_is_gone(share.name)

    def test_share_is_cached_until_released(self):
        index = _numpy_index()
        before = shm_telemetry()["shm_segments_created"]
        share = index.share()  # repro: allow[REP008] -- released via release_share() below
        assert index.share() is share
        assert shm_telemetry()["shm_segments_created"] == before + 1
        index.release_share()
        index.release_share()  # idempotent
        fresh = index.share()  # repro: allow[REP008] -- released via release_share() below
        assert fresh is not share
        assert fresh.handle.generation > share.handle.generation
        index.release_share()

    def test_attached_views_are_read_only(self):
        index = _numpy_index()
        with index.share() as share:
            attached = IncidenceIndex.attach(share.handle)
            try:
                counts = attached.coverage_counts()
                with pytest.raises(ValueError):
                    counts[0] = 99
            finally:
                attached.detach()

    def test_context_manager_unlinks(self):
        index = _numpy_index()
        with index.share() as share:
            name = share.name
            assert not _segment_is_gone(name)
        assert share.closed
        assert _segment_is_gone(name)

    def test_attached_index_cannot_reshare(self):
        index = _numpy_index()
        with index.share() as share:
            attached = IncidenceIndex.attach(share.handle)
            try:
                with pytest.raises(RuntimeError):
                    attached.share()  # repro: allow[REP008] -- the call raises; nothing is acquired
            finally:
                attached.detach()

    def test_share_never_ticks_counters(self):
        index = _numpy_index()
        index.coverage_counts()  # warm the cache so share() has nothing to compute
        before = index.counters.as_dict()
        with index.share():
            pass
        assert index.counters.as_dict() == before

    def test_release_all_shares_sweeps(self):
        index = _numpy_index()
        share = index.share()  # repro: allow[REP008] -- swept by release_all_shares below
        assert release_all_shares() == 1
        assert share.closed
        assert _segment_is_gone(share.name)


# ---------------------------------------------------------------------------
# coverage-count caching
# ---------------------------------------------------------------------------

class TestCoverageCache:
    def test_vector_computed_once_but_still_ticked(self):
        index = _numpy_index()
        first = index.coverage_counts()
        second = index.coverage_counts()
        assert second is first  # the cached vector, not a recompute
        assert index.counters.calls("coverage_counts") == 2

    def test_active_counts_cache_tracks_mask(self):
        index = _numpy_index()
        baseline = list(index.active_coverage_counts())
        assert index.active_coverage_counts() is index.active_coverage_counts()
        index.apply_link_mask([7])
        masked = list(index.active_coverage_counts())
        assert masked != baseline
        index.revert_link_mask([7])
        assert list(index.active_coverage_counts()) == baseline
        index.apply_link_mask([7])
        index.clear_link_mask()
        assert list(index.active_coverage_counts()) == baseline


# ---------------------------------------------------------------------------
# persistent pools
# ---------------------------------------------------------------------------

def _square(x: int) -> int:
    return x * x


def _die(_x: int) -> int:
    os._exit(13)  # simulate a worker crash, not an exception


def _plan_fattree4(jobs: int):
    """A Fattree(4) cold plan with every component solved (two tasks to dispatch)."""
    topology = build_fattree(4)
    matrix = RoutingMatrix(topology, enumerate_candidate_paths(topology, ordered=False))
    spawns = pool_telemetry()["pool_spawns"]
    result = construct_probe_matrix(
        matrix, PMCOptions(alpha=2, beta=1, use_symmetry=False, jobs=jobs)
    )
    return (
        result.selected_indices,
        result.stats.cost_counters(),
        pool_telemetry()["pool_spawns"] - spawns,
    )


class TestPersistentPool:
    def test_keyed_calls_reuse_one_pool(self):
        before = pool_telemetry()
        first = pool_map(_square, [1, 2, 3], jobs=2, context_key="shmtest.reuse")
        second = pool_map(_square, [4, 5, 6], jobs=2, context_key="shmtest.reuse")
        assert first == [1, 4, 9]
        assert second == [16, 25, 36]
        after = pool_telemetry()
        assert after["pool_spawns"] - before["pool_spawns"] == 1
        assert after["pool_reuses"] - before["pool_reuses"] == 1

    def test_distinct_keys_get_distinct_pools(self):
        before = pool_telemetry()
        pool_map(_square, [1, 2], jobs=2, context_key="shmtest.a")
        pool_map(_square, [1, 2], jobs=2, context_key="shmtest.b")
        after = pool_telemetry()
        assert after["pool_spawns"] - before["pool_spawns"] == 2
        assert len(parallel._POOLS) == 2

    def test_lru_cap_bounds_live_pools(self):
        for tag in ("a", "b", "c", "d", "e"):
            pool_map(_square, [1, 2], jobs=2, context_key=f"shmtest.lru.{tag}")
        assert len(parallel._POOLS) <= parallel._MAX_POOLS

    def test_broken_pool_is_retired_and_respawned(self):
        before = pool_telemetry()
        with pytest.raises(BrokenProcessPool):
            pool_map(_die, [1, 2], jobs=2, context_key="shmtest.crash")
        # The dead executor must not be handed out again: the next keyed
        # dispatch spawns a fresh generation and succeeds.
        result = pool_map(_square, [3, 4], jobs=2, context_key="shmtest.crash")
        assert result == [9, 16]
        after = pool_telemetry()
        assert after["pool_spawns"] - before["pool_spawns"] == 2
        assert after["pool_shutdowns"] - before["pool_shutdowns"] >= 1

    def test_shutdown_pools_is_idempotent(self):
        pool_map(_square, [1, 2], jobs=2, context_key="shmtest.shutdown")
        assert shutdown_pools() == 1
        assert shutdown_pools() == 0

    def test_nested_pmc_dispatch_solves_inline(self):
        """``jobs=2`` inside a pool worker: the worker's cores are taken, so the
        solve runs inline -- same cover and counters, no pool of its own."""
        selection, counters, _ = _plan_fattree4(1)
        for nested in pool_map(_plan_fattree4, [2, 2], jobs=2):
            assert nested == (selection, counters, 0)

    def test_resolve_start_method(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_START", raising=False)
        assert resolve_start_method() is None
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        assert resolve_start_method() == "spawn"
        monkeypatch.setenv("REPRO_MP_START", "bogus")
        with pytest.raises(ValueError):
            resolve_start_method()


# ---------------------------------------------------------------------------
# subprocess lifecycle: no leaked segments, no resource-tracker noise
# ---------------------------------------------------------------------------

# Scripts run from files (not ``-c``) with a ``__main__`` guard so the spawn
# start method can re-import the worker functions in child processes.

_CLEAN_EXIT_SCRIPT = r"""
import sys
from repro.core.incidence import IncidenceIndex


def main():
    index = IncidenceIndex([{1, 2}, {2, 3}], [1, 2, 3])
    share = index.share()  # never released: the atexit sweep must catch it
    sys.stdout.write(share.name)


if __name__ == "__main__":
    main()
"""

_SIGINT_SCRIPT = r"""
import os
import signal
import sys
from repro.core.incidence import IncidenceIndex
from repro.parallel import pool_map


def _identity(x):
    return x


def main():
    index = IncidenceIndex([{1, 2}, {2, 3}], [1, 2, 3])
    share = index.share()
    pool_map(_identity, [1, 2, 3], jobs=2, context_key="lifecycle.sigint")
    sys.stdout.write(share.name)
    sys.stdout.flush()
    os.kill(os.getpid(), signal.SIGINT)  # KeyboardInterrupt -> atexit sweeps run


if __name__ == "__main__":
    main()
"""

_WORKER_CRASH_SCRIPT = r"""
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from repro.core.incidence import IncidenceIndex
from repro.parallel import pool_map

_INDEX = None


def _attach(handle):
    global _INDEX
    _INDEX = IncidenceIndex.attach(handle)


def _crash(x):
    os._exit(17)


def main():
    index = IncidenceIndex([{1, 2}, {2, 3}], [1, 2, 3])
    share = index.share()
    try:
        pool_map(_crash, [1, 2], jobs=2,
                 initializer=_attach, initargs=(share.handle,),
                 context_key="lifecycle.crash")
    except BrokenProcessPool:
        pass
    else:
        raise SystemExit("expected the pool to break")
    sys.stdout.write(share.name)


if __name__ == "__main__":
    main()
"""


@pytest.mark.slow
class TestSubprocessLifecycle:
    def _run(self, tmp_path, script: str, expect_returncode=(0,)) -> str:
        script_path = tmp_path / "scenario.py"
        script_path.write_text(script, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(script_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode in expect_returncode, proc.stderr[-2000:]
        assert "resource_tracker" not in proc.stderr, proc.stderr[-2000:]
        assert "leaked" not in proc.stderr, proc.stderr[-2000:]
        name = proc.stdout.strip().splitlines()[-1]
        assert name.startswith("repro_inc_")
        assert _segment_is_gone(name), f"segment {name} survived the process"
        return name

    def test_clean_exit_sweeps_unreleased_share(self, tmp_path):
        self._run(tmp_path, _CLEAN_EXIT_SCRIPT)

    def test_sigint_sweeps_share_and_pools(self, tmp_path):
        # SIGINT surfaces as KeyboardInterrupt: the interpreter still runs
        # atexit hooks, so both sweeps fire.  Exit code varies by platform
        # (1 from the unhandled KeyboardInterrupt, or 130/-2).
        self._run(tmp_path, _SIGINT_SCRIPT, expect_returncode=(1, 130, -signal.SIGINT))

    def test_worker_crash_leaves_no_segment(self, tmp_path):
        self._run(tmp_path, _WORKER_CRASH_SCRIPT)
