"""Array-backed path x link incidence: the shared index of routing, PMC and PLL.

§4.1 of the paper treats the routing matrix ``R`` as an ``m x n`` 0/1 matrix
(paths x links) and every algorithm layered on top of it -- PMC's greedy
(Alg. 1), the decomposition of §4.3 and PLL's hit-ratio scans (§5.3) -- only
ever asks incidence questions of it: *which links lie on this path*, *which
paths cross this link*, *how many of a link's paths are lossy*.  The seed
implementation answered those questions with per-path ``frozenset``s and
dicts of tuples, which caps scalability far below the fabrics of Tables 2
and 5.

:class:`IncidenceIndex` stores the incidence once, in CSR/CSC form:

* ``row_indptr`` / ``row_cols``  -- path -> sorted column positions (CSR), and
* ``col_indptr`` / ``col_rows``  -- column -> sorted path rows (CSC),

as flat int64 numpy arrays, plus the vectorized kernels the hot loops need
(per-link coverage counters, Eq. 1 weight accumulation, hit-ratio counts,
syndromes, connected-component and pod-shard decomposition, and the
distinct-column-signature count that ends a PMC solve).  Every kernel works
on exact integers; the plain-list loops in ``tests/python_kernels.py`` are
the oracle each one is tested against (``tests/test_incidence_oracle.py``).
"""

from __future__ import annotations

import atexit
import itertools
import os
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as _np

from ..contracts import pool_payload, trace_record, trace_span
from .costmodel import KernelCounters

__all__ = [
    "shm_telemetry",
    "IncidenceHandle",
    "SharedIncidence",
    "IncidenceIndex",
    "RowProjection",
    "RefinablePartition",
    "clear_if_reached",
    "first_max",
]


def clear_if_reached(mask, counts, idx, threshold: int) -> int:
    """Clear ``mask[i]`` where ``i`` is in *idx* and ``counts[i] >= threshold``.

    Returns how many entries it cleared (PMC's under-covered link count).
    """
    sel = idx[mask[idx] & (counts[idx] >= threshold)]
    mask[sel] = False
    return int(sel.size)


def first_max(vector) -> Tuple[int, int]:
    """(index, value) of the first maximum; (-1, 0) for an empty vector."""
    if len(vector) == 0:
        return -1, 0
    best_idx = int(_np.argmax(vector))  # argmax returns the first maximum
    return best_idx, int(vector[best_idx])


def _gather_segments(indptr, data, ids):
    """Concatenated CSR/CSC segments of *ids*: ``(segment_of_entry, values)``.

    Entry ``k`` of segment ``s`` sits at
    ``indptr[ids[s]] + (k - segment_start[s])``, so one ``repeat`` plus one
    ``arange`` gathers every slice in a single fancy index.
    """
    starts = indptr[ids]
    lengths = indptr[ids + 1] - starts
    ends = _np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    flat_pos = _np.repeat(starts - (ends - lengths), lengths) + _np.arange(total)
    segments = _np.repeat(_np.arange(len(ids), dtype=_np.int64), lengths)
    return segments, data[flat_pos]


# ---------------------------------------------------------------------------
# the shared-memory data plane
#
# An IncidenceIndex is frozen after construction: the CSR/CSC
# arrays never change (masks are overlays on separate state).  share() copies
# those buffers once into a multiprocessing.shared_memory segment; workers
# attach() the segment and get the same index back as read-only zero-copy
# numpy views, so pooled shard dispatch ships a ~100-byte IncidenceHandle
# instead of a pickled matrix.  Lifecycle is explicit: the creating process
# owns the segment and unlink()s it (context manager, release_share(), or the
# atexit sweep); workers merely map it and deliberately *unregister* from the
# resource tracker -- the tracker would otherwise unlink the segment when the
# first worker exits, yanking it out from under its siblings.
# ---------------------------------------------------------------------------

_SHARE_GENERATIONS = itertools.count(1)
_SEGMENT_SEQ = itertools.count(1)

#: Mutable process-wide counters behind :func:`shm_telemetry`.  Informational
#: by construction (they vary with jobs/persistence settings), so they feed
#: the obs plane's informational source and the bench report, never
#: deterministic snapshots.
_SHM_STATS = {
    "segments_created": 0,
    "bytes_exported": 0,
    "attaches": 0,
    "detaches": 0,
    "releases": 0,
}


def shm_telemetry() -> Dict[str, int]:
    """Process-wide shared-memory plane counters (informational)."""
    return {f"shm_{name}": value for name, value in _SHM_STATS.items()}


@pool_payload
@dataclass(frozen=True, slots=True)
class IncidenceHandle:
    """The tiny pool payload that stands in for a shared index.

    Everything a worker needs to reattach: the segment name, the three array
    dimensions that fix the segment layout, and the share generation (which
    makes the handle -- and therefore the persistent-pool context digest --
    unique per export, so a pool armed for one topology can never serve
    another).
    """

    name: str
    num_paths: int
    num_links: int
    nnz: int
    generation: int


#: int64 arrays packed back-to-back into one segment, in this order; all
#: lengths are fixed by (num_paths, num_links, nnz) so the handle alone
#: recovers the layout.
_SEGMENT_FIELDS = (
    ("row_indptr", lambda m, n, nnz: m + 1),
    ("row_cols", lambda m, n, nnz: nnz),
    ("col_indptr", lambda m, n, nnz: n + 1),
    ("col_rows", lambda m, n, nnz: nnz),
    ("entry_rows", lambda m, n, nnz: nnz),
    ("link_ids", lambda m, n, nnz: n),
    ("coverage_counts", lambda m, n, nnz: n),
)


def _segment_layout(num_paths: int, num_links: int, nnz: int):
    """``name -> (offset_bytes, length)`` plus the total byte size."""
    layout: Dict[str, Tuple[int, int]] = {}
    offset = 0
    for name, length_of in _SEGMENT_FIELDS:
        length = length_of(num_paths, num_links, nnz)
        layout[name] = (offset, length)
        offset += length * 8  # int64
    return layout, offset


def _create_segment(size: int):
    """Create a uniquely named segment; retries on a (stale) name collision."""
    from multiprocessing import shared_memory

    while True:
        name = f"repro_inc_{os.getpid()}_{next(_SEGMENT_SEQ)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=max(size, 1))
        except FileExistsError:  # pragma: no cover - stale leftover segment
            continue


def _attach_segment(name: str):
    """Map an existing segment read-write-shared, without tracker ownership.

    Attaching registers the segment with the resource tracker, which would
    unlink it when the attaching process exits -- but the segment is owned by
    the exporter, and sibling workers may still be using it.  Registration is
    suppressed for the duration of the attach (the pre-3.13 stand-in for
    ``SharedMemory(track=False)``); register-then-unregister would be wrong
    under the fork start method, where workers share the owner's tracker and
    an unregister would cancel the *owner's* registration, leaving its later
    ``unlink()`` unbalanced (a tracker-side ``KeyError``).
    """
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register
    resource_tracker.register = lambda _name, _rtype: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register
    _SHM_STATS["attaches"] += 1
    return shm


def _segment_views(shm, handle: IncidenceHandle) -> Dict[str, "object"]:
    """Read-only int64 numpy views over every packed array of a segment."""
    layout, _ = _segment_layout(handle.num_paths, handle.num_links, handle.nnz)
    views: Dict[str, object] = {}
    for name, (offset, length) in layout.items():
        view = _np.ndarray((length,), dtype=_np.int64, buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        views[name] = view
    return views


#: Segments created by this process and not yet released.  The atexit sweep
#: guarantees a clean shutdown (no /dev/shm leftovers) even when owners skip
#: release_share() -- e.g. an engine interrupted by Ctrl-C.
_LIVE_SHARES: "Dict[int, SharedIncidence]" = {}


def release_all_shares() -> int:
    """Unlink every live segment this process exported; returns the count."""
    count = 0
    while _LIVE_SHARES:
        _, share = _LIVE_SHARES.popitem()
        share.close()
        count += 1
    return count


atexit.register(release_all_shares)


class SharedIncidence:
    """Owner-side handle of one exported segment (created by ``share()``).

    The owner keeps the mapping open for its own lifetime and is the only
    party that ever ``unlink()``s.  ``close()`` is idempotent and does both;
    the context-manager form scopes a share to a block, and the atexit sweep
    catches everything else.
    """

    def __init__(self, shm, handle: IncidenceHandle):
        self._shm = shm
        self.handle = handle
        self._closed = False
        _LIVE_SHARES[id(self)] = self

    @classmethod
    def from_index(cls, index: "IncidenceIndex") -> "SharedIncidence":
        m, n, nnz = index.num_paths, index.num_links, index.nnz
        layout, total = _segment_layout(m, n, nnz)
        handle = IncidenceHandle(
            name="",  # patched below once the segment name is known
            num_paths=m,
            num_links=n,
            nnz=nnz,
            generation=next(_SHARE_GENERATIONS),
        )
        with trace_span(
            "shm.export", informational=True, bytes=total, generation=handle.generation
        ):
            shm = _create_segment(total)
            try:
                handle = IncidenceHandle(
                    name=shm.name,
                    num_paths=m,
                    num_links=n,
                    nnz=nnz,
                    generation=handle.generation,
                )
                sources = {
                    "row_indptr": index._row_indptr,
                    "row_cols": index._row_cols,
                    "col_indptr": index._col_indptr,
                    "col_rows": index._col_rows,
                    "entry_rows": index._entry_row_ids(),
                    "link_ids": _np.fromiter(index._link_ids, dtype=_np.int64, count=n),
                    "coverage_counts": index._coverage_vector(),
                }
                for name, (offset, length) in layout.items():
                    dest = _np.ndarray(
                        (length,), dtype=_np.int64, buffer=shm.buf, offset=offset
                    )
                    dest[:] = sources[name]
            except BaseException:  # pragma: no cover - copy-in cannot realistically fail
                shm.close()
                shm.unlink()
                raise
        _SHM_STATS["segments_created"] += 1
        _SHM_STATS["bytes_exported"] += total
        return cls(shm, handle)

    @property
    def name(self) -> str:
        return self.handle.name

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        _LIVE_SHARES.pop(id(self), None)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept externally
            pass
        _SHM_STATS["releases"] += 1

    def __enter__(self) -> "SharedIncidence":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# the incidence index
# ---------------------------------------------------------------------------

class IncidenceIndex:
    """CSR/CSC view of the path x link 0/1 incidence structure.

    Rows are path positions ``0..m-1`` (the canonical path indices of the
    owning routing/probe matrix); columns are positions ``0..n-1`` into
    ``link_ids`` (the link universe, in the order the caller supplied it).
    Links of a path that fall outside the universe are dropped, exactly like
    the seed ``RoutingMatrix`` did.
    """

    def __init__(
        self,
        path_link_sets: Sequence[Iterable[int]],
        link_universe: Sequence[int],
        counters: Optional[KernelCounters] = None,
    ):
        row_indptr: List[int] = [0]
        row_links: List[int] = []
        for links in path_link_sets:
            row_links.extend(links)
            row_indptr.append(len(row_links))
        self._build(row_indptr, row_links, link_universe, counters)

    @classmethod
    def from_rows(
        cls,
        row_indptr,
        row_links,
        link_universe: Sequence[int],
        counters: Optional[KernelCounters] = None,
    ) -> "IncidenceIndex":
        """Build from flat rows: row ``r`` crosses ``row_links[row_indptr[r]:row_indptr[r+1]]``.

        Link ids may repeat within a row and may fall outside the universe
        (both are dropped); the arrays may be lists or numpy arrays.  This is
        what a :class:`~repro.routing.PathTable` feeds.
        """
        self = cls.__new__(cls)
        self._build(row_indptr, row_links, link_universe, counters)
        return self

    def _build(self, row_indptr, row_links, link_universe, counters) -> None:
        # Semantic kernel-invocation counters (see repro.core.costmodel):
        # ticked once per kernel *question*, never per array micro-op.
        self.counters = counters if counters is not None else KernelCounters()
        self._link_ids: Tuple[int, ...] = tuple(link_universe)
        self._pos: Dict[int, int] = {link: col for col, link in enumerate(self._link_ids)}
        self._num_paths = len(row_indptr) - 1
        (
            self._row_indptr,
            self._row_cols,
            self._col_indptr,
            self._col_rows,
        ) = self._csr_csc(row_indptr, row_links)
        trace_record(
            "incidence.build",
            # Informational: matrices are also built inside pool workers, which
            # never trace, so whether this span exists depends on ``jobs``.
            informational=True,
            rows=self._num_paths,
            links=len(self._link_ids),
            nnz=len(self._row_cols),
        )
        # Lazily filled caches for the set/tuple views the legacy API exposes.
        self._row_set_cache: Dict[int, FrozenSet[int]] = {}
        self._col_tuple_cache: Dict[int, Tuple[int, ...]] = {}
        self._entry_rows = None  # row id of every CSR entry, see _entry_row_ids()
        # Link-mask state (see the "link masking" section): masked column
        # positions plus, per row, how many of its links are currently masked.
        # A row is active iff its blocker count is zero.  Allocated lazily so
        # mask-free indices pay nothing.
        self._masked_cols: set = set()
        self._row_blockers = None
        # Shared-memory plane + coverage-cache state (see the dedicated
        # sections below).
        self._share: Optional[SharedIncidence] = None
        self._attached_shm = None
        self._coverage_cache = None
        self._active_counts_cache = None

    def _csr_csc(self, indptr, links):
        """CSR with sorted, de-duplicated in-universe columns per row, and its CSC."""
        m, n = self._num_paths, len(self._link_ids)
        indptr = _np.asarray(indptr, dtype=_np.int64)
        links = _np.asarray(links, dtype=_np.int64)
        keys = _np.repeat(_np.arange(m, dtype=_np.int64), _np.diff(indptr))  # each hop's row
        if n and len(links):
            universe = _np.fromiter(self._link_ids, dtype=_np.int64, count=n)
            by_id = _np.argsort(universe, kind="stable")
            ordered = universe[by_id]
            # The last of equal ids, like the ``link -> column`` dict.
            slot = _np.maximum(_np.searchsorted(ordered, links, side="right") - 1, 0)
            known = ordered[slot] == links
            cols = by_id[slot]
            if not known.all():
                keys, cols = keys[known], cols[known]
            # One sort of ``row << bits | column`` keys orders the columns
            # within each row and makes a row's repeated hops adjacent.
            bits = n.bit_length()
            keys <<= bits
            keys |= cols
            keys.sort(kind="stable")
            first = _np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            if not first.all():
                keys = keys[first]
            rows, cols = keys >> bits, keys & ((1 << bits) - 1)
        else:
            rows = cols = _np.zeros(0, dtype=_np.int64)
        row_indptr = _np.concatenate(([0], _np.cumsum(_np.bincount(rows, minlength=m))))
        col_indptr = _np.concatenate(([0], _np.cumsum(_np.bincount(cols, minlength=n))))
        # Stable, so rows stay ascending within a column: a counting sort, and
        # literally one (radix) when the column positions fit 16 bits.
        by_col = _np.argsort(cols.astype(_np.min_scalar_type(max(n - 1, 0))), kind="stable")
        return row_indptr, cols, col_indptr, rows[by_col]

    # ------------------------------------------------------------------ sizes
    @property
    def num_paths(self) -> int:
        return self._num_paths

    @property
    def num_links(self) -> int:
        return len(self._link_ids)

    @property
    def nnz(self) -> int:
        return int(self._row_indptr[self._num_paths])

    @property
    def link_ids(self) -> Tuple[int, ...]:
        return self._link_ids

    # --------------------------------------------------------------- lookups
    def position(self, link_id: int) -> int:
        """Column position of a link id (KeyError outside the universe)."""
        return self._pos[link_id]

    def contains_link(self, link_id: int) -> bool:
        return link_id in self._pos

    def row_length(self, row: int) -> int:
        return int(self._row_indptr[row + 1] - self._row_indptr[row])

    def row_lengths(self):
        """Per-row link counts (vector; one call instead of m scalar reads)."""
        return _np.diff(self._row_indptr)

    def row_cols(self, row: int):
        """Column positions on a path (sorted; zero-copy slice/view)."""
        return self._row_cols[int(self._row_indptr[row]) : int(self._row_indptr[row + 1])]

    def col_rows(self, col: int):
        """Path rows crossing a column (sorted; zero-copy slice/view)."""
        return self._col_rows[int(self._col_indptr[col]) : int(self._col_indptr[col + 1])]

    def row_link_set(self, row: int) -> FrozenSet[int]:
        """Link ids of a path as a frozenset (cached; legacy ``links_on`` view)."""
        cached = self._row_set_cache.get(row)
        if cached is None:
            ids = self._link_ids
            cached = frozenset(ids[int(c)] for c in self.row_cols(row))
            self._row_set_cache[row] = cached
        return cached

    def paths_through(self, link_id: int) -> Tuple[int, ...]:
        """Row indices of the paths crossing a link (cached tuple view)."""
        col = self._pos[link_id]  # KeyError propagates for foreign links
        cached = self._col_tuple_cache.get(col)
        if cached is None:
            cached = tuple(int(r) for r in self.col_rows(col))
            self._col_tuple_cache[col] = cached
        return cached

    # --------------------------------------------------------------- kernels
    def coverage_counts(self):
        """Per-column path counts (the coverage histogram, as a vector).

        The vector is computed once and cached for the index's lifetime --
        the CSC structure is frozen, so it can never change.  Callers receive
        the shared cached vector (read-only) and must not mutate it;
        the kernel counter still ticks per call, so cost accounting is
        unchanged by the cache.
        """
        self.counters.tick("coverage_counts", self.num_links)
        return self._coverage_vector()

    def _coverage_vector(self):
        """The cached coverage vector, without ticking (shm export uses this:
        sharing must never perturb deterministic counter snapshots)."""
        if self._coverage_cache is None:
            counts = _np.diff(self._col_indptr)
            counts.flags.writeable = False
            self._coverage_cache = counts
        return self._coverage_cache

    def coverage_histogram(self) -> Dict[int, int]:
        """Map ``link_id -> number of paths`` through it (legacy dict view)."""
        counts = self.coverage_counts()
        return {link: int(counts[col]) for col, link in enumerate(self._link_ids)}

    def sum_over_row(self, vector, row: int) -> int:
        """``sum(vector[col] for col on path)`` -- the Eq. 1 weight term."""
        return int(vector[self.row_cols(row)].sum())

    def rows_touching_links(self, link_ids: Iterable[int]) -> List[int]:
        """Sorted rows crossing at least one of the links (a loss syndrome)."""
        cols = [self._pos[l] for l in link_ids if l in self._pos]
        self.counters.tick("rows_touching_links", len(cols))
        if not cols:
            return []
        return _np.unique(_np.concatenate([self.col_rows(c) for c in cols])).tolist()

    def masked_col_counts(self, row_mask):
        """Per-column count of incident rows with ``row_mask[row]`` True.

        This is the one-shot kernel behind hit ratios (PLL step 2) and
        coverage-over-a-path-subset queries: calling it with the lossy-path
        mask yields every link's lossy count, with the observed-path mask its
        total count.
        """
        self.counters.tick("masked_col_counts", self.nnz)
        keep = row_mask[self._entry_row_ids()]
        return _np.bincount(self._row_cols[keep], minlength=self.num_links)

    def weighted_col_counts(self, row_values):
        """Per-column sum of ``row_values`` over the incident rows.

        The transpose companion of :meth:`sum_over_row`: with the per-path
        lost-probe counters of an aggregation window it yields every link's
        lost-probe total, with the sent counters its probe volume -- the
        sliding-window per-link counters the telemetry engine's
        :class:`~repro.engine.aggregator.StreamAggregator` folds probe streams
        into.  The float64 ``bincount`` sums are exact below 2**53, so the
        int64 result is too.
        """
        self.counters.tick("weighted_col_counts", self.nnz)
        values = _np.asarray(row_values, dtype=_np.int64)
        counts = _np.bincount(
            self._row_cols,
            weights=values[self._entry_row_ids()],
            minlength=self.num_links,
        )
        return counts.astype(_np.int64)

    def _entry_row_ids(self):
        """The row of every CSR entry (computed once; the shm export ships it)."""
        if self._entry_rows is None:
            self._entry_rows = _np.repeat(
                _np.arange(self._num_paths, dtype=_np.int64), _np.diff(self._row_indptr)
            )
        return self._entry_rows

    # ----------------------------------------------------------- link masking
    #
    # A *link mask* marks a set of columns (failed links) as unusable and,
    # derived from it, every row crossing a masked column as inactive.  The
    # CSR/CSC arrays are never touched -- masking is a cheap overlay
    # (O(paths through the masked links) per apply/revert), which is what
    # makes incremental controller cycles possible: instead of re-ingesting
    # half a million paths after a 2-link delta, the cached index applies a
    # 2-column mask and hands PMC the surviving rows.

    def apply_link_mask(self, link_ids: Iterable[int]) -> Tuple[int, ...]:
        """Mask links (failed in the current delta); returns the ids newly masked.

        Ids outside the universe (e.g. server uplinks of a failed switch) are
        ignored, as are already-masked ids -- apply/revert therefore compose
        like set operations.
        """
        self.counters.tick("apply_link_mask")
        newly = []
        for link_id in link_ids:
            col = self._pos.get(link_id)
            if col is None or col in self._masked_cols:
                continue
            self._masked_cols.add(col)
            newly.append(link_id)
            self._adjust_blockers(col, +1)
        if newly:
            self._active_counts_cache = None
        return tuple(newly)

    def revert_link_mask(self, link_ids: Iterable[int]) -> Tuple[int, ...]:
        """Unmask links (recovered in the current delta); returns the ids unmasked."""
        self.counters.tick("revert_link_mask")
        reverted = []
        for link_id in link_ids:
            col = self._pos.get(link_id)
            if col is None or col not in self._masked_cols:
                continue
            self._masked_cols.discard(col)
            reverted.append(link_id)
            self._adjust_blockers(col, -1)
        if reverted:
            self._active_counts_cache = None
        return tuple(reverted)

    def clear_link_mask(self) -> None:
        """Drop the whole mask (all rows active again)."""
        self._masked_cols.clear()
        self._row_blockers = None
        self._active_counts_cache = None

    def _adjust_blockers(self, col: int, amount: int) -> None:
        if self._row_blockers is None:
            self._row_blockers = _np.zeros(self._num_paths, dtype=_np.int64)
        self._row_blockers[self.col_rows(col)] += amount

    @property
    def masked_link_ids(self) -> Tuple[int, ...]:
        """Currently masked links, sorted by id."""
        ids = self._link_ids
        return tuple(sorted(ids[c] for c in self._masked_cols))

    def active_row_mask(self):
        """Boolean vector: ``True`` for rows crossing no masked link."""
        if self._row_blockers is None:
            return _np.ones(self._num_paths, dtype=bool)
        return self._row_blockers == 0

    def active_rows(self) -> List[int]:
        """Sorted row indices of the paths untouched by the mask."""
        if self._row_blockers is None:
            return list(range(self._num_paths))
        return _np.flatnonzero(self._row_blockers == 0).tolist()

    def active_among(self, rows: Sequence[int]):
        """The rows of *rows* that cross no masked link, in the given order.

        What :meth:`active_rows` is to the whole index, for a subset: the
        masked decomposition filters one component's rows with it instead of
        listing every active row of the fabric.
        """
        if self._row_blockers is None:
            return rows
        rows = _np.asarray(rows, dtype=_np.int64)
        return rows[self._row_blockers[rows] == 0]

    @property
    def num_active_rows(self) -> int:
        if self._row_blockers is None:
            return self._num_paths
        return int(_np.count_nonzero(self._row_blockers == 0))

    def active_coverage_counts(self):
        """Per-column path counts over the *active* rows only.

        On a mask-free index this equals :meth:`coverage_counts`.  With a mask
        it equals the coverage histogram of a routing matrix rebuilt from
        scratch on the post-delta topology -- the quantity incremental PMC
        needs to judge coverability byte-identically to a cold rebuild.

        The masked vector is cached until the next mask mutation
        (apply/revert/clear), so repeated dispatches within one controller
        cycle compute it once.  Cache hits skip the ``masked_col_counts``
        tick; whether a call hits is a pure function of the mask-mutation
        sequence, which is identical across jobs settings, so counter
        snapshots stay byte-identical across them.
        """
        if self._row_blockers is None:
            return self.coverage_counts()
        if self._active_counts_cache is None:
            counts = self.masked_col_counts(self.active_row_mask())
            counts.flags.writeable = False
            self._active_counts_cache = counts
        return self._active_counts_cache

    # ------------------------------------------------- shared-memory export
    def share(self) -> SharedIncidence:
        """Export the frozen CSR/CSC buffers into a shared-memory segment.

        The export is cached: repeated calls return the same live
        :class:`SharedIncidence`, so one controller shares its matrix once
        and every later dispatch reuses the segment.  Sharing never ticks
        kernel counters -- whether an index was shared must be invisible to
        deterministic cost snapshots.

        The caller owns the returned share's lifecycle: use it as a context
        manager, call :meth:`release_share` (or ``share.close()``) when the
        index is retired, or rely on the process-exit sweep.
        """
        if self._attached_shm is not None:
            raise RuntimeError("an attached index cannot be re-shared")
        if self._share is None or self._share.closed:
            self._share = SharedIncidence.from_index(self)
        return self._share

    def release_share(self) -> None:
        """Unlink this index's exported segment, if any (idempotent)."""
        if self._share is not None:
            share, self._share = self._share, None
            share.close()

    @classmethod
    def attach(cls, handle: IncidenceHandle) -> "IncidenceIndex":
        """Rebuild an index from a shared segment as read-only numpy views.

        The worker-side counterpart of :meth:`share`: zero-copy for every
        array the solvers touch (CSR/CSC, entry rows, coverage counts); only
        the ``link -> column`` dict is rebuilt locally.  The attached index
        gets fresh :class:`~repro.core.costmodel.KernelCounters` (workers
        report counter *deltas* back to the parent) and must be treated as
        immutable -- masking would need write access the views deny.
        """
        shm = _attach_segment(handle.name)
        views = _segment_views(shm, handle)
        self = cls.__new__(cls)
        self.counters = KernelCounters()
        self._link_ids = tuple(int(l) for l in views["link_ids"])
        self._pos = {link: col for col, link in enumerate(self._link_ids)}
        self._num_paths = handle.num_paths
        self._row_indptr = views["row_indptr"]
        self._row_cols = views["row_cols"]
        self._col_indptr = views["col_indptr"]
        self._col_rows = views["col_rows"]
        self._entry_rows = views["entry_rows"]
        self._row_set_cache = {}
        self._col_tuple_cache = {}
        self._masked_cols = set()
        self._row_blockers = None
        self._share = None
        self._attached_shm = shm
        self._coverage_cache = views["coverage_counts"]
        self._active_counts_cache = None
        return self

    @property
    def attached(self) -> bool:
        """True when this index is a worker-side view over a shared segment."""
        return self._attached_shm is not None

    def detach(self) -> None:
        """Drop the shared views and unmap the segment (attached indexes only).

        The numpy views exported from the buffer must be released before the
        mapping can close, so every array attribute is dropped first -- the
        index is unusable afterwards.  Never unlinks: the exporting process
        owns the segment.
        """
        if self._attached_shm is None:
            return
        shm, self._attached_shm = self._attached_shm, None
        self._row_indptr = None
        self._row_cols = None
        self._col_indptr = None
        self._col_rows = None
        self._entry_rows = None
        self._coverage_cache = None
        self._active_counts_cache = None
        shm.close()
        _SHM_STATS["detaches"] += 1

    # ----------------------------------------------------------- components
    def components(
        self, rows: Optional[Sequence[int]] = None
    ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Connected components of the path/link bipartite graph.

        Returns ``(link_ids, rows)`` pairs: the component's links sorted by
        id and the member paths in row order.  Columns crossed by none of the
        considered rows form singleton components with no paths (that is how
        uncoverable links surface in PMC), and rows with no in-universe links
        are dropped -- both exactly as the seed set-based decomposition did.
        When ``rows`` is given, only those paths are considered (PLL
        decomposes over the observed rows only).
        """
        self.counters.tick(
            "components", len(rows) if rows is not None else self._num_paths
        )
        # Both arms cost O(entries + links) -- every link becomes an output
        # tuple -- and scipy.csgraph's fixed per-call setup (~0.25 ms) only
        # loses below ~512 of them (Fattree(8) and smaller).  Both return
        # identical output, so the gate never changes results.
        if rows is None:
            entries = self.nnz
        else:
            rows_arr = _np.asarray(rows, dtype=_np.int64)
            entries = int((self._row_indptr[rows_arr + 1] - self._row_indptr[rows_arr]).sum())
        if entries + self.num_links >= 512:
            return self._components_vectorized(rows)
        return self._components_union_find(rows)

    def _components_union_find(
        self, rows: Optional[Sequence[int]] = None
    ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Small-input path of :meth:`components`: a plain-Python union-find."""
        n = self.num_links
        parent = list(range(n))
        size = [1] * n

        def find(col: int) -> int:
            root = col
            while parent[root] != root:
                root = parent[root]
            while parent[col] != root:
                parent[col], col = root, parent[col]
            return root

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra == rb:
                return
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]

        considered = range(self._num_paths) if rows is None else rows
        row_anchor: List[Tuple[int, int]] = []  # (row, first col) for assignment
        for row in considered:
            cols = self.row_cols(row)
            if len(cols) == 0:
                continue
            first = int(cols[0])
            for c in cols[1:]:
                union(first, int(c))
            row_anchor.append((int(row), first))

        groups: Dict[int, List[int]] = {}
        for col in range(n):
            groups.setdefault(find(col), []).append(col)
        member_rows: Dict[int, List[int]] = {root: [] for root in groups}
        for row, anchor in row_anchor:
            member_rows[find(anchor)].append(row)

        ids = self._link_ids
        components = [
            (
                tuple(sorted(ids[c] for c in cols)),
                tuple(member_rows[root]),
            )
            for root, cols in groups.items()
        ]
        components.sort(key=lambda item: item[0][0] if item[0] else -1)
        return components

    def _components_vectorized(
        self, rows: Optional[Sequence[int]] = None
    ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Large-input path of :meth:`components`: star edges + ``scipy.csgraph``.

        Every path contributes a star of edges from its first link to the
        rest; connected components of that link graph equal the bipartite
        components.  Output is identical to the union-find path.
        """
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        n = self.num_links
        if rows is None:
            considered = _np.arange(self._num_paths, dtype=_np.int64)
            starts = self._row_indptr[:-1]
            lengths = _np.diff(self._row_indptr)
            flat_cols = self._row_cols
        else:
            considered = _np.asarray(rows, dtype=_np.int64)
            lengths = self._row_indptr[considered + 1] - self._row_indptr[considered]
            _, flat_cols = _gather_segments(self._row_indptr, self._row_cols, considered)

        # Anchor col of every non-empty row = its first entry; empty rows have
        # no entries, so the per-entry arrays below stay aligned without any
        # filtering.
        nonempty = lengths > 0
        if rows is None:
            anchors = self._row_cols[starts[nonempty]]
        else:
            seg_starts = _np.concatenate(([0], _np.cumsum(lengths)[:-1]))
            anchors = flat_cols[seg_starts[nonempty]]
        entry_cols = flat_cols
        entry_anchors = _np.repeat(anchors, lengths[nonempty])

        graph = coo_matrix(
            (_np.ones(len(entry_cols), dtype=_np.int8), (entry_anchors, entry_cols)),
            shape=(n, n),
        )
        _, labels = connected_components(graph, directed=False)

        ids = _np.fromiter(self._link_ids, dtype=_np.int64, count=n)
        num_labels = int(labels.max()) + 1 if n else 0
        min_id = _np.full(num_labels, _np.iinfo(_np.int64).max, dtype=_np.int64)
        _np.minimum.at(min_id, labels, ids)
        order = _np.argsort(min_id, kind="stable")
        rank = _np.empty(num_labels, dtype=_np.int64)
        rank[order] = _np.arange(num_labels)

        col_rank = rank[labels]
        col_order = _np.lexsort((ids, col_rank))
        sorted_ids = ids[col_order]
        sorted_rank = col_rank[col_order]
        link_bounds = _np.flatnonzero(
            _np.concatenate(([True], sorted_rank[1:] != sorted_rank[:-1], [True]))
        )

        comp_links: List[Tuple[int, ...]] = [
            tuple(sorted_ids[link_bounds[i] : link_bounds[i + 1]].tolist())
            for i in range(num_labels)
        ]
        comp_rows: List[Tuple[int, ...]] = [() for _ in range(num_labels)]
        if int(nonempty.sum()):
            row_ids = considered[nonempty]
            row_rank = rank[labels[anchors]]
            row_order = _np.argsort(row_rank, kind="stable")
            sorted_rows = row_ids[row_order]
            sorted_row_rank = row_rank[row_order]
            row_bounds = _np.flatnonzero(
                _np.concatenate(
                    ([True], sorted_row_rank[1:] != sorted_row_rank[:-1], [True])
                )
            )
            for i in range(len(row_bounds) - 1):
                comp_rows[int(sorted_row_rank[row_bounds[i]])] = tuple(
                    sorted_rows[row_bounds[i] : row_bounds[i + 1]].tolist()
                )
        return list(zip(comp_links, comp_rows))

    def pod_shards(
        self, col_pods: Sequence[int], rows: Optional[Sequence[int]] = None
    ) -> List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
        """Group rows by the one pod that owns all their columns.

        ``col_pods[c]`` is the pod owning column ``c``, or ``-1`` for a column
        no single pod owns.  A considered row whose columns all carry the same
        non-negative pod belongs to that pod's group; every other row belongs
        to group ``-1``, and rows without columns are dropped.  Returns
        ``(pod, link_ids, rows)`` triples, pods ascending and group ``-1``
        last: a group's links are the columns its rows cross (sorted by id),
        its rows keep the order of *rows*, and columns no considered row
        crosses join group ``-1`` (which then exists even without rows).

        This is the array form of the set-based row loop
        :func:`repro.core.decomposition._pod_shards` -- per-row min/max of the
        pod label by segmented reduction, rows grouped by one stable sort --
        and returns the same groups.  The caller ticks the ``pod_shards``
        counter.
        """
        pods = _np.asarray(col_pods, dtype=_np.int64)
        lengths = _np.diff(self._row_indptr)
        crossing = _np.flatnonzero(lengths)  # rows with at least one column
        # -2 marks the rows that are dropped: no columns, or not considered.
        group_of_row = _np.full(self._num_paths, -2, dtype=_np.int64)
        if crossing.size:
            entry_pods = pods[self._row_cols]
            starts = self._row_indptr[crossing]
            low = _np.minimum.reduceat(entry_pods, starts)
            high = _np.maximum.reduceat(entry_pods, starts)
            group_of_row[crossing] = _np.where(low == high, low, -1)
        if rows is None:
            considered = crossing
        else:
            considered = _np.asarray(rows, dtype=_np.int64)
            considered = considered[group_of_row[considered] != -2]
            chosen = _np.zeros(self._num_paths, dtype=bool)
            chosen[considered] = True
            group_of_row[~chosen] = -2
        groups = group_of_row[considered]
        order = _np.argsort(groups, kind="stable")
        sorted_rows, sorted_groups = considered[order], groups[order]

        # A pod group's rows only cross that pod's columns, so its link set is
        # "columns of the pod that some pod-group row crosses"; group -1 takes
        # what its own rows cross plus every column nobody crosses.
        entry_groups = _np.repeat(group_of_row, lengths)
        in_pod_group = _np.zeros(self.num_links, dtype=bool)
        in_pod_group[self._row_cols[entry_groups >= 0]] = True
        in_residual = _np.zeros(self.num_links, dtype=bool)
        in_residual[self._row_cols[entry_groups == -1]] = True
        in_residual |= ~(in_pod_group | in_residual)

        ids = _np.fromiter(self._link_ids, dtype=_np.int64, count=self.num_links)
        present = [pod for pod in _np.unique(sorted_groups).tolist() if pod >= 0]
        if in_residual.any():  # it has rows, or orphaned columns, or both
            present.append(-1)
        shards = []
        for pod in present:
            members = in_residual if pod == -1 else in_pod_group & (pods == pod)
            lo, hi = _np.searchsorted(sorted_groups, [pod, pod + 1])
            shards.append(
                (
                    pod,
                    tuple(_np.sort(ids[members]).tolist()),
                    tuple(sorted_rows[lo:hi].tolist()),
                )
            )
        return shards

    def distinct_column_signatures(
        self, link_ids: Sequence[int], rows: Sequence[int]
    ) -> int:
        """How many distinct row sets the given links have within *rows*.

        A link's *signature* is the set of the given rows that cross it; links
        nobody crosses share the empty one.  Refining a partition of the links
        by any subset of the rows can never separate two links with the same
        signature, so this count is the number of cells of the finest
        partition those rows can reach -- the PMC greedy's closed-form
        termination target (see :func:`repro.core.pmc._solve_subproblem`).

        The kernel reads the CSC columns filtered by a row mask in one array
        pass and tells columns apart by ``(count, first row, last row)``;
        only columns that agree on all three are compared entry by entry.
        """
        self.counters.tick("column_signatures", len(link_ids))
        pos = self._pos
        in_rows = _np.zeros(self._num_paths, dtype=bool)
        in_rows[_np.asarray(rows, dtype=_np.int64)] = True
        cols = _np.fromiter(
            (pos[link] for link in link_ids), dtype=_np.int64, count=len(link_ids)
        )
        segments, col_rows = _gather_segments(self._col_indptr, self._col_rows, cols)
        keep = in_rows[col_rows]
        col_rows = col_rows[keep]
        counts = _np.bincount(segments[keep], minlength=len(cols))
        ends = _np.cumsum(counts)
        crossed = _np.flatnonzero(counts)
        begins = (ends - counts)[crossed]
        ends = ends[crossed]
        lookalikes: Dict[Tuple[int, int, int], List[int]] = {}
        for i, key in enumerate(
            zip(
                counts[crossed].tolist(),
                col_rows[begins].tolist(),
                col_rows[ends - 1].tolist(),
            )
        ):
            lookalikes.setdefault(key, []).append(i)
        distinct = 1 if len(crossed) < len(cols) else 0
        for members in lookalikes.values():
            if len(members) == 1:
                distinct += 1
            else:
                distinct += len(
                    {col_rows[begins[i] : ends[i]].tobytes() for i in members}
                )
        return distinct

    def projection(self, link_ids: Sequence[int]) -> "RowProjection":
        """A row projector onto the dense local id space of a link subset.

        ``link_ids`` must be sorted; local id ``i`` stands for the ``i``-th
        smallest link, matching the physical-id numbering of
        :class:`~repro.core.virtual_links.ExtendedLinkSpace`.

        Ticks the ``projection`` kernel counter with the subset size: one
        projection is built per solved PMC subproblem, so this is the
        per-shard signal the pod-sharded control plane's kernel gates read
        (a replayed shard builds no projection and shows a zero delta).
        """
        self.counters.tick("projection", len(link_ids))
        return RowProjection(self, link_ids)

    # -------------------------------------------------------------- exports
    def to_scipy_csr(self):
        """Export as ``scipy.sparse.csr_matrix`` (float, shape paths x links)."""
        from scipy import sparse

        data = _np.ones(self.nnz, dtype=float)
        return sparse.csr_matrix(
            (data, self._row_cols, self._row_indptr),
            shape=(self.num_paths, self.num_links),
            dtype=float,
        )


class RowProjection:
    """Maps CSR rows of an index onto the local id space of a link subset.

    PMC solves each decomposition subproblem over a dense local universe
    ``0..n-1`` (the subproblem's links in sorted-id order); this helper turns
    a path row into the array of local positions of its links, dropping links
    outside the subset.  Projected rows are cached: the lazy greedy revisits
    the same candidates many times.
    """

    def __init__(self, index: IncidenceIndex, link_ids: Sequence[int]):
        self._index = index
        self.num_locals = len(link_ids)
        self._cache: Dict[int, object] = {}
        gmap = _np.full(index.num_links, -1, dtype=_np.int64)
        cols = _np.fromiter(
            (index.position(l) for l in link_ids), dtype=_np.int64, count=len(link_ids)
        )
        gmap[cols] = _np.arange(len(link_ids), dtype=_np.int64)
        self._gmap = gmap

    def row(self, row: int):
        """Local positions of the links on a path (subset-restricted)."""
        cached = self._cache.get(row)
        if cached is None:
            mapped = self._gmap[self._index.row_cols(row)]
            cached = mapped[mapped >= 0]
            self._cache[row] = cached
        return cached

    def row_length(self, row: int) -> int:
        return len(self.row(row))

    def batch(self, rows: Sequence[int]):
        """Concatenated projection of many rows: ``(segment_ids, flat_locals)``.

        The one-kernel gather behind batched greedy rescoring.
        ``segment_ids[k]`` tells which of the input rows entry ``k`` belongs
        to; links outside the subset are dropped.
        """
        rows = _np.asarray(rows, dtype=_np.int64)
        segments, cols = _gather_segments(
            self._index._row_indptr, self._index._row_cols, rows
        )
        locals_ = self._gmap[cols]
        keep = locals_ >= 0
        if not keep.all():
            locals_, segments = locals_[keep], segments[keep]
        return segments, locals_


# ---------------------------------------------------------------------------
# refinable partition over a dense id space
# ---------------------------------------------------------------------------

class RefinablePartition:
    """Array-backed refinement partition over dense ids ``0..n-1`` (§4.2).

    The vectorized sibling of the set-based seed class the tests keep as its
    oracle (``tests/link_set_oracle.py``): the greedy's three partition
    queries (``cells_touched_segmented``, ``splits_gained``, ``split``) on
    flat label arrays instead of dict-of-set cells.  Which side of a split
    keeps the old cell id differs from the seed class, but the *partition*
    (which ids share a cell) evolves identically, and all three queries only
    depend on the partition -- so scores and stop conditions are unchanged.
    """

    def __init__(self, num_ids: int):
        self._num_ids = num_ids
        self._cell_of = _np.zeros(num_ids, dtype=_np.int64)
        # Cell sizes, indexed by cell id; ids are allocated monotonically and
        # at most ``num_ids`` cells ever exist, so the capacity is bounded.
        self._cell_size = _np.zeros(2 * num_ids + 1, dtype=_np.int64)
        if num_ids:
            self._cell_size[0] = num_ids
        # Scratch for split: old cell -> its new cell while one split runs,
        # 0 otherwise (new cells are numbered from 1).
        self._new_cell = _np.zeros_like(self._cell_size)
        self._num_cells = 1 if num_ids else 0
        self._next_cell_id = 1
        # Work counters (the partition evolves like the set-based oracle's,
        # and so do the greedy's queries against it).
        self.splits_performed = 0
        self.cells_created = 0
        self.gain_queries = 0

    @property
    def num_ids(self) -> int:
        return self._num_ids

    @property
    def num_cells(self) -> int:
        return self._num_cells

    @property
    def fully_refined(self) -> bool:
        return self._num_cells == self._num_ids

    def cell_of(self, member: int) -> int:
        return int(self._cell_of[member])

    def cells_touched_segmented(self, segments, members, num_segments: int):
        """Distinct cells holding a member ("link sets on path"), per segment.

        ``segments``/``members`` are parallel flat arrays (the output of
        :meth:`RowProjection.batch`, or its extended gather); a member listed
        twice in one segment counts once.
        """
        if len(members) == 0:
            return _np.zeros(num_segments, dtype=_np.int64)
        # Cell ids stay below num_ids + 1, so (segment, cell) pairs pack into
        # one sortable integer key; distinct keys per segment = cells touched.
        stride = self._num_ids + 1
        keys = segments * stride + self._cell_of[members]
        keys.sort()
        first = _np.empty(keys.size, dtype=bool)
        first[0] = True
        _np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return _np.bincount(keys[first] // stride, minlength=num_segments)

    def splits_gained(self, members) -> int:
        """How many new cells :meth:`split` would create for this (unique) member set."""
        self.gain_queries += 1
        cells, inside = _np.unique(self._cell_of[members], return_counts=True)
        return int(_np.count_nonzero(inside < self._cell_size[cells]))

    def split(self, members) -> int:
        """Refine by the (unique) member set; return the number of new cells created.

        Every cell the members hit without covering hands them to a new
        cell; new ids are allocated in ascending old-cell order.
        """
        self.splits_performed += 1
        members = _np.asarray(members, dtype=_np.int64)
        member_cells = self._cell_of[members]
        cells, inside = _np.unique(member_cells, return_counts=True)
        partial = inside < self._cell_size[cells]
        created = int(_np.count_nonzero(partial))
        if created:
            cells, inside = cells[partial], inside[partial]
            new_cells = _np.arange(self._next_cell_id, self._next_cell_id + created)
            self._new_cell[cells] = new_cells
            relabel = self._new_cell[member_cells]
            moved = relabel > 0
            self._cell_of[members[moved]] = relabel[moved]
            self._new_cell[cells] = 0
            self._cell_size[new_cells] = inside
            self._cell_size[cells] -= inside
            self._next_cell_id += created
            self._num_cells += created
        self.cells_created += created
        return created

    def signature(self) -> Dict[int, int]:
        """Canonical member -> cell labelling (for equality checks in tests)."""
        canonical: Dict[int, int] = {}
        labels: Dict[int, int] = {}
        for member in range(self._num_ids):
            cell = int(self._cell_of[member])
            if cell not in labels:
                labels[cell] = len(labels)
            canonical[member] = labels[cell]
        return canonical
