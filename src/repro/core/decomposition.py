"""Problem decomposition into independent subproblems (§4.3, Observation 1).

Build the bipartite graph with paths on one side and links on the other (a
path node is adjacent to the link nodes it traverses).  Connected components
of this graph are independent probe-matrix / localization subproblems: no path
of one component crosses a link of another, so the greedy (or PLL) can run on
each component separately -- and in the paper's case, in parallel.

The component computation is a single union-find pass over the CSR rows of
the shared :class:`~repro.core.incidence.IncidenceIndex`, i.e. linear in the
size of the routing matrix, matching the "linear time by traversing the
bipartite graph once" remark.  That pass runs once per index: the *pristine*
components over all rows are kept beside the index, so a cold plan pays for
them once and every churn cycle only *refines* them.  A link mask can only
split the component that owns a masked link, so a masked decomposition
carries every other component forward as the same :class:`Subproblem` and
re-runs the pass over the touched components' active rows alone -- with the
output of a pass over all active rows, element for element.  The set-based
entry point
:func:`decompose_by_link_sets` survives for external callers that hold raw
link sets rather than an index (PLL now decomposes through
``incidence.components(rows=...)`` directly); it simply builds a transient
index.

**Pod sharding.**  Data-center candidate sets are usually one connected
component (every inter-pod path couples the pods through the core), so exact
decomposition yields no parallelism at scale.  The pod-sharded control plane
instead shards *by pod*: a path whose links all live inside one pod goes to
that pod's shard, and every path that spans pods -- or crosses links without
a single owning pod, such as aggregation-core links -- goes to a dedicated
**residual shard** (:data:`RESIDUAL_POD`), never silently to pod 0.  Links
are grouped with the paths that can probe them (a shard's universe is the
union of its paths' links), and universe links no shard's paths touch are
orphaned into the residual shard so they surface as uncoverable exactly like
path-less singleton components do in the exact decomposition.  Shards are
emitted in canonical order -- pods ascending, residual last -- which is what
makes the parallel merge deterministic.

Sharding runs in front of every sharded plan and cycle, over every candidate
row.  On the numpy backend :func:`pod_shards_for_matrix` therefore hands the
rule to an index kernel,
:meth:`~repro.core.incidence.IncidenceIndex.pod_shards` (one array pass over
the CSR buffers); the set-based row loop, :func:`_pod_shards`, is the python
backend's implementation of the same kernel, :func:`decompose_by_link_sets`'s
path, and the reference the array kernel is tested against.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..contracts import informational_wall, pool_payload, trace_record
from .incidence import Backend, IncidenceIndex

if TYPE_CHECKING:  # imported lazily at runtime to avoid a routing<->core cycle
    from ..routing import RoutingMatrix
    from ..topology import Topology

__all__ = [
    "RESIDUAL_POD",
    "Subproblem",
    "decompose_routing_matrix",
    "decompose_by_link_sets",
    "link_pod_map",
    "pod_shards_for_matrix",
]

#: ``Subproblem.pod`` value of the residual shard: the shard holding every
#: cross-pod path, every link without a single owning pod and every orphaned
#: (path-less) universe link.  Distinct from ``None``, which marks plain
#: connected-component subproblems that were never pod-sharded at all.
RESIDUAL_POD: int = -1


@pool_payload
@dataclass(frozen=True, slots=True, weakref_slot=True)
class Subproblem:
    """An independent slice of the probe-path selection problem.

    Slotted, frozen and built from plain tuples so instances hash, compare
    by value and cross a process boundary by pickling -- pod-sharded solves
    ship one ``Subproblem`` per pool task.  Weak-referenceable, so a memo
    keyed by a subproblem dies with it.

    Attributes
    ----------
    link_ids:
        The physical links of this shard/component (sorted).
    path_indices:
        Indices (into the parent routing matrix) of the candidate paths
        assigned to this shard/component.
    pod:
        ``None`` for exact connected-component subproblems; the owning pod
        number for pod shards; :data:`RESIDUAL_POD` for the residual shard.
    """

    link_ids: Tuple[int, ...]
    path_indices: Tuple[int, ...]
    pod: Optional[int] = None

    @property
    def num_links(self) -> int:
        return len(self.link_ids)

    @property
    def num_paths(self) -> int:
        return len(self.path_indices)


def _subproblems_from_components(
    components: List[Tuple[Tuple[int, ...], Tuple[int, ...]]]
) -> List[Subproblem]:
    return [
        Subproblem(link_ids=links, path_indices=rows) for links, rows in components
    ]


def link_pod_map(
    topology: "Topology", link_ids: Optional[Iterable[int]] = None
) -> Dict[int, Optional[int]]:
    """Owning pod of every link: ``p`` iff both endpoints live in pod ``p``.

    Links whose endpoints disagree on the pod, or touch a pod-less device
    (core switches, VL2 intermediates, BCube levels), map to ``None`` and are
    handled by the residual shard.
    """
    if link_ids is None:
        link_ids = [link.link_id for link in topology.switch_links]
    mapping: Dict[int, Optional[int]] = {}
    for link_id in link_ids:
        link = topology.link(link_id)
        pod_a = topology.node(link.a).pod
        pod_b = topology.node(link.b).pod
        mapping[link_id] = pod_a if (pod_a is not None and pod_a == pod_b) else None
    return mapping


def _pod_shards(
    row_items: Iterable[Tuple[int, Iterable[int]]],
    link_universe: Sequence[int],
    link_pods: Dict[int, Optional[int]],
) -> List[Subproblem]:
    """Shard ``(row, links)`` items by owning pod, cross-pod rows to residual.

    Shards always come back pods ascending with the residual shard last.
    The canonical order is load-bearing -- the parallel merge concatenates
    shard selections in it.
    """
    universe = sorted(set(link_universe))
    universe_set = set(universe)
    shard_rows: Dict[int, List[int]] = {}
    shard_links: Dict[int, Set[int]] = {}
    for row, links in row_items:
        in_universe = [link for link in links if link in universe_set]
        if not in_universe:
            # Rows with no in-universe links are dropped, matching
            # IncidenceIndex.components() and the seed decomposition.
            continue
        pods = {link_pods.get(link) for link in in_universe}
        if len(pods) == 1 and None not in pods:
            shard = pods.pop()
        else:
            shard = RESIDUAL_POD
        shard_rows.setdefault(shard, []).append(int(row))
        shard_links.setdefault(shard, set()).update(in_universe)

    touched: Set[int] = set()
    for links in shard_links.values():
        touched.update(links)
    orphans = [link for link in universe if link not in touched]
    if orphans:
        # Universe links no shard's paths can probe: orphaned into the
        # residual shard so they are reported uncoverable there, exactly as
        # path-less singleton components surface in the exact decomposition.
        shard_rows.setdefault(RESIDUAL_POD, [])
        shard_links.setdefault(RESIDUAL_POD, set()).update(orphans)

    pods_present = sorted(pod for pod in shard_rows if pod != RESIDUAL_POD)
    order = pods_present + ([RESIDUAL_POD] if RESIDUAL_POD in shard_rows else [])
    return [
        Subproblem(
            link_ids=tuple(sorted(shard_links[pod])),
            path_indices=tuple(shard_rows[pod]),
            pod=pod,
        )
        for pod in order
    ]


def decompose_by_link_sets(
    path_link_sets: Sequence[frozenset],
    link_universe: Sequence[int],
    link_pods: Optional[Dict[int, Optional[int]]] = None,
) -> List[Subproblem]:
    """Decompose from raw path->link-set data (no RoutingMatrix required).

    Without ``link_pods`` this is the exact connected-component decomposition.
    With ``link_pods`` (link id -> owning pod or ``None``) the paths are
    pod-sharded instead: single-pod paths go to their pod's shard and every
    path spanning pods lands in the residual shard (``pod == RESIDUAL_POD``),
    never in pod 0.
    """
    if link_pods is not None:
        return _pod_shards(enumerate(path_link_sets), link_universe, link_pods)
    index = IncidenceIndex(path_link_sets, tuple(link_universe))
    return _subproblems_from_components(index.components())


def pod_shards_for_matrix(
    routing_matrix: "RoutingMatrix",
    rows: Optional[Sequence[int]] = None,
) -> List[Subproblem]:
    """Pod-shard a routing matrix's candidate rows (all rows, or a subset).

    ``rows`` restricts the sharding to the given path indices -- the masked
    (incremental) flow passes the active rows, so links whose candidates all
    got masked orphan into the residual shard exactly like fully-failed links
    do in a cold rebuild.  The link universe is always the full index
    universe, keeping uncoverable-link reporting identical between cold and
    masked sharded runs.

    Both backends return the identical ``Subproblem`` list and tick the
    ``pod_shards`` kernel counter once per considered row.
    """
    index = routing_matrix.incidence
    link_pods = link_pod_map(routing_matrix.topology, index.link_ids)
    considered = range(index.num_paths) if rows is None else rows
    index.counters.tick("pod_shards", len(considered))
    if index.backend is Backend.NUMPY:
        # The same sharding as one array pass over the CSR buffers.
        col_pods = [
            RESIDUAL_POD if pod is None else pod
            for pod in map(link_pods.get, index.link_ids)
        ]
        return [
            Subproblem(link_ids=links, path_indices=members, pod=pod)
            for pod, links, members in index.pod_shards(col_pods, rows)
        ]
    row_items = ((row, index.row_link_set(row)) for row in considered)
    return _pod_shards(row_items, index.link_ids, link_pods)


class _Pristine:
    """An index's components over all its rows, and which one owns each link."""

    __slots__ = ("subproblems", "owner")

    def __init__(self, subproblems: List[Subproblem]):
        self.subproblems = tuple(subproblems)
        self.owner: Dict[int, int] = {
            link: position
            for position, sub in enumerate(self.subproblems)
            for link in sub.link_ids
        }


#: The pristine decomposition of every live index, computed on first use.  It
#: lives beside the index, not on it, so it never rides the pickle dispatch or
#: the shm export (workers never decompose), and it dies with the index.
_PRISTINE: "weakref.WeakKeyDictionary[IncidenceIndex, _Pristine]" = weakref.WeakKeyDictionary()


def _pristine(index: IncidenceIndex) -> _Pristine:
    pristine = _PRISTINE.get(index)
    if pristine is None:
        pristine = _Pristine(_subproblems_from_components(index.components()))
        _PRISTINE[index] = pristine
    return pristine


def _masked_components(index: IncidenceIndex) -> Tuple[List[Subproblem], int]:
    """The components of the active rows, and how many pristine ones were re-split.

    A row is inactive iff it crosses a masked link, and every link lies in
    one pristine component: so a component owning no masked link keeps all
    its rows and is carried as it is (the same ``Subproblem``), and one that
    owns a masked link splits only into components of its own active rows.
    Sorting by the smallest link id, the key :meth:`IncidenceIndex.components`
    sorts by, gives ``components(rows=active_rows())`` element for element.
    """
    pristine = _pristine(index)
    touched = {pristine.owner[link] for link in index.masked_link_ids}
    if not touched:
        return list(pristine.subproblems), 0
    subproblems = pristine.subproblems
    rows = index.active_among(
        [row for position in sorted(touched) for row in subproblems[position].path_indices]
    )
    # Links of the carried components are path-less here; their output is dropped.
    refined = [
        Subproblem(link_ids=links, path_indices=members)
        for links, members in index.components(rows=rows)
        if pristine.owner[links[0]] in touched
    ]
    carried = [sub for position, sub in enumerate(subproblems) if position not in touched]
    return sorted(carried + refined, key=lambda sub: sub.link_ids[0]), len(touched)


@informational_wall("the decomposition span's wall_seconds is informational; its labels are the record")
def decompose_routing_matrix(
    routing_matrix: "RoutingMatrix",
    by_pods: bool = False,
    rows: Optional[Sequence[int]] = None,
    masked: bool = False,
) -> List[Subproblem]:
    """Subproblems of a routing matrix's candidate rows (all rows, or a subset).

    The default is the exact decomposition: connected components of the
    path/link bipartite graph.  ``by_pods=True`` switches to the pod-sharded
    approximate decomposition (see :func:`pod_shards_for_matrix`), the basis
    of the parallel control plane.  ``rows`` restricts either flavour to the
    given path indices, and ``masked=True`` (which takes precedence) to the
    index's active rows, the incremental flow; columns no considered row
    crosses surface as path-less subproblems.

    The exact decomposition of all rows -- the *pristine* one -- is computed
    once per index and reused; a masked call re-splits only the pristine
    components that own a masked link (:func:`_masked_components`).  The
    ``components`` kernel counter ticks by the rows a call actually
    considered, which is also the ``rows`` label of its ``decomposition``
    span.
    """
    index = routing_matrix.incidence
    if by_pods:
        return pod_shards_for_matrix(routing_matrix, rows=index.active_rows() if masked else rows)
    started = time.perf_counter()
    considered = index.counters.elements("components")
    refined = 0
    if masked:
        subproblems, refined = _masked_components(index)
    elif rows is not None:
        subproblems = _subproblems_from_components(index.components(rows=rows))
    else:
        subproblems = list(_pristine(index).subproblems)
    trace_record(
        "decomposition",
        wall_seconds=time.perf_counter() - started,
        # Informational: a pooled experiment decomposes inside workers, which
        # never trace, so whether this span exists depends on ``jobs``.
        informational=True,
        subproblems=len(subproblems),
        refined=refined,
        rows=index.counters.elements("components") - considered,
    )
    return subproblems
