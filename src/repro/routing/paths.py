"""Probe-path model and per-topology path enumeration.

A *path* is the unit of probing in deTector: a walk between two ToR switches
(or BCube servers) whose exact hops are pinned by source routing (IP-in-IP in
the paper, explicit path objects here).  The link universe of the probe matrix
is the set of inter-switch links; the path keeps

* the full node walk (needed for pinger placement and the latency model),
  and
* the *set* of switch-link ids it traverses (needed by PMC and PLL -- both
  reason about paths purely as link sets).

The candidate path sets implemented here reproduce the "# of original paths"
column of Table 2:

* Fattree(k): every ordered ToR pair has one candidate path per core switch
  (``k**2/4`` of them) -- ``T*(T-1)*k**2/4`` paths for ``T = k**2/2`` ToRs.
* VL2(d_a, d_i, t): every ordered ToR pair has ``2 * d_a/2 * 2`` candidate
  paths (source aggregation switch x intermediate switch x destination
  aggregation switch).
* BCube(n, k): every ordered server pair has ``k+1`` parallel paths built with
  the digit-correcting ``BuildPathSet`` construction of the BCube paper.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..contracts import trace_record
from ..topology import (
    BCubeTopology,
    FatTreeTopology,
    Topology,
    TopologyError,
    VL2Topology,
)
from .path_table import Path, PathTable, _np

__all__ = [
    "Path",
    "PathTable",
    "walk_to_link_ids",
    "walk_link_sequence",
    "enumerate_fattree_paths",
    "enumerate_vl2_paths",
    "enumerate_bcube_paths",
    "enumerate_candidate_paths",
    "enumerate_shortest_paths",
]

#: A walker yields ``(node walk, via label)`` per candidate, in row order.
Walks = Iterator[Tuple[Tuple[str, ...], str]]


def walk_to_link_ids(topology: Topology, nodes: Sequence[str]) -> frozenset:
    """Translate a node walk into the set of link ids it traverses."""
    return frozenset(set(walk_link_sequence(topology, nodes)))


def walk_link_sequence(topology: Topology, nodes: Sequence[str]) -> List[int]:
    """The ordered list of link ids along a node walk (hops in order).

    Unlike :func:`walk_to_link_ids` duplicates are preserved; traceroute-style
    tools (fbtracert) need the hop order to attribute loss onset to a link.
    """
    return [
        topology.link_between(a, b).link_id for a, b in zip(nodes, nodes[1:])
    ]


def _pairs(count: int, ordered: bool) -> Iterator[Tuple[int, int]]:
    """Endpoint index pairs in row order: ``i``-major, ``i < j`` when unordered."""
    for i in range(count):
        for j in range(count):
            if i != j and (ordered or i < j):
                yield i, j


def _pair_arrays(count: int, ordered: bool):
    """:func:`_pairs` as two index arrays (pairs are few; their rows are many)."""
    return _np.array(list(_pairs(count, ordered)), dtype=_np.int64).reshape(-1, 2).T


def _produce(topology: Topology, closed_form, *args) -> PathTable:
    """Fill a table with a closed-form producer and trace its size.

    The node walkers in ``tests/walker_oracle.py`` are the reference every
    closed form is tested against: the same rows in the same order.
    """
    table = closed_form(topology, *args)
    hops = len(table.link_rows()[1])
    # Informational: pooled experiment harnesses enumerate inside workers,
    # which never trace, so whether this span exists depends on ``jobs``.
    trace_record("routing.enumerate", informational=True, rows=len(table), hops=hops)
    return table


def _codes(topology: Topology):
    """``(node names, name -> code, (a, b) -> link id)`` of a topology."""
    names = tuple(topology.nodes)
    code = {name: index for index, name in enumerate(names)}
    return names, code, lambda a, b: topology.link_between(a, b).link_id


# --------------------------------------------------------------------------
# Fattree
# --------------------------------------------------------------------------

def enumerate_fattree_paths(
    topology: FatTreeTopology,
    ordered: bool = True,
    include_intrapod_agg: bool = False,
) -> PathTable:
    """Candidate probe paths between every pair of ToR (edge) switches.

    Rows are pair-major; within a pair one row per core switch (core group
    major), then -- for a same-pod pair, when asked -- one per aggregation
    switch of the pod.

    Parameters
    ----------
    ordered:
        When ``True`` (paper counting) both ``(A, B)`` and ``(B, A)`` appear;
        their link sets are identical, so PMC typically runs with
        ``ordered=False`` and the counting experiments with ``ordered=True``.
    include_intrapod_agg:
        Also include the two-hop ``edge -> agg -> edge`` paths between ToRs of
        the same pod.  The paper's path counting routes every pair through a
        core switch, but the short paths are how production ECMP would route
        intra-pod traffic, so they are available as an option.
    """
    return _produce(topology, _fattree_table, ordered, include_intrapod_agg)


def _fattree_table(topology: FatTreeTopology, ordered: bool, include_intrapod_agg: bool) -> PathTable:
    names, code, link = _codes(topology)
    tors = topology.tor_switches
    groups = topology.core_groups
    pod_aggs = [topology.aggregation_switches_in_pod(pod) for pod in range(topology.k)]
    # Per-tier lookup tables: node codes, and the link under each hop.
    tor = _np.array([code[node.name] for node in tors])
    pod = _np.array([node.pod for node in tors])
    agg = _np.array([[code[name] for name in row] for row in pod_aggs])  # [pod, group]
    core = _np.array([code[name] for row in groups for name in row])
    group = _np.repeat(_np.arange(len(groups)), [len(row) for row in groups])  # core -> group
    uplink = _np.array([[link(node.name, a) for a in pod_aggs[node.pod]] for node in tors])  # [tor, group]
    spine = _np.array(
        [[link(row[g], c) for g, cores in enumerate(groups) for c in cores] for row in pod_aggs]
    )  # [pod, core]

    i, j = (index[:, None] for index in _pair_arrays(len(tors), ordered))
    pod_i, pod_j = pod[i], pod[j]
    cores, extra = len(core), agg.shape[1] if include_intrapod_agg else 0
    nodes = _np.full((len(i), cores + extra, 5), -1, dtype=_np.int32)
    links = _np.full((len(i), cores + extra, 4), -1, dtype=_np.int32)
    via = _np.empty((len(i), cores + extra), dtype=_np.int32)
    for hop, column in enumerate((tor[i], agg[pod_i, group], core, agg[pod_j, group], tor[j])):
        nodes[:, :cores, hop] = column
    every_core = _np.arange(cores)
    for hop, column in enumerate(
        (uplink[i, group], spine[pod_i, every_core], spine[pod_j, every_core], uplink[j, group])
    ):
        links[:, :cores, hop] = column
    via[:, :cores] = core
    if extra:
        every_agg = _np.arange(extra)
        nodes[:, cores:, 0] = _np.where(pod_i == pod_j, tor[i], -1)  # same-pod pairs only
        nodes[:, cores:, 1] = agg[pod_i, every_agg]
        nodes[:, cores:, 2] = tor[j]
        links[:, cores:, 0] = uplink[i, every_agg]
        links[:, cores:, 1] = uplink[j, every_agg]
        via[:, cores:] = agg[pod_i, every_agg]
    return PathTable.from_padded(
        names, names, nodes.reshape(-1, 5), links.reshape(-1, 4), via.ravel()
    )


# --------------------------------------------------------------------------
# VL2
# --------------------------------------------------------------------------

def enumerate_vl2_paths(topology: VL2Topology, ordered: bool = True) -> PathTable:
    """Candidate probe paths between every pair of VL2 ToR switches.

    Each path is ``ToR -> agg -> intermediate -> agg' -> ToR'`` pinned by the
    triple (source aggregation switch, intermediate switch, destination
    aggregation switch); rows are pair-major, then in that triple's order.
    """
    return _produce(topology, _vl2_table, ordered)


def _vl2_table(topology: VL2Topology, ordered: bool) -> PathTable:
    names, code, link = _codes(topology)
    tors = topology.tor_switch_names
    intermediates = topology.intermediate_switch_names
    aggs = topology.aggregation_switch_names
    tor_aggs = [topology.aggs_of_tor(tor) for tor in tors]
    tor = _np.array([code[name] for name in tors])
    inter = _np.array([code[name] for name in intermediates])
    agg = _np.array([code[name] for name in aggs])
    homes = _np.array([[aggs.index(name) for name in row] for row in tor_aggs])  # [tor, side] -> agg
    uplink = _np.array([[link(t, a) for a in row] for t, row in zip(tors, tor_aggs)])  # [tor, side]
    spine = _np.array([[link(a, m) for m in intermediates] for a in aggs])  # [agg, intermediate]

    i, j = _pair_arrays(len(tors), ordered)
    # Axes: pair, source side, intermediate, destination side.
    src_agg = homes[i][:, :, None, None]
    dst_agg = homes[j][:, None, None, :]
    mid = _np.arange(len(inter))[None, None, :, None]
    shape = _np.broadcast_shapes(src_agg.shape, mid.shape, dst_agg.shape)
    nodes = _np.empty(shape + (5,), dtype=_np.int32)
    links = _np.empty(shape + (4,), dtype=_np.int32)
    tor_i, tor_j = tor[i][:, None, None, None], tor[j][:, None, None, None]
    for hop, column in enumerate((tor_i, agg[src_agg], inter[mid], agg[dst_agg], tor_j)):
        nodes[..., hop] = column
    up_i, up_j = uplink[i][:, :, None, None], uplink[j][:, None, None, :]
    for hop, column in enumerate((up_i, spine[src_agg, mid], spine[dst_agg, mid], up_j)):
        links[..., hop] = column
    via = _np.broadcast_to((src_agg * len(inter) + mid) * len(aggs) + dst_agg, shape)
    labels = tuple(f"{a}|{m}|{b}" for a in aggs for m in intermediates for b in aggs)
    return PathTable.from_padded(
        names, labels, nodes.reshape(-1, 5), links.reshape(-1, 4), via.ravel().astype(_np.int32)
    )


# --------------------------------------------------------------------------
# BCube
# --------------------------------------------------------------------------

def enumerate_bcube_paths(topology: BCubeTopology, ordered: bool = True) -> PathTable:
    """The ``k+1`` parallel paths between every pair of BCube servers.

    Implements ``BuildPathSet`` from the BCube paper: path ``i`` corrects the
    address digits in the cyclic order ``i, i-1, ..., 0, k, ..., i+1``.  When
    source and destination already agree on digit ``i``, the altered variant
    detours through a level-``i`` neighbor of the source so that the path set
    keeps ``k+1`` members (and stays parallel).  Rows are pair-major, then
    start level ``k`` down to ``0``.
    """
    return _produce(topology, _bcube_table, ordered)


def _bcube_table(topology: BCubeTopology, ordered: bool) -> PathTable:
    """Per-level digit arithmetic on server indices (``sum(digit[l] * n**l)``).

    A walk is at most ``k + 2`` steps -- the start level (a correction, or the
    detour when the digits already agree), the other levels in cyclic order,
    and the start level again (undoing a detour) -- and a step that would not
    change the address does not happen, which the ``-1`` padding expresses.
    """
    names, code, link = _codes(topology)
    n, levels = topology.n, topology.k + 1
    servers = topology.server_node_names()
    switches = [
        [topology.switch_for(topology.server_address(name), level) for name in servers]
        for level in range(levels)
    ]
    server = _np.array([code[name] for name in servers])
    switch = _np.array([[code[name] for name in row] for row in switches])  # [level, server]
    wire = _np.array([[link(s, w) for s, w in zip(servers, row)] for row in switches])  # [level, server]
    weight = n ** _np.arange(levels)

    i, j = _pair_arrays(len(servers), ordered)
    src, dst = _np.repeat(i, levels), _np.repeat(j, levels)
    start = _np.tile(_np.arange(levels - 1, -1, -1), len(i))
    nodes = _np.full((len(src), 2 * levels + 3), -1, dtype=_np.int32)
    links = _np.full((len(src), 2 * levels + 2), -1, dtype=_np.int32)
    nodes[:, 0] = server[src]
    here = src
    for step in range(levels + 1):
        level = (start - step) % levels
        digit, goal = here // weight[level] % n, dst // weight[level] % n
        if step == 0:  # n >= 2, so the detour digit differs from both
            goal = _np.where(digit == goal, (digit + 1) % n, goal)
        there = here + (goal - digit) * weight[level]
        moved = there != here
        nodes[:, 2 * step + 1] = _np.where(moved, switch[level, here], -1)
        nodes[:, 2 * step + 2] = _np.where(moved, server[there], -1)
        links[:, 2 * step] = _np.where(moved, wire[level, here], -1)
        links[:, 2 * step + 1] = _np.where(moved, wire[level, there], -1)
        here = there
    labels = tuple(f"level{level}" for level in range(levels))
    return PathTable.from_padded(names, labels, nodes, links, start.astype(_np.int32))


# --------------------------------------------------------------------------
# Generic
# --------------------------------------------------------------------------

def enumerate_candidate_paths(topology: Topology, ordered: bool = True, **kwargs) -> PathTable:
    """Dispatch to the topology-specific enumerator.

    Falls back to ECMP shortest paths between ToR switches for topologies
    without a specialised enumerator.
    """
    if isinstance(topology, FatTreeTopology):
        return enumerate_fattree_paths(topology, ordered=ordered, **kwargs)
    if isinstance(topology, VL2Topology):
        return enumerate_vl2_paths(topology, ordered=ordered, **kwargs)
    if isinstance(topology, BCubeTopology):
        return enumerate_bcube_paths(topology, ordered=ordered, **kwargs)
    tors = [n.name for n in topology.tor_switches]
    if not tors:
        raise TopologyError(
            f"no specialised path enumerator for {topology.name!r} and no ToR switches found"
        )
    return enumerate_shortest_paths(
        topology, [(tors[i], tors[j]) for i, j in _pairs(len(tors), ordered)]
    )


def enumerate_shortest_paths(
    topology: Topology,
    pairs: Iterable[Tuple[str, str]],
    max_paths_per_pair: Optional[int] = None,
) -> PathTable:
    """All shortest switch-level paths for the given endpoint pairs.

    Used for arbitrary topologies (and in tests as an oracle for the
    specialised enumerators).  Paths are discovered with
    :func:`networkx.all_shortest_paths` on the switches-only graph.
    """
    import itertools

    import networkx as nx

    graph = topology.to_networkx(switches_only=True)

    def walks() -> Walks:
        for src, dst in pairs:
            found = nx.all_shortest_paths(graph, src, dst)
            for walk in itertools.islice(found, max_paths_per_pair):
                yield tuple(walk), walk[len(walk) // 2] if len(walk) > 2 else ""

    return PathTable.from_walks(topology, walks())
