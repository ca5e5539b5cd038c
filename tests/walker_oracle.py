"""Node walkers: the reference the closed-form candidate producers are held to.

:func:`repro.routing.enumerate_candidate_paths` fills a
:class:`~repro.routing.PathTable` for Fattree, VL2 and BCube with array
arithmetic on node and link codes.  The walkers here build the same
candidates the obvious way -- one node walk per path, in row order, turned
into a table by :meth:`~repro.routing.PathTable.from_walks` -- so
``tests/test_path_table.py`` can compare the two row for row.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Tuple

from repro.routing import PathTable
from repro.topology import BCubeTopology, FatTreeTopology, Topology, VL2Topology

__all__ = ["walker_table", "fattree_walks", "vl2_walks", "bcube_walks", "bcube_path_walk"]

#: ``(node walk, via label)`` per candidate, in row order.
Walks = Iterator[Tuple[Tuple[str, ...], str]]


def _pairs(count: int, ordered: bool) -> Iterator[Tuple[int, int]]:
    """Endpoint index pairs in row order: ``i``-major, ``i < j`` when unordered."""
    pairs = itertools.permutations if ordered else itertools.combinations
    return pairs(range(count), 2)


def walker_table(topology: Topology, ordered: bool = True, **kwargs) -> PathTable:
    """The walker twin of :func:`repro.routing.enumerate_candidate_paths`."""
    if isinstance(topology, FatTreeTopology):
        walks = fattree_walks(topology, ordered, kwargs.get("include_intrapod_agg", False))
    elif isinstance(topology, VL2Topology):
        walks = vl2_walks(topology, ordered)
    elif isinstance(topology, BCubeTopology):
        walks = bcube_walks(topology, ordered)
    else:
        raise TypeError(f"no walker for {topology.name!r}")
    return PathTable.from_walks(topology, walks)


def fattree_walks(topology: FatTreeTopology, ordered: bool, include_intrapod_agg: bool) -> Walks:
    tors = topology.tor_switches
    groups = topology.core_groups
    pod_aggs = [topology.aggregation_switches_in_pod(pod) for pod in range(topology.k)]
    for i, j in _pairs(len(tors), ordered):
        src, dst = tors[i].name, tors[j].name
        src_aggs, dst_aggs = pod_aggs[tors[i].pod], pod_aggs[tors[j].pod]
        for group, cores in enumerate(groups):
            for core in cores:
                yield (src, src_aggs[group], core, dst_aggs[group], dst), core
        if include_intrapod_agg and tors[i].pod == tors[j].pod:
            for agg in src_aggs:
                yield (src, agg, dst), agg


def vl2_walks(topology: VL2Topology, ordered: bool) -> Walks:
    tors = topology.tor_switch_names
    intermediates = topology.intermediate_switch_names
    tor_aggs = [topology.aggs_of_tor(tor) for tor in tors]
    for i, j in _pairs(len(tors), ordered):
        for src_agg in tor_aggs[i]:
            for inter in intermediates:
                for dst_agg in tor_aggs[j]:
                    yield (tors[i], src_agg, inter, dst_agg, tors[j]), f"{src_agg}|{inter}|{dst_agg}"


def bcube_walks(topology: BCubeTopology, ordered: bool) -> Walks:
    servers = topology.server_node_names()
    for i, j in _pairs(len(servers), ordered):
        for start_level in range(topology.k, -1, -1):
            walk = bcube_path_walk(topology, servers[i], servers[j], start_level)
            yield tuple(walk), f"level{start_level}"


def bcube_path_walk(
    topology: BCubeTopology, src: str, dst: str, start_level: int
) -> List[str]:
    """Node walk of the BCube parallel path that starts by fixing ``start_level``."""
    k = topology.k
    src_addr = list(topology.server_address(src))
    dst_addr = topology.server_address(dst)
    order = [(start_level - offset) % (k + 1) for offset in range(k + 1)]

    walk = [src]
    current = list(src_addr)

    def hop(level: int, new_digit: int) -> None:
        """Move to the server whose digit ``level`` equals ``new_digit`` via the shared switch."""
        position = k - level
        if current[position] == new_digit:
            return
        switch = topology.switch_for(current, level)
        current[position] = new_digit
        next_server = topology.server_name(current)
        walk.append(switch)
        walk.append(next_server)

    first_level = order[0]
    first_position = k - first_level
    if src_addr[first_position] == dst_addr[first_position]:
        # Altered path: detour through a level-``first_level`` neighbor so this
        # path stays link-disjoint from the ones that correct other digits
        # first (AltDCRouting in the BCube paper).  ``n >= 2``, so the next
        # digit differs from the shared one.
        hop(first_level, (src_addr[first_position] + 1) % topology.n)
    else:
        hop(first_level, dst_addr[first_position])

    for level in order[1:]:
        hop(level, dst_addr[k - level])

    # Undo the detour (or finish correcting the first digit) last.
    hop(first_level, dst_addr[first_position])
    return walk
