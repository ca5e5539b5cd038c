"""Plain-list incidence kernels: the reference ``IncidenceIndex`` is held to.

:class:`repro.core.incidence.IncidenceIndex` answers every incidence question
with numpy array passes.  The functions here answer the same questions the
obvious way -- loops and sets over plain Python lists -- so the differential
tests in ``tests/test_incidence_oracle.py`` have something to compare
against that shares no code with the product.

Every function takes the incidence as lists: a CSR/CSC quadruple from
:func:`csr_csc`, row lists, or per-column row lists, and returns plain ints,
lists or tuples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "csr_csc",
    "row_lengths",
    "coverage_counts",
    "masked_col_counts",
    "weighted_col_counts",
    "rows_touching_links",
    "active_rows",
    "components",
    "pod_shards",
    "distinct_column_signatures",
    "project_row",
    "cells_touched",
    "cells_touched_segmented",
    "splits_gained",
    "clear_if_reached",
    "first_max",
]

Quad = Tuple[List[int], List[int], List[int], List[int]]


def _segment(indptr: Sequence[int], data: Sequence[int], i: int) -> List[int]:
    return list(data[indptr[i] : indptr[i + 1]])


def csr_csc(indptr: Sequence[int], links: Sequence[int], universe: Sequence[int]) -> Quad:
    """``(row_indptr, row_cols, col_indptr, col_rows)`` of flat rows over *universe*.

    Row ``r`` crosses ``links[indptr[r]:indptr[r + 1]]``.  Link ids outside
    the universe and repeats within a row are dropped; a link id the universe
    lists twice maps to its *last* column, the rule of a ``link -> column``
    dict built by enumeration.
    """
    pos = {link: col for col, link in enumerate(universe)}
    indptr, links = [int(v) for v in indptr], [int(v) for v in links]
    row_indptr, row_cols = [0], []
    rows_of: List[List[int]] = [[] for _ in universe]
    for row in range(len(indptr) - 1):
        cols = sorted({pos[link] for link in links[indptr[row] : indptr[row + 1]] if link in pos})
        row_cols.extend(cols)
        row_indptr.append(len(row_cols))
        for col in cols:  # rows arrive ascending, so each column comes out sorted
            rows_of[col].append(row)
    col_indptr, col_rows = [0], []
    for rows in rows_of:
        col_rows.extend(rows)
        col_indptr.append(len(col_rows))
    return row_indptr, row_cols, col_indptr, col_rows


def row_lengths(row_indptr: Sequence[int]) -> List[int]:
    return [row_indptr[r + 1] - row_indptr[r] for r in range(len(row_indptr) - 1)]


def coverage_counts(col_indptr: Sequence[int]) -> List[int]:
    """Per-column path counts."""
    return row_lengths(col_indptr)


def masked_col_counts(col_indptr, col_rows, row_mask: Sequence[bool]) -> List[int]:
    """Per-column count of the incident rows whose mask entry is true."""
    return [
        sum(1 for row in _segment(col_indptr, col_rows, col) if row_mask[row])
        for col in range(len(col_indptr) - 1)
    ]


def weighted_col_counts(col_indptr, col_rows, row_values: Sequence[int]) -> List[int]:
    """Per-column sum of *row_values* over the incident rows."""
    return [
        sum(int(row_values[row]) for row in _segment(col_indptr, col_rows, col))
        for col in range(len(col_indptr) - 1)
    ]


def rows_touching_links(col_indptr, col_rows, universe: Sequence[int], link_ids) -> List[int]:
    """Sorted rows crossing at least one of *link_ids* (the loss syndrome)."""
    pos = {link: col for col, link in enumerate(universe)}
    rows: Set[int] = set()
    for link in link_ids:
        if link in pos:
            rows.update(_segment(col_indptr, col_rows, pos[link]))
    return sorted(rows)


def active_rows(row_indptr, row_cols, masked_cols: Set[int]) -> List[int]:
    """Rows crossing none of the masked columns."""
    return [
        row
        for row in range(len(row_indptr) - 1)
        if not masked_cols.intersection(_segment(row_indptr, row_cols, row))
    ]


def components(
    row_indptr, row_cols, universe: Sequence[int], rows: Optional[Sequence[int]] = None
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Connected components of the path/link bipartite graph, by union-find.

    ``(sorted link ids, member rows in the given order)`` pairs, ordered by
    smallest link id; columns no considered row crosses are path-less
    singletons and rows without columns are dropped.
    """
    parent = list(range(len(universe)))

    def find(col: int) -> int:
        while parent[col] != col:
            parent[col] = parent[parent[col]]
            col = parent[col]
        return col

    considered = range(len(row_indptr) - 1) if rows is None else rows
    anchored = []
    for row in considered:
        cols = _segment(row_indptr, row_cols, int(row))
        if not cols:
            continue
        for col in cols[1:]:
            parent[find(col)] = find(cols[0])
        anchored.append((int(row), cols[0]))
    links: Dict[int, List[int]] = {}
    for col, link in enumerate(universe):
        links.setdefault(find(col), []).append(link)
    members: Dict[int, List[int]] = {root: [] for root in links}
    for row, anchor in anchored:
        members[find(anchor)].append(row)
    found = [(tuple(sorted(ids)), tuple(members[root])) for root, ids in links.items()]
    return sorted(found, key=lambda item: item[0][0])


def pod_shards(
    row_indptr, row_cols, universe: Sequence[int], col_pods: Sequence[int], rows=None
) -> List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
    """``(pod, sorted link ids, rows)`` groups: a row whose columns all carry one
    non-negative pod joins that pod, every other crossing row joins ``-1``;
    pods ascend, ``-1`` comes last and also takes every column no considered
    row crosses."""
    considered = range(len(row_indptr) - 1) if rows is None else rows
    group_rows: Dict[int, List[int]] = {}
    group_cols: Dict[int, Set[int]] = {}
    for row in considered:
        cols = _segment(row_indptr, row_cols, int(row))
        if not cols:
            continue
        pods = {col_pods[col] for col in cols}
        pod = pods.pop() if len(pods) == 1 else -1  # a -1 column owns no pod
        group_rows.setdefault(pod, []).append(int(row))
        group_cols.setdefault(pod, set()).update(cols)
    crossed = set().union(*group_cols.values()) if group_cols else set()
    orphans = set(range(len(universe))) - crossed
    if orphans:
        group_rows.setdefault(-1, [])
        group_cols.setdefault(-1, set()).update(orphans)
    order = sorted(pod for pod in group_rows if pod >= 0) + ([-1] if -1 in group_rows else [])
    return [
        (
            pod,
            tuple(sorted(universe[col] for col in group_cols[pod])),
            tuple(group_rows[pod]),
        )
        for pod in order
    ]


def distinct_column_signatures(col_indptr, col_rows, universe, link_ids, rows) -> int:
    """How many distinct row sets (within *rows*) the given links are crossed by."""
    pos = {link: col for col, link in enumerate(universe)}
    within = set(rows)
    return len(
        {
            tuple(row for row in _segment(col_indptr, col_rows, pos[link]) if row in within)
            for link in link_ids
        }
    )


def project_row(row_indptr, row_cols, universe, subset: Sequence[int], row: int) -> List[int]:
    """Local ids (ranks in *subset*) of a row's links inside the subset."""
    pos = {link: col for col, link in enumerate(universe)}
    local = {pos[link]: i for i, link in enumerate(subset)}
    return [local[col] for col in _segment(row_indptr, row_cols, row) if col in local]


def cells_touched(cell_of: Sequence[int], members: Sequence[int]) -> int:
    """Distinct cells holding at least one member."""
    return len({cell_of[m] for m in members})


def cells_touched_segmented(cell_of, segments, members, num_segments: int) -> List[int]:
    """:func:`cells_touched` per segment of parallel ``segments``/``members`` lists."""
    seen: List[Set[int]] = [set() for _ in range(num_segments)]
    for segment, member in zip(segments, members):
        seen[segment].add(cell_of[member])
    return [len(cells) for cells in seen]


def splits_gained(cell_of: Sequence[int], members: Sequence[int]) -> int:
    """Cells the member set hits without covering: the new cells a split creates."""
    sizes: Dict[int, int] = {}
    for cell in cell_of:
        sizes[cell] = sizes.get(cell, 0) + 1
    inside: Dict[int, int] = {}
    for member in set(members):
        inside[cell_of[member]] = inside.get(cell_of[member], 0) + 1
    return sum(1 for cell, count in inside.items() if count < sizes[cell])


def clear_if_reached(mask: List[bool], counts, idx, threshold: int) -> int:
    """Clear ``mask[i]`` where ``counts[i] >= threshold``; return #cleared."""
    cleared = 0
    for i in idx:
        if mask[i] and counts[i] >= threshold:
            mask[i] = False
            cleared += 1
    return cleared


def first_max(vector: Sequence[int]) -> Tuple[int, int]:
    """(index, value) of the first maximum; (-1, 0) for an empty vector."""
    best_idx, best = -1, 0
    for i, value in enumerate(vector):
        if best_idx < 0 or value > best:
            best_idx, best = i, value
    return best_idx, best
