"""Columnar candidate paths: :class:`PathTable` and the :class:`Path` row view.

PMC never needs a candidate path as an object -- it reads the link incidence
-- and only the few rows it selects ever reach a pinglist.  The table keeps
every candidate as columns (ragged node-code and hop-link-id columns plus
``src`` / ``dst`` / waypoint codes) and materialises a :class:`Path` for a row
only when somebody indexes it.  Columns are flat numpy arrays when a
closed-form enumerator produced them and plain lists when node walks did (the
shortest-path producer, and the walkers of ``tests/walker_oracle.py`` the
closed forms are tested against in ``tests/test_path_table.py``).

Row order is part of the contract: an enumerator's rows are pair-major, then
waypoint-major, exactly as its reference walker yields them, so a row index
means the same path in every process.
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.incidence import _gather_segments, _np

__all__ = ["Path", "PathTable"]


@dataclass(frozen=True)
class Path:
    """A pinned probe path between two endpoints.

    Attributes
    ----------
    path_id:
        Row index inside the owning :class:`PathTable` / routing matrix.
    nodes:
        The switch-level node walk, source first.  A node may appear twice
        (an intra-pod path bounced off a core switch revisits its aggregation
        switch), which is why ``link_ids`` is a set, not a sequence.
    link_ids:
        Frozen set of inter-switch link ids traversed (in either direction).
    src, dst:
        Endpoints (ToR switches for Fattree/VL2, servers for BCube).
    via:
        The pinned waypoint that disambiguates ECMP choices (core switch,
        intermediate switch, or the digit-permutation label for BCube).
    """

    path_id: int
    nodes: Tuple[str, ...]
    link_ids: frozenset
    src: str
    dst: str
    via: str = ""

    def __len__(self) -> int:
        return len(self.link_ids)

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1

    def reversed(self, new_id: Optional[int] = None) -> "Path":
        """The same physical walk traversed in the opposite direction."""
        return Path(
            path_id=self.path_id if new_id is None else new_id,
            nodes=tuple(reversed(self.nodes)),
            link_ids=self.link_ids,
            src=self.dst,
            dst=self.src,
            via=self.via,
        )


def _renumbered(path: Path, row: int) -> Path:
    """*path* with ``path_id == row``; the ``link_ids`` object is shared, so
    its iteration order (which the probe simulator's drop attribution
    follows) survives."""
    if path.path_id == row:
        return path
    return Path(row, path.nodes, path.link_ids, path.src, path.dst, path.via)


def _is_array(column) -> bool:
    return isinstance(column, _np.ndarray)


def _take_flat(column, rows):
    return column[rows] if _is_array(column) else [column[row] for row in rows]


def _take_ragged(indptr, data, rows):
    """Rows *rows* of a ragged column, as a new ``(indptr, data)`` pair."""
    if _is_array(data):
        lengths = indptr[rows + 1] - indptr[rows]
        return _np.concatenate(([0], _np.cumsum(lengths))), _gather_segments(indptr, data, rows)[1]
    new_indptr, new_data = [0], []
    for row in rows:
        new_data.extend(data[indptr[row] : indptr[row + 1]])
        new_indptr.append(len(new_data))
    return new_indptr, new_data


class PathTable(_SequenceABC):
    """A ``Sequence[Path]`` stored as columns; rows become objects on demand.

    ``node_names`` / ``via_labels`` decode the integer codes of the node,
    ``src`` / ``dst`` and ``via`` columns.  The link column holds each row's
    link ids in *hop order, duplicates kept*: a materialised ``link_ids`` is
    ``frozenset(set(hops))``, the very construction the walkers always used,
    and the incidence build sorts and de-duplicates on its own.
    """

    def __init__(
        self, node_names, via_labels, node_indptr, nodes, link_indptr, links, src, dst, via
    ):
        self._node_names = node_names
        self._via_labels = via_labels
        self._node_indptr = node_indptr
        self._nodes = nodes
        self._link_indptr = link_indptr
        self._links = links
        self._src = src
        self._dst = dst
        self._via = via
        self._memo: Dict[int, Path] = {}

    # ------------------------------------------------------------ producers
    @classmethod
    def _from_records(cls, records) -> "PathTable":
        """Rows given as ``(node names, hop link ids, src, dst, via label)``."""
        codes: Dict[str, int] = {}
        labels: Dict[str, int] = {}
        columns = ([0], [], [0], [], [], [], [])
        node_indptr, nodes, link_indptr, links, src, dst, via = columns
        for walk, hops, source, destination, label in records:
            nodes.extend(codes.setdefault(name, len(codes)) for name in walk)
            node_indptr.append(len(nodes))
            links.extend(hops)
            link_indptr.append(len(links))
            src.append(codes.setdefault(source, len(codes)))
            dst.append(codes.setdefault(destination, len(codes)))
            via.append(labels.setdefault(label, len(labels)))
        return cls(tuple(codes), tuple(labels), *columns)

    @classmethod
    def from_paths(cls, paths: Iterable[Path]) -> "PathTable":
        """Wrap already-built paths (row ``i`` is ``paths[i]`` with ``path_id == i``)."""
        paths = list(paths)
        table = cls._from_records((p.nodes, p.link_ids, p.src, p.dst, p.via) for p in paths)
        table._memo = {row: _renumbered(path, row) for row, path in enumerate(paths)}
        return table

    @classmethod
    def from_walks(cls, topology, walks: Iterable[Tuple[Sequence[str], str]]) -> "PathTable":
        """Fill a table from ``(node walk, via label)`` pairs (the walkers).

        Endpoints are the walk's first and last node; hop link ids come from
        the topology's adjacency (a missing hop raises ``TopologyError``).
        """
        link_between = topology.link_between
        return cls._from_records(
            (
                walk,
                [link_between(a, b).link_id for a, b in zip(walk, walk[1:])],
                walk[0],
                walk[-1],
                label,
            )
            for walk, label in walks
        )

    @classmethod
    def from_padded(cls, node_names, via_labels, nodes, links, via) -> "PathTable":
        """Compress ``-1``-padded 2-D node / hop-link arrays (closed forms).

        Row ``r`` is the non-negative prefix of ``nodes[r]`` / ``links[r]``; a
        row whose first node is ``-1`` does not exist and is dropped.  Rows
        start at their source and end at their destination.
        """
        keep = nodes[:, 0] >= 0
        if not keep.all():
            nodes, links, via = nodes[keep], links[keep], via[keep]
        columns = []
        for padded in (nodes, links):
            valid = padded >= 0
            columns.append(_np.concatenate(([0], _np.cumsum(valid.sum(axis=1)))))
            columns.append(padded.ravel() if valid.all() else padded[valid])
        node_indptr, flat_nodes, link_indptr, flat_links = columns
        return cls(
            node_names, via_labels, node_indptr, flat_nodes, link_indptr, flat_links,
            flat_nodes[node_indptr[:-1]], flat_nodes[node_indptr[1:] - 1], via,
        )

    # ------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self._via)

    def __getitem__(self, row):
        if isinstance(row, slice):
            return self.take(range(*row.indices(len(self))))
        row = int(row)
        if row < 0:
            row += len(self)
        path = self._memo.get(row)
        if path is None:
            if not 0 <= row < len(self):
                raise IndexError(f"path row {row} out of range")
            names = self._node_names
            path = Path(
                row,
                self._walk(row),
                frozenset(set(self._row(self._link_indptr, self._links, row))),
                names[int(self._src[row])],
                names[int(self._dst[row])],
                self._via_labels[int(self._via[row])],
            )
            self._memo[row] = path
        return path

    @staticmethod
    def _row(indptr, data, row: int) -> List[int]:
        values = data[int(indptr[row]) : int(indptr[row + 1])]
        return values.tolist() if _is_array(values) else values

    @property
    def materialised_rows(self) -> int:
        """How many rows exist as :class:`Path` objects (the laziness gauge)."""
        return len(self._memo)

    # ------------------------------------------------------------- columns
    def link_rows(self):
        """``(row_indptr, hop link ids)``: the flat input of the incidence build."""
        return self._link_indptr, self._links

    def hops(self, row: int) -> List[int]:
        """Row *row*'s link ids in hop order, duplicates kept (a
        :meth:`from_paths` row keeps its ``link_ids`` iteration order)."""
        return self._row(self._link_indptr, self._links, row)

    def rows_by_endpoints(self) -> Dict[Tuple[str, str], List[int]]:
        """The rows of every ``(src, dst)`` pair, ascending, read from the
        endpoint code columns (no row is materialised)."""
        names = self._node_names
        keys = _np.asarray(self._src, dtype=_np.int64) * len(names)
        keys += _np.asarray(self._dst, dtype=_np.int64)
        order = _np.argsort(keys, kind="stable")
        starts = _np.flatnonzero(_np.diff(keys[order], prepend=-1))
        rows, bounds = order.tolist(), starts.tolist() + [len(order)]
        return {
            (names[key // len(names)], names[key % len(names)]): rows[start:end]
            for key, start, end in zip(keys[order[starts]].tolist(), bounds, bounds[1:])
        }

    def rows_with_endpoint(self, names: Iterable[str]):
        """Boolean row mask: rows sourced at or targeted to any of *names*."""
        names = set(names)
        codes = [code for code, name in enumerate(self._node_names) if name in names]
        return _np.isin(self._src, codes) | _np.isin(self._dst, codes)

    def _walk(self, row: int) -> Tuple[str, ...]:
        names = self._node_names
        return tuple(names[code] for code in self._row(self._node_indptr, self._nodes, row))

    # ------------------------------------------------------------ sub-tables
    def take(self, rows: Sequence[int]) -> "PathTable":
        """The sub-table of *rows*, in that order (row ``i`` is ``rows[i]``).

        Columnar: no row is materialised.  Rows that already exist as objects
        are carried over renumbered, so their ``link_ids`` keep their identity.
        """
        if _is_array(self._links):
            rows = _np.asarray(rows, dtype=_np.int64)
        else:
            rows = [int(row) for row in rows]
        table = PathTable(
            self._node_names,
            self._via_labels,
            *_take_ragged(self._node_indptr, self._nodes, rows),
            *_take_ragged(self._link_indptr, self._links, rows),
            *(_take_flat(column, rows) for column in (self._src, self._dst, self._via)),
        )
        memo = self._memo
        if memo:
            sources = rows.tolist() if _is_array(rows) else rows
            table._memo = {
                new: _renumbered(memo[old], new) for new, old in enumerate(sources) if old in memo
            }
        return table

    def without_links(self, link_ids: Iterable[int]) -> "PathTable":
        """The sub-table of rows crossing none of *link_ids* (a row mask)."""
        failed = set(link_ids)
        indptr, links = self._link_indptr, self._links
        if _is_array(links):
            hit = _np.flatnonzero(_np.isin(links, _np.fromiter(failed, _np.int64, len(failed))))
            keep = _np.ones(len(self), dtype=bool)
            keep[_np.searchsorted(indptr, hit, side="right") - 1] = False
            return self.take(_np.flatnonzero(keep))
        return self.take(
            [r for r in range(len(self)) if failed.isdisjoint(links[indptr[r] : indptr[r + 1]])]
        )
