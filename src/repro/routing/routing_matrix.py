"""The routing matrix ``R``: candidate probe paths x inter-switch links.

§4.1 of the paper defines ``R`` as an ``m x n`` 0/1 matrix where ``R[i, j] = 1``
iff link ``j`` lies on path ``i``.  At data-center scale a dense matrix is not
an option (Fattree(64) has ~4.3e9 candidate paths), so :class:`RoutingMatrix`
keeps the incidence in one shared CSR/CSC structure -- the
:class:`~repro.core.incidence.IncidenceIndex` -- and exposes the two legacy
query views on top of it:

* ``links_on(path)``   -- the frozen set of link ids of each path, and
* ``paths_through(l)`` -- the sorted tuple of path indices crossing link ``l``

while PMC, PLL and the decomposition work on the flat arrays directly (via
:attr:`incidence`).  A :mod:`scipy.sparse` matrix is only materialised on
demand (useful for the OMP localization baseline and for tests).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.incidence import IncidenceIndex
from ..topology import Topology
from .path_table import Path, PathTable

__all__ = ["RoutingMatrix"]


class RoutingMatrix:
    """Candidate probe paths over a fixed link universe.

    Parameters
    ----------
    topology:
        The topology the paths live in.
    paths:
        The candidates: a :class:`~repro.routing.PathTable`, or any sequence
        of :class:`~repro.routing.Path` objects (wrapped into one; their
        ``path_id`` fields are ignored).  The position in the sequence is the
        canonical path index, and ``path(i).path_id == i``.
    link_ids:
        The link universe.  Defaults to all inter-switch links of the
        topology, which is what deTector's probe matrix targets (§3.1).
    """

    def __init__(
        self,
        topology: Topology,
        paths: Sequence[Path],
        link_ids: Optional[Iterable[int]] = None,
    ):
        self._topology = topology
        self._paths = paths if isinstance(paths, PathTable) else PathTable.from_paths(paths)
        if link_ids is None:
            universe = [link.link_id for link in topology.switch_links]
        else:
            universe = sorted(set(link_ids))
        self._index = IncidenceIndex.from_rows(*self._paths.link_rows(), universe)

    # ------------------------------------------------------------------ views
    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def incidence(self) -> IncidenceIndex:
        """The shared CSR/CSC incidence index (the array-facing API)."""
        return self._index

    @property
    def paths(self) -> PathTable:
        """The candidate table; indexing it materialises that row's :class:`Path`."""
        return self._paths

    @property
    def num_paths(self) -> int:
        return len(self._paths)

    @property
    def link_ids(self) -> Tuple[int, ...]:
        return self._index.link_ids

    @property
    def num_links(self) -> int:
        return self._index.num_links

    def path(self, index: int) -> Path:
        return self._paths[index]

    def links_on(self, path_index: int) -> FrozenSet[int]:
        """Link ids (restricted to the universe) traversed by a path."""
        return self._index.row_link_set(path_index)

    def paths_through(self, link_id: int) -> Tuple[int, ...]:
        """Indices of paths that traverse the link."""
        try:
            return self._index.paths_through(link_id)
        except KeyError:
            raise KeyError(f"link {link_id} is not in the routing-matrix universe") from None

    def contains_link(self, link_id: int) -> bool:
        return self._index.contains_link(link_id)

    # ------------------------------------------------------------ diagnostics
    def covered_links(self) -> List[int]:
        """Links crossed by at least one candidate path."""
        counts = self._index.coverage_counts()
        return [l for col, l in enumerate(self.link_ids) if counts[col]]

    def uncovered_links(self) -> List[int]:
        """Links no candidate path can probe (PMC can never cover these)."""
        counts = self._index.coverage_counts()
        return [l for col, l in enumerate(self.link_ids) if not counts[col]]

    def coverage_histogram(self) -> Dict[int, int]:
        """Map ``link_id -> number of candidate paths`` through it."""
        return self._index.coverage_histogram()

    def summary(self) -> Mapping[str, int]:
        histogram = self.coverage_histogram()
        values = list(histogram.values())
        return {
            "paths": self.num_paths,
            "links": self.num_links,
            "uncovered_links": sum(1 for v in values if v == 0),
            "min_link_coverage": min(values) if values else 0,
            "max_link_coverage": max(values) if values else 0,
        }

    # ------------------------------------------------------------ conversions
    def column_index(self) -> Dict[int, int]:
        """Map from link id to column position in :meth:`to_sparse`."""
        return {link_id: column for column, link_id in enumerate(self.link_ids)}

    def to_sparse(self):
        """Export as a ``scipy.sparse.csr_matrix`` of shape (paths, links)."""
        return self._index.to_scipy_csr()

    def to_dense(self):
        """Dense ``numpy`` export (small instances / tests only)."""
        return self.to_sparse().toarray()

    def subset(self, path_indices: Sequence[int]) -> "RoutingMatrix":
        """A new routing matrix restricted to the given paths (same universe)."""
        return RoutingMatrix(
            self._topology,
            self._paths.take(path_indices),
            link_ids=self.link_ids,
        )
