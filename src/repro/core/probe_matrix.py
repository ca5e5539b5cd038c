"""The probe matrix ``P``: the set of probe paths deTector actually sends.

A probe matrix is a subset of the routing matrix rows (§4.1).  It is the
artifact the controller distributes to pingers and the structure the PLL
localization algorithm reasons over, so it carries the same link-incidence
queries as :class:`~repro.routing.routing_matrix.RoutingMatrix` (both are
views over one :class:`~repro.core.incidence.IncidenceIndex`) plus the
quality metrics the paper optimises:

* *coverage*  -- every inter-switch link is crossed by at least ``alpha`` probe
  paths,
* *identifiability* -- any combination of at most ``beta`` failed links
  produces a distinct loss syndrome (set of lossy paths),
* *evenness* -- probe load is spread evenly across links.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..topology import Topology
from .incidence import Backend, IncidenceIndex

if TYPE_CHECKING:  # imported lazily at runtime to avoid a routing<->core cycle
    from ..routing import Path, RoutingMatrix

__all__ = ["ProbeMatrix"]


class ProbeMatrix:
    """Selected probe paths over the inter-switch link universe."""

    def __init__(
        self,
        topology: Topology,
        paths: Sequence["Path"],
        link_ids: Optional[Iterable[int]] = None,
        backend: Optional[Backend] = None,
    ):
        from ..routing import RoutingMatrix

        self._matrix = RoutingMatrix(topology, paths, link_ids=link_ids, backend=backend)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_selection(
        cls, routing_matrix: "RoutingMatrix", selected_indices: Sequence[int]
    ) -> "ProbeMatrix":
        """Build a probe matrix from selected rows of a routing matrix."""
        return cls(
            routing_matrix.topology,
            routing_matrix.paths.take(selected_indices),
            link_ids=routing_matrix.link_ids,
            backend=routing_matrix.backend,
        )

    # ------------------------------------------------------------------ views
    @property
    def topology(self) -> Topology:
        return self._matrix.topology

    @property
    def incidence(self) -> IncidenceIndex:
        """The shared CSR/CSC incidence index (the array-facing API)."""
        return self._matrix.incidence

    @property
    def backend(self) -> Backend:
        return self._matrix.backend

    @property
    def paths(self) -> Sequence["Path"]:
        return self._matrix.paths

    @property
    def num_paths(self) -> int:
        return self._matrix.num_paths

    @property
    def link_ids(self) -> Tuple[int, ...]:
        return self._matrix.link_ids

    @property
    def num_links(self) -> int:
        return self._matrix.num_links

    def path(self, index: int) -> "Path":
        return self._matrix.path(index)

    def links_on(self, path_index: int) -> FrozenSet[int]:
        return self._matrix.links_on(path_index)

    def paths_through(self, link_id: int) -> Tuple[int, ...]:
        return self._matrix.paths_through(link_id)

    def contains_link(self, link_id: int) -> bool:
        return self._matrix.contains_link(link_id)

    def as_routing_matrix(self) -> "RoutingMatrix":
        return self._matrix

    def to_sparse(self):
        return self._matrix.to_sparse()

    # ---------------------------------------------------------------- quality
    def link_coverage(self) -> Dict[int, int]:
        """Number of probe paths crossing each link of the universe."""
        return self._matrix.coverage_histogram()

    def min_coverage(self) -> int:
        counts = self.incidence.coverage_counts()
        return int(min(counts)) if len(counts) else 0

    def max_coverage(self) -> int:
        counts = self.incidence.coverage_counts()
        return int(max(counts)) if len(counts) else 0

    def coverage_gap(self) -> int:
        """Max minus min link coverage -- the evenness metric of §4.2."""
        counts = self.incidence.coverage_counts()
        if not len(counts):
            return 0
        return int(max(counts)) - int(min(counts))

    def uncovered_links(self) -> List[int]:
        return self._matrix.uncovered_links()

    def satisfies_coverage(self, alpha: int) -> bool:
        """``True`` when every link is crossed by at least ``alpha`` paths."""
        if alpha <= 0:
            return True
        return self.min_coverage() >= alpha

    def syndrome(self, failed_links: Iterable[int]) -> FrozenSet[int]:
        """The set of probe-path indices that traverse at least one failed link.

        Under full packet loss this is exactly the set of lossy paths an
        operator observes, so distinct syndromes for distinct failure sets is
        the identifiability property (§4.1).
        """
        return frozenset(self.incidence.rows_touching_links(failed_links))

    # ------------------------------------------------------------ bookkeeping
    def paths_by_source(self) -> Dict[str, List[int]]:
        """Group path indices by source endpoint (for pinglist construction)."""
        groups: Dict[str, List[int]] = {}
        for index, path in enumerate(self.paths):
            groups.setdefault(path.src, []).append(index)
        return groups

    def summary(self) -> Mapping[str, float]:
        histogram = self.link_coverage()
        values = list(histogram.values())
        mean = sum(values) / len(values) if values else 0.0
        return {
            "paths": self.num_paths,
            "links": self.num_links,
            "min_coverage": min(values) if values else 0,
            "max_coverage": max(values) if values else 0,
            "mean_coverage": mean,
            "uncovered_links": sum(1 for v in values if v == 0),
        }

    # ----------------------------------------------------------- serialization
    def to_json(self) -> str:
        """Serialize for the controller -> pinger hand-off (pinglists embed this)."""
        payload = {
            "topology": self.topology.name,
            "link_ids": list(self.link_ids),
            "paths": [
                {
                    "nodes": list(path.nodes),
                    "src": path.src,
                    "dst": path.dst,
                    "via": path.via,
                }
                for path in self.paths
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, topology: Topology, payload: str) -> "ProbeMatrix":
        from ..routing.paths import Path, walk_to_link_ids

        data = json.loads(payload)
        if data.get("topology") != topology.name:
            raise ValueError(
                f"probe matrix was built for {data.get('topology')!r}, "
                f"not {topology.name!r}"
            )
        paths = []
        for i, entry in enumerate(data["paths"]):
            nodes = tuple(entry["nodes"])
            paths.append(
                Path(
                    path_id=i,
                    nodes=nodes,
                    link_ids=walk_to_link_ids(topology, nodes),
                    src=entry["src"],
                    dst=entry["dst"],
                    via=entry.get("via", ""),
                )
            )
        return cls(topology, paths, link_ids=data["link_ids"])
