"""The set-based link-set partition: the reference ``RefinablePartition`` is held to.

:class:`repro.core.incidence.RefinablePartition` keeps the §4.2 refinement on
flat label arrays; :class:`LinkSetPartition` is the seed implementation on
dict-of-set cells that it replaced in the solver, kept here so the
differential tests have the obvious version to compare against.

The construction for 1-identifiability keeps a partition of the (extended)
link set.  Initially there is a single cell containing every link.  Each
selected path splits every cell it touches into "links on the path" and
"links not on the path"; when every cell is a singleton, the set of selected
paths traversing each link is unique and the matrix is 1-identifiable (over
the extended link space, hence ``beta``-identifiable over physical links).

:class:`LinkSetPartition` implements exactly this refinement, with the two
queries the greedy needs:

* :meth:`cells_touched` -- how many cells contain at least one link of a path
  (the "# of link sets on path" term of the score, Eq. 1), and
* :meth:`split` -- refine the partition by a selected path, returning how many
  new cells the split created (the actual marginal progress, used both for
  the stop condition and for discarding useless candidate paths).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

__all__ = ["LinkSetPartition"]


class LinkSetPartition:
    """Refinable partition over a dense universe ``0 .. n-1`` of (extended) links."""

    def __init__(self, num_links: int):
        if num_links < 0:
            raise ValueError("num_links must be non-negative")
        self._num_links = num_links
        # cell id -> set of member link ids; cells are never removed, only split.
        self._cells: Dict[int, Set[int]] = {}
        self._cell_of: List[int] = [0] * num_links
        if num_links:
            self._cells[0] = set(range(num_links))
        self._next_cell_id = 1
        self._singletons = 1 if num_links == 1 else 0

    # ------------------------------------------------------------------ sizes
    @property
    def num_links(self) -> int:
        return self._num_links

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    @property
    def num_singletons(self) -> int:
        return self._singletons

    @property
    def fully_refined(self) -> bool:
        """True when every cell is a singleton -- the identifiability target."""
        return self.num_cells == self._num_links

    # ---------------------------------------------------------------- queries
    def cell_of(self, link: int) -> int:
        return self._cell_of[link]

    def cell_members(self, cell_id: int) -> Set[int]:
        return set(self._cells[cell_id])

    def cells(self) -> Dict[int, Set[int]]:
        return {cell: set(members) for cell, members in self._cells.items()}

    def same_cell(self, link_a: int, link_b: int) -> bool:
        return self._cell_of[link_a] == self._cell_of[link_b]

    def cells_touched(self, links: Iterable[int]) -> int:
        """Number of distinct cells containing at least one of the given links."""
        return len({self._cell_of[link] for link in links})

    def splits_gained(self, links: Iterable[int]) -> int:
        """How many *new* cells :meth:`split` would create for this link set.

        A cell produces a new cell only when the link set hits some but not
        all of its members.  This is the exact marginal refinement a path
        provides, used to discard candidates that can no longer help.
        """
        link_set = set(links)
        touched: Dict[int, int] = {}
        for link in link_set:
            cell = self._cell_of[link]
            touched[cell] = touched.get(cell, 0) + 1
        gained = 0
        for cell, inside in touched.items():
            if inside < len(self._cells[cell]):
                gained += 1
        return gained

    # ----------------------------------------------------------------- update
    def split(self, links: Iterable[int]) -> int:
        """Refine the partition with the given link set; return number of new cells."""
        link_set = set(links)
        by_cell: Dict[int, Set[int]] = {}
        for link in link_set:
            cell = self._cell_of[link]
            by_cell.setdefault(cell, set()).add(link)
        created = 0
        for cell, inside in by_cell.items():
            members = self._cells[cell]
            if len(inside) == len(members):
                continue  # the whole cell is on the path: nothing to split
            # Move the smaller side into a new cell to bound the work.
            new_cell = self._next_cell_id
            self._next_cell_id += 1
            outside = members - inside
            moved = inside if len(inside) <= len(outside) else outside
            remaining_count = len(members) - len(moved)
            if len(members) == 1:
                # already singleton; cannot happen because inside < members
                continue
            for link in moved:
                members.discard(link)
                self._cell_of[link] = new_cell
            self._cells[new_cell] = set(moved)
            created += 1
            # Singleton bookkeeping: the original cell was not a singleton
            # (it had members both inside and outside); after the split either
            # side may have become one.
            if len(moved) == 1:
                self._singletons += 1
            if remaining_count == 1:
                self._singletons += 1
        return created

    # ------------------------------------------------------------------ debug
    def signature(self) -> Dict[int, int]:
        """Map every link to a canonical cell label (for equality in tests)."""
        canonical: Dict[int, int] = {}
        labels: Dict[int, int] = {}
        for link in range(self._num_links):
            cell = self._cell_of[link]
            if cell not in labels:
                labels[cell] = len(labels)
            canonical[link] = labels[cell]
        return canonical
