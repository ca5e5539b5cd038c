"""Virtual-link extension of the routing matrix (the LINKOR step of Alg. 1).

To reduce ``beta``-identifiability to the 1-identifiability construction, the
paper augments the link set with *virtual links*: one per combination of 2 to
``beta`` physical links.  A path covers a virtual link iff it covers at least
one of its constituent physical links ("OR"-ing the columns, Fig. 3).

:class:`ExtendedLinkSpace` materialises this extension without ever building
the extended matrix ``R'`` explicitly: it assigns dense ids to every extended
link (physical links keep their position, combinations follow) and keeps one
*containing* CSR -- for each physical link, in local (sorted-id) order, the
ascending extended ids whose combination includes it.  A path's extended row
is a gather over that CSR (:meth:`ExtendedLinkSpace.gather` for a batch of
projected rows, :meth:`ExtendedLinkSpace.on_locals` for one), which is all
the PMC greedy needs; at ``beta <= 1`` the CSR is the identity.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as _np

from .incidence import _gather_segments

__all__ = ["ExtendedLinkSpace"]


class ExtendedLinkSpace:
    """Dense numbering of physical links plus their <= beta combinations.

    Parameters
    ----------
    physical_links:
        The physical link ids (the probe-matrix universe of the subproblem).
    beta:
        Identifiability target.  ``beta <= 1`` adds no virtual links.  For
        ``beta >= 2`` every combination of ``2..beta`` physical links becomes a
        virtual link, so the extended universe has
        ``sum(C(n, i) for i in 1..beta)`` members -- exactly the column count
        of ``R'`` in §4.2.
    """

    def __init__(self, physical_links: Sequence[int], beta: int):
        if beta < 0:
            raise ValueError("beta must be non-negative")
        self._physical: Tuple[int, ...] = tuple(sorted(set(physical_links)))
        self._beta = beta
        self._local = {link: local for local, link in enumerate(self._physical)}
        n = len(self._physical)

        # Extended id -> its combination as local ids, one block per size in
        # ``itertools.combinations`` order: the singletons, then the pairs, ...
        blocks = [_np.arange(n, dtype=_np.int64).reshape(n, 1)]
        for size in range(2, beta + 1):
            flat = chain.from_iterable(combinations(range(n), size))
            count = comb(n, size) * size
            blocks.append(_np.fromiter(flat, dtype=_np.int64, count=count).reshape(-1, size))
        self._blocks = blocks
        self._num_extended = sum(len(block) for block in blocks)

        # The containing CSR is the transpose: a stable sort of the (member,
        # extended id) entries by member keeps each row's ids ascending.
        members = _np.concatenate([block.ravel() for block in blocks])
        sizes = _np.concatenate([_np.full(len(block), block.shape[1]) for block in blocks])
        owners = _np.repeat(_np.arange(self._num_extended, dtype=_np.int64), sizes)
        self._containing_ids = owners[_np.argsort(members, kind="stable")]
        self._containing_indptr = _np.concatenate(
            ([0], _np.cumsum(_np.bincount(members, minlength=n)))
        ).astype(_np.int64)

    # ------------------------------------------------------------------ sizes
    @property
    def beta(self) -> int:
        return self._beta

    @property
    def physical_links(self) -> Tuple[int, ...]:
        return self._physical

    @property
    def num_physical(self) -> int:
        return len(self._physical)

    @property
    def num_extended(self) -> int:
        return self._num_extended

    @property
    def num_virtual(self) -> int:
        return self.num_extended - self.num_physical

    @property
    def containing_width(self) -> int:
        """Extended ids containing any one physical link: ``sum(C(n - 1, i - 1))``."""
        return len(self._containing_ids) // max(1, self.num_physical)

    # ---------------------------------------------------------------- gathers
    def gather(self, segments, locals_):
        """Extended members of a projected batch: ``(segments, extended ids)``.

        ``segments``/``locals_`` are :meth:`RowProjection.batch`'s output.  A
        virtual link containing two of a row's links is listed twice in its
        segment -- harmless to a distinct-cell count, not to a split.
        """
        if self._beta <= 1:
            return segments, locals_
        entries, ids = _gather_segments(self._containing_indptr, self._containing_ids, locals_)
        return segments[entries], ids

    def on_locals(self, locals_):
        """The sorted unique extended ids covered by a row of local link ids."""
        if self._beta <= 1:
            return locals_
        _, ids = _gather_segments(
            self._containing_indptr, self._containing_ids, _np.asarray(locals_, dtype=_np.int64)
        )
        return _np.unique(ids)

    # ---------------------------------------------------------------- lookups
    def _local_of(self, physical_link: int) -> int:
        try:
            return self._local[physical_link]
        except KeyError:
            raise KeyError(f"link {physical_link} is not part of this extended space") from None

    def combination(self, extended_id: int) -> Tuple[int, ...]:
        """The physical links an extended link stands for."""
        for block in self._blocks:
            if extended_id < len(block):
                return tuple(self._physical[local] for local in block[extended_id].tolist())
            extended_id -= len(block)
        raise IndexError("extended id out of range")

    def is_virtual(self, extended_id: int) -> bool:
        return extended_id >= self.num_physical

    def physical_to_extended(self, physical_link: int) -> int:
        """The extended id of a single physical link.

        Physical links occupy the first ``num_physical`` extended ids, in
        sorted-id order, so this lookup is O(1).
        """
        return self._local_of(physical_link)

    def extended_links_containing(self, physical_link: int) -> List[int]:
        """Extended ids whose combination includes the given physical link."""
        local = self._local_of(physical_link)
        indptr = self._containing_indptr
        return self._containing_ids[indptr[local] : indptr[local + 1]].tolist()

    def extended_links_on_path(self, path_links: Iterable[int]) -> Set[int]:
        """Extended ids covered by a path (OR of the member columns, Fig. 3)."""
        locals_ = [self._local[link] for link in path_links if link in self._local]
        return set(self.on_locals(_np.asarray(locals_, dtype=_np.int64)).tolist())

    def expected_extended_count(self) -> int:
        """``sum(C(n, i) for i in 1..beta)`` -- for documentation and tests."""
        n = self.num_physical
        upper = max(1, self._beta)
        return sum(comb(n, i) for i in range(1, upper + 1))
