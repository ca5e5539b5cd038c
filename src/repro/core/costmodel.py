"""Deterministic cost-model counters: machine-independent work accounting.

Wall-clock timings of sub-second micro-runs measure the scheduler of the CI
box more than the algorithm, so every gate the benchmark harnesses enforce is
expressed over *work counters* instead: exact integer counts of the algorithmic
operations the paper's complexity claims are about (greedy candidate
evaluations, lazy-update skips, partition refinements, replayed
subproblems, aggregation-window folds).  Two invariants make them gateable:

* **backend invariance** -- a counter has the same value under
  ``REPRO_BACKEND=numpy`` and ``REPRO_BACKEND=python``.  Counters therefore
  count *semantic* operations (one logical candidate evaluation, one window
  fold), never per-backend micro-ops like chunk overshoot or per-element
  gathers, which legitimately differ between the vectorized and scalar
  implementations of the same kernel;
* **machine independence** -- counters are pure functions of the inputs, so
  ten consecutive runs (or runs on two different CI boxes) agree byte for
  byte, and any drift is a real algorithmic regression rather than noise.

:class:`CostModel` is the accumulator those counters live in;
:class:`KernelCounters` is the incidence-layer instance counting semantic
kernel invocations on an :class:`~repro.core.incidence.IncidenceIndex`.
Wall-clock time remains *informational* (it still appears in tables and BENCH
JSON) -- it is just never asserted on.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

__all__ = ["CostModel", "KernelCounters"]


class CostModel:
    """Accumulator of named integer work counters.

    A thin, deterministic ``Dict[str, int]`` wrapper: counters are created on
    first :meth:`add`, values are exact Python ints, and :meth:`as_dict`
    renders them in sorted key order so two equal cost models serialize to
    byte-identical JSON.
    """

    __slots__ = ("_counts",)

    def __init__(self, initial: Optional[Mapping[str, int]] = None):
        self._counts: Dict[str, int] = {}
        if initial:
            for name, amount in initial.items():
                self.add(name, amount)

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (created at zero)."""
        self._counts[name] = self._counts.get(name, 0) + int(amount)

    def get(self, name: str, default: int = 0) -> int:
        return self._counts.get(name, default)

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CostModel):
            return self._counts == other._counts
        if isinstance(other, Mapping):
            return self._counts == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"CostModel({inner})"

    def merge(self, other: "CostModel") -> None:
        """Add every counter of *other* into this model."""
        for name, amount in other._counts.items():
            self.add(name, amount)

    def as_dict(self) -> Dict[str, int]:
        """Plain ``{name: int}`` view in sorted key order (JSON-stable)."""
        return {name: int(self._counts[name]) for name in sorted(self._counts)}

    def delta_since(self, before: Mapping[str, int]) -> Dict[str, int]:
        """Sparse counter delta relative to an earlier :meth:`as_dict` snapshot.

        Only counters that moved appear, in sorted key order -- the shape the
        per-shard kernel gates compare (``ShardOutcome.kernel_cost``), where a
        replayed shard must show exactly ``{}``.
        """
        return {
            name: self._counts[name] - before.get(name, 0)
            for name in sorted(self._counts)
            if self._counts[name] != before.get(name, 0)
        }

    def clear(self) -> None:
        self._counts.clear()


class KernelCounters:
    """Semantic kernel-invocation counters of one incidence index.

    Ticked by :class:`~repro.core.incidence.IncidenceIndex` on every
    *semantic* kernel call -- one per-link coverage histogram, one weighted
    column fold, one component decomposition -- together with the element
    volume the call touched (columns scanned, entries visited).  Both numbers
    are identical across backends because they describe the question asked,
    not how the backend answered it.
    """

    __slots__ = ("cost",)

    def __init__(self, cost: Optional[CostModel] = None):
        self.cost = cost if cost is not None else CostModel()

    def tick(self, kernel: str, elements: int = 0) -> None:
        """Record one invocation of *kernel* over *elements* items."""
        self.cost.add(f"{kernel}_calls")
        if elements:
            self.cost.add(f"{kernel}_elements", elements)

    def calls(self, kernel: str) -> int:
        return self.cost.get(f"{kernel}_calls")

    def elements(self, kernel: str) -> int:
        return self.cost.get(f"{kernel}_elements")

    def as_dict(self) -> Dict[str, int]:
        return self.cost.as_dict()

    def clear(self) -> None:
        self.cost.clear()
