"""Failure models: the three loss classes of §6.2 plus a scenario generator.

The testbed in the paper uses OpenFlow rules to emulate three loss classes:

* **full packet loss** -- every packet on the link (or through the switch) is
  dropped (link down, switch down),
* **deterministic partial loss** -- packets with certain header features are
  dropped deterministically (packet blackholes, misconfigured rules),
* **random partial loss** -- packets are dropped with some probability (bit
  flips, CRC errors, buffer overflow).

Since we have no access to production loss data (same as the authors), the
:class:`FailureGenerator` synthesises scenarios following the qualitative
distributions the paper takes from Gill et al. [20] and Benson et al. [12]:
link failures dominate switch failures, loss rates span 1e-4 .. 1, and the
failure probability depends on the tier of the link.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..topology import HealthSnapshot, Tier, Topology, TopologyDelta

__all__ = [
    "LossMode",
    "LinkFailure",
    "FailureScenario",
    "FailureGeneratorConfig",
    "FailureGenerator",
    "ChurnSchedule",
]


class LossMode(str, Enum):
    """The three loss classes emulated on the testbed (§6.2)."""

    FULL = "full"
    DETERMINISTIC_PARTIAL = "deterministic_partial"
    RANDOM_PARTIAL = "random_partial"


@dataclass(frozen=True)
class LinkFailure:
    """A faulty link and how it drops packets.

    Attributes
    ----------
    link_id:
        The failed link.
    mode:
        One of :class:`LossMode`.
    loss_rate:
        Drop probability for :attr:`LossMode.RANDOM_PARTIAL`; ignored for the
        other modes (full loss drops everything, deterministic loss drops by
        header match).
    match_fraction:
        For :attr:`LossMode.DETERMINISTIC_PARTIAL`: the fraction of the flow
        (5-tuple hash) space whose packets are blackholed on this link.
    salt:
        Mixed into the deterministic-drop hash so that different failures
        blackhole different flow subsets.
    """

    link_id: int
    mode: LossMode
    loss_rate: float = 1.0
    match_fraction: float = 0.25
    salt: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must lie in [0, 1]")
        if not 0.0 < self.match_fraction <= 1.0:
            raise ValueError("match_fraction must lie in (0, 1]")

    def drops_flow(self, flow_key: Tuple) -> bool:
        """Deterministic-partial decision: does this failure blackhole the flow?"""
        digest = zlib.crc32(f"{self.salt}|{self.link_id}|{flow_key}".encode("utf-8"))
        return (digest % 10_000) < self.match_fraction * 10_000

    @property
    def effective_loss_rate(self) -> float:
        """Expected per-packet drop probability over a uniform flow mix."""
        if self.mode is LossMode.FULL:
            return 1.0
        if self.mode is LossMode.DETERMINISTIC_PARTIAL:
            return self.match_fraction
        return self.loss_rate


@dataclass
class FailureScenario:
    """A set of concurrent failures injected into the simulator.

    A failed switch is represented by full-loss failures on every link
    incident to it (that is how the testbed emulates switch-down, §6.2), but
    the switch name is kept so experiments can report switch-level ground
    truth when needed.
    """

    failures: Dict[int, LinkFailure] = field(default_factory=dict)
    failed_switches: Tuple[str, ...] = ()
    description: str = ""
    #: Mutation counter: bumped by :meth:`add` / :meth:`remove` so readers
    #: (e.g. the probe simulator's dirty-path cache) can detect in-place
    #: changes without comparing the failure dict.  Excluded from equality.
    version: int = field(default=0, compare=False, repr=False)

    @property
    def bad_link_ids(self) -> List[int]:
        return sorted(self.failures)

    @property
    def num_failures(self) -> int:
        return len(self.failures)

    def failure_on(self, link_id: int) -> Optional[LinkFailure]:
        return self.failures.get(link_id)

    def add(self, failure: LinkFailure) -> None:
        self.failures[failure.link_id] = failure
        self.version += 1

    def remove(self, link_id: int) -> None:
        """Clear the failure on a link (no-op when the link is healthy)."""
        if self.failures.pop(link_id, None) is not None:
            self.version += 1

    @classmethod
    def single_link(
        cls,
        link_id: int,
        mode: LossMode = LossMode.FULL,
        loss_rate: float = 1.0,
        match_fraction: float = 0.25,
    ) -> "FailureScenario":
        """Convenience constructor for one-failure experiments."""
        failure = LinkFailure(
            link_id=link_id, mode=mode, loss_rate=loss_rate, match_fraction=match_fraction
        )
        return cls(failures={link_id: failure}, description=f"single {mode.value} on link {link_id}")

    @classmethod
    def switch_down(cls, topology: Topology, switch_name: str) -> "FailureScenario":
        """All links of a switch fail with full loss (switch-down emulation)."""
        failures = {
            link.link_id: LinkFailure(link_id=link.link_id, mode=LossMode.FULL)
            for link in topology.links_of(switch_name)
        }
        return cls(
            failures=failures,
            failed_switches=(switch_name,),
            description=f"switch {switch_name} down",
        )


@dataclass(frozen=True)
class FailureGeneratorConfig:
    """Knobs of the synthetic failure generator.

    Defaults follow the qualitative measurements the paper cites:

    * most failure events are individual link failures rather than whole
      switches (Gill et al. report link failures dominating),
    * random-loss rates span ``1e-4 .. 1`` (§6.2) but are skewed towards
      significant losses: the buckets below are calibrated so that the share
      of near-undetectable failures (< 1e-3) matches the ~1% false-negative
      floor the paper attributes to "losses of extremely low loss rate"
      (Table 5 discussion),
    * ToR/aggregation links fail more often than core links (loss distribution
      per tier extracted from Benson et al., Fig. 3 in [12]).
    """

    switch_failure_probability: float = 0.2
    mode_weights: Mapping[LossMode, float] = field(
        default_factory=lambda: {
            LossMode.FULL: 1.0 / 3.0,
            LossMode.DETERMINISTIC_PARTIAL: 1.0 / 3.0,
            LossMode.RANDOM_PARTIAL: 1.0 / 3.0,
        }
    )
    # (low, high, weight) buckets for the random-partial loss rate; the rate is
    # log-uniform inside the chosen bucket.
    random_loss_rate_buckets: Tuple[Tuple[float, float, float], ...] = (
        (1e-2, 1.0, 0.80),
        (1e-3, 1e-2, 0.15),
        (1e-4, 1e-3, 0.05),
    )
    min_random_loss_rate: float = 1e-4
    max_random_loss_rate: float = 1.0
    min_match_fraction: float = 0.1
    max_match_fraction: float = 0.5
    tier_pair_weights: Mapping[Tuple[str, str], float] = field(
        default_factory=lambda: {
            (Tier.AGGREGATION, Tier.EDGE): 0.45,
            (Tier.AGGREGATION, Tier.CORE): 0.35,
            (Tier.AGGREGATION, Tier.INTERMEDIATE): 0.35,
            (Tier.AGGREGATION, Tier.TOR): 0.45,
        }
    )
    default_tier_weight: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.switch_failure_probability <= 1.0:
            raise ValueError("switch_failure_probability must lie in [0, 1]")
        if self.min_random_loss_rate <= 0 or self.max_random_loss_rate > 1:
            raise ValueError("random loss rates must lie in (0, 1]")
        if self.min_random_loss_rate > self.max_random_loss_rate:
            raise ValueError("min_random_loss_rate exceeds max_random_loss_rate")
        if not self.random_loss_rate_buckets:
            raise ValueError("random_loss_rate_buckets must not be empty")
        for low, high, weight in self.random_loss_rate_buckets:
            if not 0.0 < low <= high <= 1.0:
                raise ValueError(f"invalid loss-rate bucket ({low}, {high})")
            if weight < 0:
                raise ValueError("bucket weights must be non-negative")


class FailureGenerator:
    """Draws random :class:`FailureScenario` objects for evaluation runs."""

    def __init__(
        self,
        topology: Topology,
        rng: np.random.Generator,
        config: Optional[FailureGeneratorConfig] = None,
        link_ids: Optional[Sequence[int]] = None,
    ):
        self._topology = topology
        self._rng = rng
        self._config = config or FailureGeneratorConfig()
        if link_ids is None:
            self._links = [link.link_id for link in topology.switch_links]
        else:
            self._links = sorted(link_ids)
        if not self._links:
            raise ValueError("failure generator needs at least one candidate link")
        self._weights = self._link_weights()

    # ------------------------------------------------------------- internals
    def _link_weights(self) -> np.ndarray:
        config = self._config
        weights = []
        for link_id in self._links:
            link = self._topology.link(link_id)
            weights.append(
                config.tier_pair_weights.get(tuple(link.tier_pair), config.default_tier_weight)
            )
        array = np.asarray(weights, dtype=float)
        return array / array.sum()

    def _draw_mode(self) -> LossMode:
        modes = list(self._config.mode_weights)
        probabilities = np.asarray(
            [self._config.mode_weights[m] for m in modes], dtype=float
        )
        probabilities = probabilities / probabilities.sum()
        return modes[int(self._rng.choice(len(modes), p=probabilities))]

    def _draw_link_failure(self, link_id: int) -> LinkFailure:
        config = self._config
        mode = self._draw_mode()
        loss_rate = 1.0
        match_fraction = 0.25
        if mode is LossMode.RANDOM_PARTIAL:
            buckets = config.random_loss_rate_buckets
            weights = np.asarray([b[2] for b in buckets], dtype=float)
            weights = weights / weights.sum()
            low, high, _ = buckets[int(self._rng.choice(len(buckets), p=weights))]
            loss_rate = float(10 ** self._rng.uniform(np.log10(low), np.log10(high)))
        elif mode is LossMode.DETERMINISTIC_PARTIAL:
            match_fraction = float(
                self._rng.uniform(config.min_match_fraction, config.max_match_fraction)
            )
        return LinkFailure(
            link_id=link_id,
            mode=mode,
            loss_rate=loss_rate,
            match_fraction=match_fraction,
            salt=int(self._rng.integers(0, 2**31 - 1)),
        )

    # ------------------------------------------------------------------- API
    def generate(self, num_failed_links: int = 1) -> FailureScenario:
        """A scenario with exactly ``num_failed_links`` distinct failed links.

        With probability ``switch_failure_probability`` the first failure is a
        whole-switch failure (all of its links, counted as that many failed
        links); remaining failures are individual links drawn by tier weight.
        """
        if num_failed_links < 1:
            raise ValueError("num_failed_links must be >= 1")
        if num_failed_links > len(self._links):
            raise ValueError(
                f"cannot fail {num_failed_links} links; only {len(self._links)} candidates"
            )
        scenario = FailureScenario(description=f"{num_failed_links} failed links")

        switches = [n.name for n in self._topology.switches]
        if (
            switches
            and num_failed_links > 1
            and self._rng.random() < self._config.switch_failure_probability
        ):
            switch = switches[int(self._rng.integers(0, len(switches)))]
            candidate_links = [
                l.link_id
                for l in self._topology.links_of(switch)
                if l.link_id in set(self._links)
            ]
            usable = candidate_links[: num_failed_links]
            if usable:
                scenario = FailureScenario(
                    failed_switches=(switch,),
                    description=f"switch {switch} down plus link failures",
                )
                for link_id in usable:
                    scenario.add(LinkFailure(link_id=link_id, mode=LossMode.FULL))

        while scenario.num_failures < num_failed_links:
            index = int(self._rng.choice(len(self._links), p=self._weights))
            link_id = self._links[index]
            if scenario.failure_on(link_id) is not None:
                continue
            scenario.add(self._draw_link_failure(link_id))
        return scenario

    def generate_single(self) -> FailureScenario:
        """One random failure, the per-minute scenario of the testbed runs (§6.3)."""
        return self.generate(1)


class ChurnSchedule:
    """A deterministic sequence of per-cycle :class:`TopologyDelta` events.

    Models the steady-state churn of a large data center: between two
    controller cycles a handful of links (occasionally a switch or a server)
    go down while some previously failed elements recover.  Each delta in the
    schedule describes exactly one cycle's worth of churn, ready to be fed to
    ``Watchdog.apply_delta`` before ``Controller.run_incremental_cycle``
    consumes it.

    The schedule is a pure function of the generator ``rng``, so benchmarks
    and the incremental-vs-cold differential tests can replay identical churn
    across runs.
    """

    def __init__(self, deltas: Sequence[TopologyDelta]):
        self._deltas: Tuple[TopologyDelta, ...] = tuple(deltas)

    def __len__(self) -> int:
        return len(self._deltas)

    def __iter__(self) -> Iterator[TopologyDelta]:
        return iter(self._deltas)

    def __getitem__(self, index: int) -> TopologyDelta:
        return self._deltas[index]

    @property
    def deltas(self) -> Tuple[TopologyDelta, ...]:
        return self._deltas

    @property
    def total_churn(self) -> int:
        return sum(delta.churn for delta in self._deltas)

    @property
    def max_churn(self) -> int:
        return max((delta.churn for delta in self._deltas), default=0)

    # ------------------------------------------------------------- generation
    @classmethod
    def generate(
        cls,
        topology: Topology,
        rng: np.random.Generator,
        num_cycles: int,
        mean_events_per_cycle: float = 2.0,
        recovery_probability: float = 0.4,
        switch_probability: float = 0.05,
        server_probability: float = 0.1,
        max_failed_links: Optional[int] = None,
    ) -> "ChurnSchedule":
        """Draw a churn schedule over *num_cycles* controller cycles.

        Parameters
        ----------
        mean_events_per_cycle:
            Poisson mean of churn events per cycle (paper setting: "a
            handful" -- keep this small relative to the fabric size).
        recovery_probability:
            Per-event probability that the event is a recovery of a currently
            failed element rather than a new failure (given one exists).
        switch_probability / server_probability:
            Per-event probability that the event hits a whole switch / a
            server instead of an individual link.
        max_failed_links:
            Optional cap on concurrently failed links; once reached, link
            events become recoveries.
        """
        if num_cycles < 0:
            raise ValueError("num_cycles must be non-negative")
        if mean_events_per_cycle < 0:
            raise ValueError("mean_events_per_cycle must be non-negative")
        link_ids = [link.link_id for link in topology.switch_links]
        switch_names = [node.name for node in topology.switches]
        server_names = [node.name for node in topology.servers]

        failed_links: set = set()
        failed_switches: set = set()
        unhealthy_servers: set = set()

        def pick(candidates: List) -> object:
            return candidates[int(rng.integers(0, len(candidates)))]

        def snapshot() -> HealthSnapshot:
            return HealthSnapshot(
                failed_link_ids=frozenset(failed_links),
                failed_switches=frozenset(failed_switches),
                unhealthy_servers=frozenset(unhealthy_servers),
            )

        deltas: List[TopologyDelta] = []
        for _ in range(num_cycles):
            before = snapshot()
            for _ in range(int(rng.poisson(mean_events_per_cycle))):
                kind = rng.random()
                if server_names and kind < server_probability:
                    down, pool = unhealthy_servers, server_names
                elif switch_names and kind < server_probability + switch_probability:
                    down, pool = failed_switches, switch_names
                else:
                    down, pool = failed_links, link_ids
                at_cap = (
                    down is failed_links
                    and max_failed_links is not None
                    and len(failed_links) >= max_failed_links
                )
                recover = down and (at_cap or rng.random() < recovery_probability)
                if recover:
                    down.discard(pick(sorted(down)))
                else:
                    healthy = [c for c in pool if c not in down]
                    if healthy:
                        down.add(pick(healthy))
            deltas.append(TopologyDelta.between(before, snapshot()))
        return cls(deltas)
