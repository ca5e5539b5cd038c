"""Figure 6 -- accuracy and false positives with multiple concurrent failures.

Same three systems as Fig. 5, but the probing budget is fixed (the paper uses
5,850 probes per minute for everyone) and the number of concurrent failures
grows.  The reproduced claim: deTector's accuracy stays high and its false
positives stay low as failures multiply, while both baselines degrade.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..baselines import BaselineConfig, NetNORADSystem, PingmeshSystem
from ..monitor import ControllerConfig, DetectorSystem
from ..simulation import FailureGenerator, SeededStreams
from ..topology import build_fattree
from .common import ExperimentTable
from .protocol import Baseline, Detector, add_row, evaluate

__all__ = ["run", "paper_reference_notes", "main", "DEFAULT_FAILURE_COUNTS"]

DEFAULT_FAILURE_COUNTS: Tuple[int, ...] = (1, 2, 3, 4, 5)


def run(
    radix: int = 4,
    probe_budget_per_minute: int = 5850,
    failure_counts: Sequence[int] = DEFAULT_FAILURE_COUNTS,
    trials: int = 12,
    seed: int = 66,
) -> ExperimentTable:
    """Fix the probe budget and sweep the number of concurrent failures.

    The budget covers *all* probes a system sends -- detection plus any
    post-alarm localization round -- exactly as the paper accounts them.  The
    baselines' detection rate is therefore calibrated down so that their total
    (detection + Netbouncer/fbtracert) probes stay within the budget, which is
    precisely the disadvantage of separating detection from localization.
    """
    topology = build_fattree(radix)
    table = ExperimentTable(
        title=(
            f"Figure 6 (measured, Fattree({radix})) -- multiple failures at a fixed budget of "
            f"~{probe_budget_per_minute} probes/minute"
        ),
        columns=["system", "failed_links", "accuracy_pct", "false_positive_pct", "probes_per_minute"],
    )
    per_window_budget = probe_budget_per_minute / 2.0  # 30-second windows

    # One --seed, independent named streams.  The same failure scenarios are
    # replayed for every system so the comparison is not confounded by
    # different failure draws.
    streams = SeededStreams(seed)
    scenario_rng = streams.generator("scenarios")
    scenario_generator = FailureGenerator(topology, scenario_rng)
    scenarios: Dict[int, List] = {
        count: [scenario_generator.generate(count) for _ in range(trials)]
        for count in failure_counts
    }

    # deTector: translate the budget into a per-pinger sending frequency.
    probe_rng = streams.generator("sizing")
    sizing_system = DetectorSystem(topology, probe_rng, ControllerConfig(alpha=3, beta=1))
    sizing_cycle = sizing_system.run_controller_cycle()
    num_pingers = max(sizing_cycle.num_pingers, 1)
    window_seconds = sizing_cycle.pinglists[next(iter(sizing_cycle.pinglists))].report_interval_seconds
    detector_frequency = max(1.0, per_window_budget / (num_pingers * window_seconds))

    def detector(count: int) -> Detector:
        # One stream per system and count, independent of sweep order.
        system = DetectorSystem(
            topology,
            streams.generator(f"detector/failures={count}"),
            ControllerConfig(
                alpha=3,
                beta=1,
                probes_per_second=detector_frequency,
                loss_confirmation_probes=0,  # exact budget accounting
            ),
        )
        system.run_controller_cycle()
        return Detector(system)

    # Baselines: detection gets 60 % of the window budget, spread over the
    # monitored pairs; the rest is left for the post-alarm localization
    # round, and the hard per-window cap guarantees the system never exceeds
    # the overall budget however many pairs trip -- once it is spent,
    # remaining paths go untraced.
    def baseline(name: str, factory) -> Callable[[int], Baseline]:
        pairs = factory(topology, streams.generator("sizing"), BaselineConfig()).monitored_pairs()
        config = BaselineConfig(
            probes_per_pair=max(1, int(per_window_budget * 0.6 // max(len(pairs), 1))),
            probe_budget_per_window=int(per_window_budget),
        )
        return lambda count: Baseline(
            factory(topology, streams.generator(f"{name}/failures={count}"), config)
        )

    systems = {
        "deTector": detector,
        "Pingmesh+Netbouncer": baseline("Pingmesh+Netbouncer", PingmeshSystem),
        "NetNORAD+fbtracert": baseline("NetNORAD+fbtracert", NetNORADSystem),
    }
    for name, make in systems.items():
        for count in failure_counts:
            (summary,) = evaluate([make(count)], scenarios[count])
            add_row(table, summary, system=name, failed_links=count)

    table.add_note(
        "the budget covers detection plus localization probes for every system; the baselines' "
        "detection rate is calibrated down to make room for their post-alarm round, which is how the "
        "paper accounts probe overhead."
    )
    table.add_note("all systems replay identical failure scenarios per failure count.")
    return table


def paper_reference_notes() -> List[str]:
    """The qualitative anchors for Fig. 6 (a plot in the paper)."""
    return [
        "At a fixed 5,850 probes/minute, deTector keeps much higher accuracy and lower false positives "
        "than Pingmesh and NetNORAD as the number of concurrent failures grows.",
        "deTector also detects and localizes ~30 seconds faster because it needs no extra localization round.",
    ]


def main() -> None:  # pragma: no cover - CLI entry point
    for note in paper_reference_notes():
        print(f"paper: {note}")
    print()
    run().print()


if __name__ == "__main__":  # pragma: no cover
    main()
