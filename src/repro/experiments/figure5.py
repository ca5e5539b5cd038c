"""Figure 5 -- accuracy and false positives vs. probing budget, three systems.

One random failure per window on the Fattree(4) testbed; deTector, Pingmesh
(+Netbouncer) and NetNORAD (+fbtracert) are swept over their probing budget
and the per-minute probe count is recorded next to accuracy and false-positive
ratio.  The reproduced claims:

* deTector reaches high accuracy with several times fewer probes (the paper
  quotes 7,200 vs 20,700 vs 35,100 probes/minute for 98% accuracy),
* at an equal probe budget deTector's accuracy is higher and its false
  positives no worse, and
* deTector localizes ~30 seconds earlier because it needs no post-alarm
  probing round.

The last claim is accounting, not a measurement: ``time_to_localization_s``
is the literal ``30.0`` (one window) for deTector, and for a baseline the
mean of ``window_seconds`` plus, in every window where it suspected
anything, ``localization_round_seconds``.  The ~30 s lead is therefore an
identity of those two constants.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..baselines import BaselineConfig, NetNORADSystem, PingmeshSystem
from ..monitor import ControllerConfig, DetectorSystem
from ..simulation import FailureGenerator, SeededStreams
from ..topology import build_fattree
from .common import ExperimentTable
from .protocol import Baseline, Detector, add_row, draw, evaluate

__all__ = ["run", "paper_reference", "main"]

DEFAULT_DETECTOR_FREQUENCIES: Tuple[float, ...] = (1, 2, 5, 10, 20)
DEFAULT_BASELINE_PROBES_PER_PAIR: Tuple[int, ...] = (2, 5, 10, 20, 40)


def run(
    radix: int = 4,
    trials: int = 12,
    detector_frequencies: Sequence[float] = DEFAULT_DETECTOR_FREQUENCIES,
    baseline_probes_per_pair: Sequence[int] = DEFAULT_BASELINE_PROBES_PER_PAIR,
    seed: int = 55,
) -> ExperimentTable:
    """Sweep each system's probing budget with a single random failure per window."""
    topology = build_fattree(radix)
    table = ExperimentTable(
        title=f"Figure 5 (measured, Fattree({radix})) -- single failure, probes vs accuracy",
        columns=[
            "system",
            "budget_parameter",
            "probes_per_minute",
            "accuracy_pct",
            "false_positive_pct",
            "time_to_localization_s",
        ],
    )

    # One --seed, independent named streams (no ad-hoc seed reuse).  Each
    # budget level restarts its system's stream, but that one stream feeds
    # both the failure draws and the probe draws, so the levels share only
    # their first scenario; deTector and the baselines share none.
    streams = SeededStreams(seed)

    # ----------------------------------------------------------- deTector
    for frequency in detector_frequencies:
        rng = streams.generator("detector")
        system = DetectorSystem(
            topology, rng, ControllerConfig(alpha=3, beta=1, probes_per_second=frequency)
        )
        system.run_controller_cycle()
        (summary,) = evaluate([Detector(system)], draw(FailureGenerator(topology, rng), 1, trials))
        add_row(
            table,
            summary,
            system="deTector",
            budget_parameter=f"{frequency} pps/pinger",
            time_to_localization_s=30.0,
        )

    # ----------------------------------------------------------- baselines
    for name, factory in (
        ("Pingmesh+Netbouncer", PingmeshSystem),
        ("NetNORAD+fbtracert", NetNORADSystem),
    ):
        for probes_per_pair in baseline_probes_per_pair:
            rng = streams.generator("baseline")
            baseline = Baseline(
                factory(topology, rng, BaselineConfig(probes_per_pair=probes_per_pair))
            )
            (summary,) = evaluate([baseline], draw(FailureGenerator(topology, rng), 1, trials))
            add_row(
                table,
                summary,
                system=name,
                budget_parameter=f"{probes_per_pair} probes/pair",
                time_to_localization_s=float(np.mean(baseline.delays)),
            )

    table.add_note(
        "probes_per_minute counts detection plus localization probes, doubling the 30-second window "
        "totals, matching the paper's accounting."
    )
    table.add_note(
        "reproduced shape: deTector reaches its accuracy plateau with several times fewer probes "
        "than the two baselines."
    )
    table.add_note(
        "time_to_localization_s is accounting, not measured: 30.0 (one window) for deTector; for a "
        "baseline, the window plus its localization round in every window where it suspected "
        "anything, averaged.  The ~30 s lead is an identity of those constants."
    )
    return table


def paper_reference() -> ExperimentTable:
    """The quantitative anchors the paper quotes for Fig. 5."""
    table = ExperimentTable(
        title="Figure 5 (paper) -- probes/minute needed for 98% accuracy and ~1% false positives",
        columns=["system", "probes_per_minute", "time_advantage"],
    )
    table.add_row(system="deTector", probes_per_minute=7200, time_advantage="localizes ~30 s earlier")
    table.add_row(system="NetNORAD+fbtracert", probes_per_minute=20700, time_advantage="-")
    table.add_row(system="Pingmesh+Netbouncer", probes_per_minute=35100, time_advantage="-")
    table.add_note("i.e. deTector needs ~1.9x fewer probes than NetNORAD and ~3.9x fewer than Pingmesh.")
    return table


def main() -> None:  # pragma: no cover - CLI entry point
    paper_reference().print()
    run().print()


if __name__ == "__main__":  # pragma: no cover
    main()
