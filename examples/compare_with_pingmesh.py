"""deTector vs Pingmesh(+Netbouncer) vs NetNORAD(+fbtracert) on one failure distribution.

A miniature version of the Fig. 5 comparison: all three systems monitor the
same Fattree(4) fabric while single random failures are injected, and the
example prints accuracy, false positives, probe cost and mean
time-to-localization for each.  Every system draws its failures from the same
distribution on its own seed-7 generator, which also feeds its probes, so the
failure sequences differ between systems.  All three go through the
experiments' trial loop (:mod:`repro.experiments.protocol`).

Run with::

    python examples/compare_with_pingmesh.py
"""

from __future__ import annotations

import numpy as np

from repro import build_fattree
from repro.baselines import BaselineConfig, NetNORADSystem, PingmeshSystem
from repro.experiments.protocol import Baseline, Detector, draw, evaluate
from repro.monitor import ControllerConfig, DetectorSystem
from repro.simulation import FailureGenerator


def main() -> None:
    topology = build_fattree(4)
    trials = 10
    seed = 7

    # deTector.
    rng = np.random.default_rng(seed)
    detector = DetectorSystem(
        topology, rng, ControllerConfig(alpha=3, beta=1, probes_per_second=10)
    )
    detector.run_controller_cycle()
    (summary,) = evaluate([Detector(detector)], draw(FailureGenerator(topology, rng), 1, trials))
    results = {"deTector": (summary, 30.0)}

    # Baselines on the same failure distribution.
    for name, factory in (
        ("Pingmesh+Netbouncer", PingmeshSystem),
        ("NetNORAD+fbtracert", NetNORADSystem),
    ):
        rng = np.random.default_rng(seed)
        baseline = Baseline(factory(topology, rng, BaselineConfig(probes_per_pair=30)))
        (summary,) = evaluate([baseline], draw(FailureGenerator(topology, rng), 1, trials))
        results[name] = (summary, float(np.mean(baseline.delays)))

    print(f"{'system':24s} {'accuracy':>9s} {'false pos':>10s} {'probes/window':>14s} {'localized in':>13s}")
    for name, (summary, delay) in results.items():
        metrics = summary.percentages()
        print(
            f"{name:24s} {metrics['accuracy_pct']:7.0f}% {metrics['false_positive_pct']:8.0f}% "
            f"{np.mean(summary.probes):14.0f} {delay:11.0f} s"
        )
    print(
        "\ndeTector localizes from its detection probes alone; the baselines need an extra "
        "localization round, which costs them both probes and ~30 seconds."
    )


if __name__ == "__main__":
    main()
