"""The full monitoring pipeline: controller, pinglists, pingers, diagnoser, alerts.

Runs several 30-second windows of the complete deTector system against a
sequence of failures covering all three loss classes of §6.2 (full loss,
deterministic partial loss / blackhole, random partial loss) plus a switch
failure, printing the alerts an operator would receive.

Run with::

    python examples/monitoring_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import build_fattree
from repro.monitor import ControllerConfig, DetectorSystem
from repro.simulation import FailureScenario, LossMode


def main() -> None:
    rng = np.random.default_rng(2024)
    topology = build_fattree(4)

    system = DetectorSystem(
        topology,
        rng,
        ControllerConfig(alpha=3, beta=1, pingers_per_tor=2, probes_per_second=10),
    )
    cycle = system.run_controller_cycle()
    print(
        f"controller cycle {cycle.version}: probe matrix with {cycle.probe_matrix.num_paths} paths, "
        f"{cycle.num_pingers} pingers selected"
    )
    sample_pinger, sample_pinglist = next(iter(cycle.pinglists.items()))
    print(f"example pinglist for {sample_pinger}: {sample_pinglist.num_paths} paths")
    print(f"pinglist XML preview: {sample_pinglist.to_xml()[:160]}...\n")

    links = topology.switch_links
    scenarios = [
        FailureScenario.single_link(links[5].link_id, mode=LossMode.FULL),
        FailureScenario.single_link(
            links[20].link_id, mode=LossMode.DETERMINISTIC_PARTIAL, match_fraction=0.3
        ),
        FailureScenario.single_link(
            links[11].link_id, mode=LossMode.RANDOM_PARTIAL, loss_rate=0.05
        ),
        FailureScenario.switch_down(topology, topology.tor_switches[3].name),
        FailureScenario(description="healthy network"),
    ]

    for window, scenario in enumerate(scenarios):
        outcome = system.run_window(scenario)
        print(f"window {window}: scenario = {scenario.description}")
        print(
            f"  probes sent: {outcome.probes_sent}, lossy paths: "
            f"{len(outcome.diagnosis.lossy_paths)}"
        )
        if outcome.diagnosis.alerts:
            for alert in outcome.diagnosis.alerts:
                print(f"  ALERT: {alert.describe()}")
        else:
            print("  no alerts")
        if scenario.bad_link_ids:
            print(
                f"  ground truth: accuracy={outcome.metrics.accuracy:.0%}, "
                f"false positives={outcome.metrics.false_positive_ratio:.0%}"
            )
        print()


if __name__ == "__main__":
    main()
