"""Figure 4 -- sensitivity to the probe sending frequency.

Four panels on the Fattree(4) testbed:

* (a) PLL accuracy and false-positive ratio vs. probes/second per pinger,
* (b) per-pinger CPU, memory and bandwidth overhead vs. probes/second,
* (c) mean RTT experienced by background workload traffic vs. probes/second,
* (d) RTT jitter of the workload vs. probes/second.

The reproduced claims: 10-15 probes/second already gives > 95% accuracy with a
< 3% false-positive ratio at ~100 Kbps / ~0.4% CPU / ~13 MB per pinger, and
probing leaves workload RTT and jitter essentially untouched until the
frequency gets very large.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..monitor import ControllerConfig, DetectorSystem
from ..routing import enumerate_candidate_paths
from ..simulation import (
    FailureGenerator,
    LatencyModel,
    PingerResourceModel,
    SeededStreams,
    WorkloadConfig,
    WorkloadModel,
)
from ..topology import build_fattree
from .common import ExperimentTable
from .protocol import Detector, add_row, draw, evaluate

__all__ = ["run", "paper_reference_notes", "main", "DEFAULT_FREQUENCIES"]

DEFAULT_FREQUENCIES: Tuple[float, ...] = (1, 2, 5, 10, 15, 20, 30, 50)


def run(
    radix: int = 4,
    frequencies: Sequence[float] = DEFAULT_FREQUENCIES,
    trials_per_frequency: int = 12,
    seed: int = 44,
    alpha: int = 3,
    beta: int = 1,
) -> ExperimentTable:
    """Sweep the probing frequency and measure all four panels of Fig. 4."""
    topology = build_fattree(radix)
    table = ExperimentTable(
        title=f"Figure 4 (measured, Fattree({radix})) -- probing-frequency sensitivity",
        columns=[
            "probes_per_second",
            "accuracy_pct",
            "false_positive_pct",
            "cpu_pct",
            "memory_mb",
            "bandwidth_kbps",
            "workload_rtt_us",
            "workload_jitter_us",
        ],
    )

    resource_model = PingerResourceModel()
    latency_model = LatencyModel()
    # One --seed, independent named streams (no ad-hoc seed+k derivations).
    # Every frequency restarts the "probing" stream, but that one stream
    # feeds both the failure draws and the probe draws, so the frequencies
    # share only their first scenario and face different failures after it.
    streams = SeededStreams(seed)
    workload_rng = streams.generator("workload")
    workload_paths = enumerate_candidate_paths(topology, ordered=False)
    workload = WorkloadModel(topology, workload_paths, workload_rng, WorkloadConfig())
    base_utilization = workload.link_utilization()

    for frequency in frequencies:
        rng = streams.generator("probing")
        system = DetectorSystem(
            topology,
            rng,
            ControllerConfig(alpha=alpha, beta=beta, probes_per_second=frequency),
        )
        cycle = system.run_controller_cycle()
        (summary,) = evaluate(
            [Detector(system)], draw(FailureGenerator(topology, rng), 1, trials_per_frequency)
        )

        # Panel (b): per-pinger overhead at this frequency.
        paths_per_pinger = int(
            np.mean([pl.num_paths for pl in cycle.pinglists.values()]) if cycle.pinglists else 0
        )
        usage = resource_model.usage(frequency, num_paths=paths_per_pinger)

        # Panels (c)/(d): workload RTT and jitter with probing load added.
        probe_matrix = cycle.probe_matrix
        num_pingers = max(cycle.num_pingers, 1)
        per_path_rate = (
            frequency * num_pingers / probe_matrix.num_paths if probe_matrix.num_paths else 0.0
        )
        utilization = latency_model.add_probe_load(
            base_utilization, probe_matrix.paths, per_path_rate
        )
        sample_paths = workload_paths[:: max(1, len(workload_paths) // 50)]
        rtt = latency_model.workload_rtt(
            sample_paths, utilization, streams.generator("workload-rtt")
        )

        add_row(
            table,
            summary,
            probes_per_second=frequency,
            cpu_pct=usage.cpu_percent,
            memory_mb=usage.memory_mb,
            bandwidth_kbps=usage.bandwidth_kbps,
            workload_rtt_us=rtt.mean_rtt_us,
            workload_jitter_us=rtt.jitter_us,
        )

    table.add_note(
        "paper operating point: 10-15 probes/s -> >95% accuracy, <3% false positives, ~100 Kbps, "
        "~0.4% CPU, ~13 MB per pinger, with no visible RTT/jitter impact on the workload."
    )
    table.add_note(
        "CPU/memory columns come from the calibrated per-pinger resource model "
        "(repro.simulation.resources); bandwidth is exact arithmetic."
    )
    return table


def paper_reference_notes() -> List[str]:
    """The quantitative anchors the paper gives for Fig. 4 (it is a plot, not a table)."""
    return [
        "Fig. 4(a): accuracy rises and false positives fall with frequency; >95% accuracy and <3% FP at 10-15 pps.",
        "Fig. 4(b): ~100 Kbps bandwidth, ~0.4% CPU, ~13 MB memory per pinger at 10 pps, growing linearly.",
        "Fig. 4(c)/(d): workload RTT and jitter stay flat as probing frequency grows (only slight fluctuation).",
    ]


def main() -> None:  # pragma: no cover - CLI entry point
    for note in paper_reference_notes():
        print(f"paper: {note}")
    print()
    run().print()


if __name__ == "__main__":  # pragma: no cover
    main()
