"""§5.3 claim -- PLL vs. Tomo, SCORE and OMP on the same probe matrix.

The paper reports (details in its technical report) that, given the same probe
matrix, PLL achieves ~2% higher accuracy, ~2% lower false positives and runs
an order of magnitude faster than the other localization algorithms.  This
harness reproduces the comparison on a scaled-down Fattree with the simulated
failure mix.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core import PMCOptions, construct_probe_matrix
from ..localization import OMPLocalizer, PLLLocalizer, ScoreLocalizer, TomoLocalizer
from ..routing import RoutingMatrix, enumerate_candidate_paths
from ..simulation import FailureGenerator, SeededStreams
from ..topology import build_fattree
from .common import ExperimentTable
from .protocol import MatrixObserver, StaticLocalizer, add_row, draw, evaluate

__all__ = ["run", "paper_reference_notes", "main"]


def run(
    radix: int = 6,
    alpha: int = 3,
    beta: int = 1,
    trials: int = 20,
    failures_per_trial: int = 2,
    probes_per_path: int = 120,
    seed: int = 553,
) -> ExperimentTable:
    """Run all four localizers on identical observations and compare them."""
    topology = build_fattree(radix)
    paths = enumerate_candidate_paths(topology, ordered=False)
    routing_matrix = RoutingMatrix(topology, paths)
    probe_matrix = construct_probe_matrix(
        routing_matrix, PMCOptions(alpha=alpha, beta=beta)
    ).probe_matrix

    rng = SeededStreams(seed).generator("scenarios")
    generator = FailureGenerator(topology, rng)
    # One observer: every localizer reads the same observations per scenario.
    observer = MatrixObserver(topology, probe_matrix, rng, probes_per_path)
    systems = [
        StaticLocalizer(localizer, observer)
        for localizer in (PLLLocalizer(), TomoLocalizer(), ScoreLocalizer(), OMPLocalizer())
    ]
    summaries = evaluate(systems, draw(generator, failures_per_trial, trials))

    table = ExperimentTable(
        title=(
            f"PLL vs baselines (measured, Fattree({radix}), alpha={alpha}, beta={beta}, "
            f"{failures_per_trial} failures/trial)"
        ),
        columns=["algorithm", "accuracy_pct", "false_positive_pct", "mean_runtime_ms"],
    )
    # Wall-clock column: excluded from the deterministic view so sweeps stay
    # byte-comparable across machines and jobs counts.
    table.metadata["informational_columns"] = ["mean_runtime_ms"]
    for system, summary in zip(systems, summaries):
        add_row(
            table,
            summary,
            algorithm=system.localizer.name,
            mean_runtime_ms=1000.0 * float(np.mean(system.runtimes)),
        )
    table.add_note(
        "paper claim: same probe matrix -> PLL ~2% more accurate, ~2% fewer false positives, and an "
        "order of magnitude faster (sub-second on an 82,944-link DCN)."
    )
    return table


def paper_reference_notes() -> List[str]:
    return [
        "Given the same probe matrix, PLL achieves ~2% higher accuracy and ~2% lower false positives "
        "than Tomo / SCORE / OMP, and is about an order of magnitude faster.",
    ]


def main() -> None:  # pragma: no cover - CLI entry point
    for note in paper_reference_notes():
        print(f"paper: {note}")
    print()
    run().print()


if __name__ == "__main__":  # pragma: no cover
    main()
