"""Table 4 -- localization accuracy vs. probe-matrix coverage/identifiability.

The paper simulates an 18-radix Fattree, constructs probe matrices for
(alpha, beta) in {(1,0), (2,0), (3,0), (1,1), (1,2), (1,3)} and measures PLL's
accuracy when 1, 5, 10, 20 or 50 links fail concurrently.  The take-aways to
reproduce:

* identifiability buys far more accuracy per selected path than coverage
  ((1,1) beats (3,0) with fewer paths),
* 1-identifiability already yields > 90% accuracy, and
* raising beta beyond 1 gives diminishing returns.

The harness defaults to a Fattree(6) (the full 18-radix run is available by
passing ``radix=18`` and patience); failure counts above the scaled fabric's
link count are skipped.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core import PMCOptions, construct_probe_matrix
from ..localization import PLLLocalizer
from ..routing import RoutingMatrix, enumerate_candidate_paths
from ..simulation import FailureGenerator, SeededStreams
from ..topology import build_fattree
from .common import ExperimentTable
from .protocol import MatrixObserver, StaticLocalizer, draw, evaluate

__all__ = ["run", "paper_reference", "main", "DEFAULT_ALPHA_BETA", "DEFAULT_FAILURE_COUNTS"]

DEFAULT_ALPHA_BETA: Tuple[Tuple[int, int], ...] = ((1, 0), (2, 0), (3, 0), (1, 1), (1, 2))
DEFAULT_FAILURE_COUNTS: Tuple[int, ...] = (1, 5, 10, 20)


def run(
    radix: int = 6,
    alpha_beta: Sequence[Tuple[int, int]] = DEFAULT_ALPHA_BETA,
    failure_counts: Sequence[int] = DEFAULT_FAILURE_COUNTS,
    trials: int = 8,
    probes_per_path: int = 100,
    seed: int = 2017,
) -> ExperimentTable:
    """Accuracy of PLL per (alpha, beta) probe matrix and per concurrent-failure count."""
    topology = build_fattree(radix)
    paths = enumerate_candidate_paths(topology, ordered=False)
    routing_matrix = RoutingMatrix(topology, paths)

    columns = ["alpha_beta", "paths"] + [f"acc_{count}_failures" for count in failure_counts]
    table = ExperimentTable(
        title=(
            f"Table 4 (measured, Fattree({radix})) -- PLL accuracy (%) per probe matrix "
            "and number of concurrently failed links"
        ),
        columns=columns,
    )

    # One --seed, independent named streams.  Every (alpha, beta) setting
    # restarts the scenario stream, but that one stream feeds both the
    # failure draws and the probe draws, so only each setting's first
    # scenario is shared: the matrices face different failures after it.
    streams = SeededStreams(seed)
    localizer = PLLLocalizer()
    for alpha, beta in alpha_beta:
        result = construct_probe_matrix(routing_matrix, PMCOptions(alpha=alpha, beta=beta))
        row: Dict[str, object] = {
            "alpha_beta": f"({alpha},{beta})",
            "paths": result.num_paths,
        }
        rng = streams.generator("scenarios")
        generator = FailureGenerator(topology, rng)
        pll = StaticLocalizer(
            localizer, MatrixObserver(topology, result.probe_matrix, rng, probes_per_path)
        )
        for count in failure_counts:
            if count > routing_matrix.num_links:
                row[f"acc_{count}_failures"] = None
                continue
            (summary,) = evaluate([pll], draw(generator, count, trials))
            row[f"acc_{count}_failures"] = summary.percentages()["accuracy_pct"]
        table.rows.append(row)

    table.add_note(
        f"scaled from the paper's 18-radix Fattree to Fattree({radix}); {trials} random failure "
        f"scenarios per cell, {probes_per_path} probes per path per window."
    )
    table.add_note(
        "expected trends: accuracy((1,1)) >> accuracy((3,0)) despite fewer paths, and beta > 1 adds little."
    )
    return table


def paper_reference() -> ExperimentTable:
    """Table 4 as printed in the paper (18-radix Fattree)."""
    table = ExperimentTable(
        title="Table 4 (paper, Fattree(18)) -- accuracy (%) per probe matrix and failed-link count",
        columns=["alpha_beta", "paths", "acc_1", "acc_5", "acc_10", "acc_20", "acc_50"],
    )
    rows = [
        ("(1,0)", 729, 30.56, 30.87, 30.30, 30.26, 29.19),
        ("(2,0)", 1485, 58.43, 57.43, 57.08, 56.81, 57.11),
        ("(3,0)", 2187, 68.22, 70.61, 69.89, 70.40, 70.14),
        ("(1,1)", 1269, 94.74, 93.37, 94.21, 93.43, 90.29),
        ("(1,2)", 1512, 99.26, 99.06, 99.02, 98.77, 95.92),
        ("(1,3)", 2349, 99.63, 99.63, 99.67, 99.62, 98.07),
    ]
    for alpha_beta, paths, a1, a5, a10, a20, a50 in rows:
        table.add_row(
            alpha_beta=alpha_beta,
            paths=paths,
            acc_1=a1,
            acc_5=a5,
            acc_10=a10,
            acc_20=a20,
            acc_50=a50,
        )
    return table


def main() -> None:  # pragma: no cover - CLI entry point
    paper_reference().print()
    run().print()


if __name__ == "__main__":  # pragma: no cover
    main()
