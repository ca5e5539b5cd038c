"""§5.3 claim -- PLL vs Tomo / SCORE / OMP on identical observations.

The reproduced claims: given the same probe matrix, PLL's accuracy is at least
as high as Tomo's and SCORE's (the paper quotes ~2% higher), its false
positives are no worse, and it is substantially faster than OMP (the paper
quotes an order of magnitude over the baselines at DCN scale).
"""

from __future__ import annotations

import pytest

from repro.core import PMCOptions, construct_probe_matrix
from repro.experiments import pll_comparison
from repro.experiments.protocol import MatrixObserver, draw
from repro.localization import OMPLocalizer, PLLLocalizer
from repro.simulation import FailureGenerator, SeededStreams


@pytest.fixture(scope="module")
def comparison_table():
    return pll_comparison.run(
        radix=6, alpha=3, beta=1, trials=15, failures_per_trial=2, probes_per_path=120, seed=553
    )


def _row(table, algorithm):
    return next(row for row in table.rows if row["algorithm"] == algorithm)


class TestPLLComparison:
    def test_benchmark_small_run(self, benchmark):
        table = benchmark.pedantic(
            pll_comparison.run,
            kwargs=dict(radix=4, trials=5, failures_per_trial=1, probes_per_path=60),
            rounds=1,
            iterations=1,
        )
        assert [row["algorithm"] for row in table.rows] == ["PLL", "Tomo", "SCORE", "OMP"]

    def test_pll_accuracy_leads(self, benchmark, comparison_table):
        rows = benchmark(lambda: comparison_table.rows)
        pll = _row(comparison_table, "PLL")
        assert pll["accuracy_pct"] >= _row(comparison_table, "Tomo")["accuracy_pct"] - 1.0
        assert pll["accuracy_pct"] >= _row(comparison_table, "SCORE")["accuracy_pct"] - 1.0
        assert pll["accuracy_pct"] >= 85.0

    def test_pll_false_positives_low(self, benchmark, comparison_table):
        rows = benchmark(lambda: comparison_table.rows)
        pll = _row(comparison_table, "PLL")
        omp = _row(comparison_table, "OMP")
        assert pll["false_positive_pct"] <= 6.0
        assert pll["false_positive_pct"] <= omp["false_positive_pct"] + 1.0

    def test_pll_faster_than_omp(self, benchmark, fattree6, fattree6_routing, paired_wall_ratio):
        # The comparison's own observations: its matrix, seed and scenarios.
        probe_matrix = construct_probe_matrix(
            fattree6_routing, PMCOptions(alpha=3, beta=1)
        ).probe_matrix
        rng = SeededStreams(553).generator("scenarios")
        observer = MatrixObserver(fattree6, probe_matrix, rng, probes_per_path=120)
        observations = [
            observer.observe(scenario)[0]
            for scenario in draw(FailureGenerator(fattree6, rng), 2, 15)
        ]

        def localize_all(localizer):
            return lambda: [localizer.localize(probe_matrix, each) for each in observations]

        ratio = benchmark.pedantic(
            paired_wall_ratio,
            args=(localize_all(PLLLocalizer()), localize_all(OMPLocalizer()), 10),
            rounds=1,
            iterations=1,
        )
        assert ratio <= 1.0
