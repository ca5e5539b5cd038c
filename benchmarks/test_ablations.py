"""Ablation benches for the design choices called out in DESIGN.md.

* PMC: lazy (CELF) score updates vs full re-scoring; decomposition on/off;
  symmetry on/off -- all must keep the constructed matrix valid while the
  optimised variants stay competitive on time.
* PLL: the hit-ratio threshold (0.6 default) -- too strict misses blackholes,
  too lax admits false positives; 0.6 should sit at or near the best accuracy.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.contracts import informational_wall
from repro.core import PMCOptions, check_coverage, check_identifiability, construct_probe_matrix, pmc_for_topology
from repro.localization import (
    PLLConfig,
    PLLLocalizer,
    aggregate_metrics,
    evaluate_localization,
    preprocess_observations,
)
from repro.simulation import FailureGenerator, LossMode, ProbeConfig, ProbeSimulator
from repro.topology import build_fattree


class TestPMCAblations:
    def test_lazy_update_cuts_evaluations(self, fattree6_routing):
        """Deterministic sibling of the wall-clock ablation: CELF never
        rescores more candidates than the eager greedy (counter-gated)."""
        results = {}
        for label, lazy in (("eager", False), ("lazy", True)):
            options = PMCOptions(alpha=2, beta=1, use_decomposition=True, use_lazy_update=lazy)
            results[label] = construct_probe_matrix(fattree6_routing, options).stats
        assert results["lazy"].greedy_evaluations <= results["eager"].greedy_evaluations
        # On Fattree(6) the saving is large, not marginal (paper §4.3).
        assert results["lazy"].greedy_evaluations * 5 < results["eager"].greedy_evaluations
        # The eager greedy never skips; lazy may or may not, but both report
        # the full counter profile.
        assert results["eager"].lazy_skips == 0
        assert results["lazy"].lazy_skips >= 0

    def test_decomposition_cuts_evaluations(self, fattree6_routing):
        """Decomposition solves per-component heaps, so the eager greedy
        rescored strictly fewer candidates per iteration (counter-gated)."""
        evals = {}
        for label, decompose in (("flat", False), ("decomposed", True)):
            options = PMCOptions(
                alpha=2, beta=1, use_decomposition=decompose, use_lazy_update=False
            )
            evals[label] = construct_probe_matrix(fattree6_routing, options).stats.greedy_evaluations
        assert evals["decomposed"] <= evals["flat"]

    @pytest.mark.wallclock
    def test_lazy_update_not_slower_than_eager(self, benchmark, fattree8_routing, paired_wall_ratio):
        # Fattree(8), where lazy takes ~0.4x eager's wall; on Fattree(6) the
        # gap is small enough for single rounds to flip the order.
        def solve(lazy):
            options = PMCOptions(alpha=2, beta=1, use_decomposition=True, use_lazy_update=lazy)
            return lambda: construct_probe_matrix(fattree8_routing, options)

        for lazy in (False, True):
            assert check_coverage(solve(lazy)().probe_matrix, 2)
        ratio = benchmark.pedantic(
            paired_wall_ratio, args=(solve(True), solve(False), 12), rounds=1, iterations=1
        )
        assert ratio <= 1.0

    @pytest.mark.wallclock
    @informational_wall("Ablation wall timings are informational comparisons, never determinism gates")
    def test_decomposition_benefits_fattree(self, benchmark, fattree6_routing):
        def run_both():
            timings = {}
            for label, decompose in (("flat", False), ("decomposed", True)):
                options = PMCOptions(
                    alpha=2, beta=1, use_decomposition=decompose, use_lazy_update=False
                )
                start = time.perf_counter()
                construct_probe_matrix(fattree6_routing, options)
                timings[label] = time.perf_counter() - start
            return timings

        timings = benchmark.pedantic(run_both, rounds=2, iterations=1)
        # Fattree splits into k/2 independent subproblems, so decomposition
        # must not hurt and normally helps the un-optimised greedy a lot.
        assert timings["decomposed"] <= timings["flat"] * 1.1

    def test_symmetry_keeps_selection_size(self, benchmark, fattree6):
        def run_both():
            sizes = {}
            for label, symmetry in (("plain", False), ("symmetry", True)):
                result = pmc_for_topology(fattree6, alpha=2, beta=1, use_symmetry=symmetry)
                assert check_coverage(result.probe_matrix, 2)
                assert check_identifiability(result.probe_matrix, 1)
                sizes[label] = result.num_paths
            return sizes

        sizes = benchmark.pedantic(run_both, rounds=1, iterations=1)
        # §4.4: the number of selected paths with symmetry reduction is very
        # similar to that without -- here equal, a replay selects what a solve would.
        assert sizes["symmetry"] == sizes["plain"]


class TestPLLThresholdAblation:
    @pytest.fixture(scope="class")
    def scenario_bundle(self):
        topology = build_fattree(4)
        probe_matrix = pmc_for_topology(topology, alpha=3, beta=1).probe_matrix
        rng = np.random.default_rng(31)
        generator = FailureGenerator(topology, rng)
        bundles = []
        for _ in range(15):
            scenario = generator.generate_single()
            simulator = ProbeSimulator(topology, scenario, rng)
            observations = simulator.observe_probe_matrix(
                probe_matrix, ProbeConfig(probes_per_path=120)
            )
            cleaned = preprocess_observations(probe_matrix, observations)
            bundles.append((scenario, cleaned.observations))
        return topology, probe_matrix, bundles

    def test_default_threshold_is_near_optimal(self, benchmark, scenario_bundle):
        topology, probe_matrix, bundles = scenario_bundle

        def sweep():
            results = {}
            for threshold in (0.2, 0.6, 0.95):
                metrics = []
                localizer = PLLLocalizer(PLLConfig(hit_ratio_threshold=threshold))
                for scenario, observations in bundles:
                    verdict = localizer.localize(probe_matrix, observations)
                    metrics.append(
                        evaluate_localization(
                            scenario.bad_link_ids, verdict.suspected_links, probe_matrix.link_ids
                        )
                    )
                aggregated = aggregate_metrics(metrics)
                results[threshold] = (
                    aggregated["accuracy"],
                    aggregated["false_positive_ratio"],
                )
            return results

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        default_accuracy, default_fp = results[0.6]
        best_accuracy = max(acc for acc, _ in results.values())
        # The default threshold sits close to the best accuracy of the sweep
        # while keeping false positives low; the paper picks 0.6 on the same
        # grounds (the exact optimum depends on the failure mix).
        assert default_accuracy >= best_accuracy - 0.1
        assert default_fp <= 0.1
