"""Tests for the PMC probe-matrix construction algorithm (Alg. 1 + §4.3 speed-ups)."""

from __future__ import annotations

import pytest

from repro.core import (
    PMCOptions,
    check_coverage,
    check_identifiability,
    construct_probe_matrix,
    construct_probe_matrix_masked,
    identifiability_level,
    pmc_for_topology,
)
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_bcube, build_fattree, build_vl2


class TestOptions:
    def test_defaults(self):
        options = PMCOptions()
        assert options.alpha == 1 and options.beta == 1
        assert options.use_decomposition and options.use_lazy_update
        assert options.use_symmetry

    @pytest.mark.parametrize("kwargs", [dict(alpha=-1), dict(beta=-2)])
    def test_negative_targets_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PMCOptions(**kwargs)

    def test_label(self):
        assert "strawman" in PMCOptions(
            use_decomposition=False, use_lazy_update=False, use_symmetry=False
        ).label()
        assert "lazy" in PMCOptions().label()


class TestCorrectnessOnFattree4:
    def test_alpha1_beta1(self, fattree4_routing):
        result = construct_probe_matrix(fattree4_routing, PMCOptions(alpha=1, beta=1))
        assert check_coverage(result.probe_matrix, 1)
        assert check_identifiability(result.probe_matrix, 1)
        assert result.stats.fully_refined
        assert result.stats.coverage_satisfied

    def test_alpha3_beta1(self, fattree4_routing):
        result = construct_probe_matrix(fattree4_routing, PMCOptions(alpha=3, beta=1))
        assert check_coverage(result.probe_matrix, 3)
        assert check_identifiability(result.probe_matrix, 1)

    def test_alpha1_beta0_only_covers(self, fattree4_routing):
        result = construct_probe_matrix(fattree4_routing, PMCOptions(alpha=1, beta=0))
        assert check_coverage(result.probe_matrix, 1)
        # A pure covering matrix is not expected to be identifiable.
        assert result.num_paths < 18

    def test_beta2_impossible_in_fattree4(self, fattree4_routing):
        # §6.3: "it is impossible to achieve 2-identifiability in a 4-ary Fattree".
        result = construct_probe_matrix(fattree4_routing, PMCOptions(alpha=1, beta=2))
        assert not result.stats.fully_refined
        assert not check_identifiability(result.probe_matrix, 2)
        # It must still terminate without selecting every candidate path.
        assert result.num_paths < fattree4_routing.num_paths

    def test_selected_indices_match_matrix(self, fattree4_routing):
        result = construct_probe_matrix(fattree4_routing, PMCOptions(alpha=1, beta=1))
        assert len(result.selected_indices) == result.num_paths
        for position, index in enumerate(result.selected_indices):
            assert result.probe_matrix.links_on(position) == fattree4_routing.links_on(index)

    def test_no_duplicate_selection(self, fattree4_routing):
        result = construct_probe_matrix(fattree4_routing, PMCOptions(alpha=3, beta=1))
        assert len(set(result.selected_indices)) == len(result.selected_indices)

    def test_selection_is_frugal(self, fattree4_routing):
        # The paper proves a k^3/5 lower bound for (1,1); PMC should stay within
        # a small constant factor of it on Fattree(4) (12.8 -> at most ~2x).
        result = construct_probe_matrix(fattree4_routing, PMCOptions(alpha=1, beta=1))
        assert result.num_paths <= 26

    def test_max_paths_cap(self, fattree4_routing):
        result = construct_probe_matrix(
            fattree4_routing, PMCOptions(alpha=3, beta=1, max_paths=5)
        )
        assert result.num_paths <= 5


class TestOptimizationEquivalence:
    """All optimisation variants must produce valid matrices of similar size."""

    @pytest.mark.parametrize(
        "flags",
        [
            dict(use_decomposition=False, use_lazy_update=False, use_symmetry=False),
            dict(use_decomposition=True, use_lazy_update=False, use_symmetry=False),
            dict(use_decomposition=True, use_lazy_update=True, use_symmetry=False),
            dict(use_decomposition=True, use_lazy_update=True, use_symmetry=True),
        ],
        ids=["strawman", "decomposition", "lazy", "symmetry"],
    )
    def test_every_variant_is_valid(self, fattree4_routing, flags):
        options = PMCOptions(alpha=2, beta=1, **flags)
        result = construct_probe_matrix(fattree4_routing, options)
        assert check_coverage(result.probe_matrix, 2)
        assert check_identifiability(result.probe_matrix, 1)

    def test_variant_sizes_are_comparable(self, fattree4_routing):
        sizes = {}
        for name, flags in (
            ("strawman", dict(use_decomposition=False, use_lazy_update=False)),
            ("lazy", dict(use_decomposition=True, use_lazy_update=True, use_symmetry=False)),
            ("symmetry", dict(use_decomposition=True, use_lazy_update=True, use_symmetry=True)),
        ):
            options = PMCOptions(alpha=1, beta=1, **flags)
            sizes[name] = construct_probe_matrix(fattree4_routing, options).num_paths
        assert max(sizes.values()) <= 1.5 * min(sizes.values())
        # §4.4's "very similar" is exact here: a replay selects what a solve would.
        assert sizes["symmetry"] == sizes["lazy"]


class TestOtherTopologies:
    def test_vl2(self):
        topology = build_vl2(6, 4, 0)
        result = pmc_for_topology(topology, alpha=1, beta=1)
        assert check_coverage(result.probe_matrix, 1)
        assert check_identifiability(result.probe_matrix, 1)

    def test_bcube(self):
        topology = build_bcube(3, 1)
        result = pmc_for_topology(topology, alpha=1, beta=1)
        assert check_coverage(result.probe_matrix, 1)
        assert check_identifiability(result.probe_matrix, 1)

    def test_fattree6_beta2_achievable(self, fattree6):
        result = pmc_for_topology(fattree6, alpha=1, beta=2)
        assert result.stats.fully_refined
        assert check_identifiability(result.probe_matrix, 2)

    def test_higher_coverage_costs_more_paths(self, fattree6):
        small = pmc_for_topology(fattree6, alpha=1, beta=1).num_paths
        large = pmc_for_topology(fattree6, alpha=3, beta=1).num_paths
        assert large > small

    def test_higher_identifiability_costs_more_paths(self, fattree6):
        beta0 = pmc_for_topology(fattree6, alpha=1, beta=0).num_paths
        beta1 = pmc_for_topology(fattree6, alpha=1, beta=1).num_paths
        beta2 = pmc_for_topology(fattree6, alpha=1, beta=2).num_paths
        assert beta0 < beta1 <= beta2

    def test_ordered_pairs_option(self, fattree4):
        result = pmc_for_topology(fattree4, alpha=1, beta=1, ordered_pairs=True)
        assert check_identifiability(result.probe_matrix, 1)


class TestStats:
    def test_stats_populated(self, fattree4_routing):
        # Every subproblem solved: a replay selects without iterating.
        options = PMCOptions(alpha=1, beta=1, use_symmetry=False)
        result = construct_probe_matrix(fattree4_routing, options)
        stats = result.stats
        assert stats.iterations >= result.num_paths
        assert stats.candidates_scored > 0
        assert stats.elapsed_seconds > 0
        assert stats.subproblems == 2  # Fattree(4) splits per core group
        assert stats.uncoverable_links == ()

    def test_uncoverable_links_reported(self, fattree4):
        # Restrict candidates to a single path: all other links are uncoverable.
        paths = enumerate_candidate_paths(fattree4, ordered=False)[:1]
        matrix = RoutingMatrix(fattree4, paths)
        result = construct_probe_matrix(matrix, PMCOptions(alpha=1, beta=0))
        assert result.stats.coverage_satisfied  # among coverable links
        expected_uncoverable = matrix.num_links - len(paths[0].link_ids)
        assert len(result.stats.uncoverable_links) == expected_uncoverable

    def test_empty_candidate_set(self, fattree4):
        matrix = RoutingMatrix(fattree4, [])
        result = construct_probe_matrix(matrix, PMCOptions(alpha=1, beta=1))
        assert result.num_paths == 0
        assert not result.stats.fully_refined


class TestShortLinkTermination:
    """A link with fewer than alpha candidates stops costing a heap drain.

    Each case masks links until one surviving link has a single candidate
    (alpha = 2).  The selection and the verdicts are the ones the exhaustive
    drain returned (pinned); only the greedy's evaluations drop.
    """

    CASES = {
        "fattree4": (
            lambda: build_fattree(4),
            (0, 2, 40, 44),
            (2, 7, 39, 54, 79, 90, 110, 111, 6, 94, 51, 52, 57, 81, 105, 109, 89),
            (0, 2, 32, 33, 40, 44),
            178,
        ),
        "vl2": (
            lambda: build_vl2(4, 4, 2),
            (2, 6, 8, 16, 17),
            (6, 32, 38, 39, 23),
            (0, 1, 2, 6, 8, 16, 17),
            21,
        ),
    }

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_same_selection_fewer_evaluations(self, name, backend):
        build, mask, drained_selection, uncoverable, drained_evaluations = self.CASES[name]
        topology = build()
        paths = enumerate_candidate_paths(topology, ordered=False)
        options = PMCOptions(alpha=2, beta=1, jobs=1)
        matrix = RoutingMatrix(topology, paths, backend=backend)
        matrix.incidence.apply_link_mask(mask)
        counts = matrix.incidence.active_coverage_counts()
        assert any(0 < count < options.alpha for count in counts)
        masked = construct_probe_matrix_masked(matrix, options)
        rebuilt = RoutingMatrix(topology, paths.without_links(mask), backend=backend)
        cold = construct_probe_matrix(rebuilt, options)
        for result in (masked, cold):
            stats = result.stats
            assert (stats.coverage_satisfied, stats.fully_refined) == (False, False)
            assert stats.uncoverable_links == uncoverable
            assert stats.greedy_evaluations < drained_evaluations
        assert masked.selected_indices == drained_selection
        assert cold.probe_matrix.to_json() == masked.probe_matrix.to_json()
