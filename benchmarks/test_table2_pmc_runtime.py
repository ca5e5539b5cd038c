"""Table 2 -- PMC work per optimisation level (counter-gated).

The paper's claim: each added optimisation (problem decomposition, lazy score
updates, symmetry reduction) cuts the construction *work*, by orders of
magnitude at scale.  The gate asserts that claim on the deterministic
greedy-evaluation counters (byte-identical across backends and machines, so
the test cannot flake on a loaded CI box); wall-clock timings stay in the
table as informational columns and in the ``wallclock``-marked micro
benchmarks, which the tier-1 gate job excludes.
"""

from __future__ import annotations

import re

import pytest

from repro.core import PMCOptions, check_coverage, check_identifiability, construct_probe_matrix
from repro.experiments import table2
from repro.routing import RoutingMatrix, enumerate_candidate_paths

ALPHA, BETA = 2, 1

EVAL_COLUMNS = ("strawman_evals", "decomposition_evals", "lazy_update_evals", "symmetry_evals")


def _options(**flags):
    return PMCOptions(alpha=ALPHA, beta=BETA, **flags)


@pytest.mark.wallclock
class TestPMCVariants:
    """Wall-clock micro benchmarks of the four variants (informational only)."""

    def test_strawman(self, benchmark, fattree6_routing):
        options = _options(use_decomposition=False, use_lazy_update=False, use_symmetry=False)
        result = benchmark.pedantic(
            construct_probe_matrix, args=(fattree6_routing, options), rounds=2, iterations=1
        )
        assert check_coverage(result.probe_matrix, ALPHA)
        assert check_identifiability(result.probe_matrix, BETA)

    def test_decomposition(self, benchmark, fattree6_routing):
        options = _options(use_decomposition=True, use_lazy_update=False, use_symmetry=False)
        result = benchmark.pedantic(
            construct_probe_matrix, args=(fattree6_routing, options), rounds=2, iterations=1
        )
        assert check_coverage(result.probe_matrix, ALPHA)

    def test_lazy_update(self, benchmark, fattree6_routing):
        options = _options(use_decomposition=True, use_lazy_update=True, use_symmetry=False)
        result = benchmark.pedantic(
            construct_probe_matrix, args=(fattree6_routing, options), rounds=3, iterations=1
        )
        assert check_coverage(result.probe_matrix, ALPHA)

    def test_symmetry(self, benchmark, fattree6_routing):
        options = _options(use_decomposition=True, use_lazy_update=True, use_symmetry=True)
        result = benchmark.pedantic(
            construct_probe_matrix, args=(fattree6_routing, options), rounds=3, iterations=1
        )
        assert check_coverage(result.probe_matrix, ALPHA)
        assert check_identifiability(result.probe_matrix, BETA)


class TestTable2Harness:
    def test_full_sweep_shape(self, benchmark):
        table = benchmark.pedantic(table2.run, rounds=1, iterations=1)
        assert len(table.rows) >= 3
        for row in table.rows:
            evals = [row[column] for column in EVAL_COLUMNS if row[column] is not None]
            assert evals, f"no optimisation level ran for {row['dcn']}"
            # The paper's headline ordering, gated on *work* rather than
            # wall clock: the optimised variants never evaluate more
            # candidates than the strawman's full-rescore greedy.
            # (Decomposition alone may add wall-clock overhead on VL2/BCube,
            # exactly as Table 2 reports -- but never extra evaluations.)
            if row["strawman_evals"] is not None:
                assert row["symmetry_evals"] <= row["strawman_evals"]
                assert row["lazy_update_evals"] <= row["strawman_evals"]
                assert row["decomposition_evals"] <= row["strawman_evals"]
                # Lazy (CELF) updates only ever skip rescores.
                assert row["lazy_update_evals"] <= row["decomposition_evals"]
            # Symmetry solves one of a fat-tree's k/2 isomorphic components
            # and replays the rest; a single-component fabric has no twin.
            fattree = re.fullmatch(r"Fattree\((\d+)\)", row["dcn"])
            components = int(fattree.group(1)) // 2 if fattree else 1
            assert row["symmetry_evals"] * components == row["lazy_update_evals"]
            # The informational wall-clock cells ride along for every level
            # whose counter cell is populated (never asserted on).
            for column in EVAL_COLUMNS:
                level = column[: -len("_evals")]
                assert (row[level] is None) == (row[column] is None)
                if row[level] is not None:
                    assert row[level] >= 0.0
            assert row["selected_paths"] is not None and row["selected_paths"] > 0

    def test_symmetry_column_selects_the_lazy_columns_paths(self):
        """§4.4's "very similar" is exact: a replay selects what a solve would."""
        for instance in table2.default_instances():
            topology = instance.build()
            matrix = RoutingMatrix(topology, enumerate_candidate_paths(topology, ordered=False))
            lazy, symmetry = (
                construct_probe_matrix(matrix, _options(use_symmetry=flag))
                for flag in (False, True)
            )
            assert symmetry.selected_indices == lazy.selected_indices, instance.label
            assert symmetry.probe_matrix.to_json() == lazy.probe_matrix.to_json()

    def test_sweep_counters_are_deterministic(self):
        """Two back-to-back sweeps agree byte-for-byte on the counter view."""
        instances = table2.default_instances("tiny")
        first = table2.run(instances=instances)
        second = table2.run(instances=instances)
        assert first.deterministic_rows() == second.deterministic_rows()
        assert set(first.metadata["informational_columns"]) == {
            "strawman",
            "decomposition",
            "lazy_update",
            "symmetry",
        }
