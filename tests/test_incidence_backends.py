"""End-to-end backend equivalence: numpy and pure-python must agree exactly.

The incidence layer promises that every consumer computes *identical* results
on either backend (all kernels work on exact integers).  These tests pin that
promise at the two consumer hot spots the paper cares about: PMC selections
and PLL suspect sets, on Fattree(4) and BCube(4, 1).
"""

from __future__ import annotations

import pytest

from repro.core import PMCOptions, ProbeMatrix, construct_probe_matrix
from repro.core.incidence import Backend
from repro.localization import ObservationSet, PathObservation, PLLConfig, PLLLocalizer
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_bcube, build_fattree


def _topologies():
    return {
        "fattree4": build_fattree(4),
        "bcube41": build_bcube(4, 1),
    }


@pytest.fixture(scope="module")
def routing_by_backend():
    matrices = {}
    for name, topology in _topologies().items():
        paths = enumerate_candidate_paths(topology, ordered=False)
        matrices[name] = {
            backend: RoutingMatrix(topology, paths, backend=backend)
            for backend in (Backend.PYTHON, Backend.NUMPY)
        }
    return matrices


class TestPMCBackendEquivalence:
    @pytest.mark.parametrize("name", ["fattree4", "bcube41"])
    @pytest.mark.parametrize(
        "options",
        [
            PMCOptions(alpha=1, beta=1),
            PMCOptions(alpha=3, beta=1),
            PMCOptions(alpha=1, beta=0),
            PMCOptions(alpha=2, beta=1, use_lazy_update=False),
            PMCOptions(alpha=2, beta=1, use_decomposition=False),
            PMCOptions(alpha=1, beta=2),
            PMCOptions(alpha=1, beta=1, use_symmetry=False),
        ],
        ids=["a1b1", "a3b1", "a1b0", "eager", "no-decomp", "beta2", "no-symmetry"],
    )
    def test_identical_selections(self, routing_by_backend, name, options):
        results = {
            backend: construct_probe_matrix(matrix, options)
            for backend, matrix in routing_by_backend[name].items()
        }
        python_result = results[Backend.PYTHON]
        numpy_result = results[Backend.NUMPY]
        assert python_result.selected_indices == numpy_result.selected_indices
        assert python_result.stats.subproblems == numpy_result.stats.subproblems
        assert python_result.stats.fully_refined == numpy_result.stats.fully_refined
        assert (
            python_result.stats.uncoverable_links
            == numpy_result.stats.uncoverable_links
        )


class TestPLLBackendEquivalence:
    @pytest.mark.parametrize("name", ["fattree4", "bcube41"])
    @pytest.mark.parametrize("failure_seed", [1, 7, 23])
    def test_identical_suspects(self, routing_by_backend, name, failure_seed):
        import random

        suspects = {}
        unexplained = {}
        for backend, routing in routing_by_backend[name].items():
            result = construct_probe_matrix(routing, PMCOptions(alpha=2, beta=1))
            probe_matrix = result.probe_matrix

            # Deterministic synthetic failures: a few failed links produce
            # partially lossy paths (60% of crossing paths lose packets).
            rng = random.Random(failure_seed)
            links = list(probe_matrix.link_ids)
            failed = set(rng.sample(links, 3))
            lossy = set()
            for link in failed:
                crossing = list(probe_matrix.paths_through(link))
                lossy.update(crossing[: max(1, (2 * len(crossing)) // 3)])

            observations = ObservationSet(
                PathObservation(i, sent=100, lost=40 if i in lossy else 0)
                for i in range(probe_matrix.num_paths)
            )
            outcome = PLLLocalizer(PLLConfig()).localize(probe_matrix, observations)
            suspects[backend] = outcome.suspected_links
            unexplained[backend] = outcome.unexplained_paths

        assert suspects[Backend.PYTHON] == suspects[Backend.NUMPY]
        assert unexplained[Backend.PYTHON] == unexplained[Backend.NUMPY]


class TestEnvVarSelection:
    def test_routing_matrix_honours_env(self, monkeypatch):
        topology = build_fattree(4)
        paths = enumerate_candidate_paths(topology, ordered=False)
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert RoutingMatrix(topology, paths).backend is Backend.PYTHON
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert RoutingMatrix(topology, paths).backend is Backend.NUMPY

    def test_probe_matrix_inherits_routing_backend(self):
        topology = build_fattree(4)
        paths = enumerate_candidate_paths(topology, ordered=False)
        routing = RoutingMatrix(topology, paths, backend=Backend.PYTHON)
        result = construct_probe_matrix(routing, PMCOptions(alpha=1, beta=1))
        assert result.probe_matrix.backend is Backend.PYTHON
