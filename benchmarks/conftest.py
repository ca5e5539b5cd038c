"""Shared fixtures for the benchmark suite (pytest-benchmark).

Benchmarks regenerate the paper's tables and figures on scaled-down instances
and assert the *qualitative* shape (who wins, orderings, trends), not absolute
numbers.  Run them with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro import build_fattree
from repro.contracts import informational_wall
from repro.routing import RoutingMatrix, enumerate_candidate_paths


@informational_wall("Paired wall ratios feed the wall-clock gates, never determinism gates")
def paired_walls(a, b, rounds):
    """Median wall-time ratio of ``a()`` over ``b()`` across ``rounds`` paired rounds.

    The rounds alternate which side runs first, so neither always runs on a
    cache the other warmed.  One warm-up round runs first and is dropped: the
    first solve on an index also builds its pristine decomposition.
    """
    ratios = []
    for round_index in range(rounds + 1):
        order = ((a, 0), (b, 1)) if round_index % 2 == 0 else ((b, 1), (a, 0))
        walls = [0.0, 0.0]
        for side, slot in order:
            start = time.perf_counter()
            side()
            walls[slot] = time.perf_counter() - start
        if round_index:
            ratios.append(walls[0] / walls[1])
    return statistics.median(ratios)


@pytest.fixture(scope="session")
def paired_wall_ratio():
    """:func:`paired_walls` for test modules, which cannot import a conftest by name."""
    return paired_walls


@pytest.fixture(scope="session")
def fattree4():
    return build_fattree(4)


@pytest.fixture(scope="session")
def fattree6():
    return build_fattree(6)


@pytest.fixture(scope="session")
def fattree6_routing(fattree6):
    paths = enumerate_candidate_paths(fattree6, ordered=False)
    return RoutingMatrix(fattree6, paths)


@pytest.fixture
def rng():
    return np.random.default_rng(777)


@pytest.fixture(scope="session")
def fattree8_routing():
    topology = build_fattree(8)
    return RoutingMatrix(topology, enumerate_candidate_paths(topology, ordered=False))
