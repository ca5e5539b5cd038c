"""Count-1 bulk rows == per-packet probing (``tests/scalar_probe_oracle.py``).

Pinger windows, ``observe_probe_matrix`` and the ECMP pair probing send one
count-1 row per probe through ``probe_paths_bulk``; the per-packet loops
they replaced must give the same observations, ``drops_per_link`` and
generator state under any failure mix -- full, deterministic-partial and
random-partial links, whole switches down -- with and without loss
confirmation, and with and without the echo's reverse traversal.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_probe_oracle as oracle
from repro.baselines.common import probe_pairs_ecmp, route_probes
from repro.monitor import ControllerConfig, DetectorSystem, Pinger, probe_window
from repro.routing import ECMPRouter, enumerate_candidate_paths
from repro.simulation import FailureGenerator, FailureGeneratorConfig, ProbeConfig, ProbeSimulator
from repro.topology import build_bcube, build_fattree, build_vl2

_TOPOLOGIES = {
    "fattree4": lambda: build_fattree(4),
    "vl2": lambda: build_vl2(4, 4, 2),
    "bcube": lambda: build_bcube(4, 1),
}


@functools.lru_cache(maxsize=None)
def _planned(name):
    """A topology with one controller cycle run (probe matrix + pinglists)."""
    system = DetectorSystem(
        _TOPOLOGIES[name](), np.random.default_rng(0), ControllerConfig(alpha=2, beta=1)
    )
    system.run_controller_cycle()
    return system


@functools.lru_cache(maxsize=None)
def _router(name):
    return ECMPRouter(enumerate_candidate_paths(_planned(name).topology, ordered=True), seed=3)


@st.composite
def scenarios(draw, topology):
    """A ``FailureGenerator`` scenario; half of the multi-link ones start
    with a whole switch down."""
    config = FailureGeneratorConfig(switch_failure_probability=draw(st.sampled_from([0.0, 1.0])))
    generator = FailureGenerator(
        topology, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), config
    )
    return generator.generate(draw(st.integers(1, 4)))


def _simulators(topology, scenario, seed, reverse):
    """Two simulators seeded alike: the product's and the oracle's."""
    return [
        ProbeSimulator(topology, scenario, np.random.default_rng(seed), reverse)
        for _ in range(2)
    ]


def _assert_same_state(product, reference):
    assert product.drops_per_link == reference.drops_per_link
    assert product._rng.random() == reference._rng.random()


@given(
    st.sampled_from(sorted(_TOPOLOGIES)),
    st.data(),
    st.sampled_from([0, 2]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_count1_rows_equal_per_packet_probing(name, data, confirm, reverse, seed):
    system = _planned(name)
    topology, matrix = system.topology, system.probe_matrix
    scenario = data.draw(scenarios(topology))

    # observe_probe_matrix
    config = ProbeConfig(probes_per_path=data.draw(st.integers(1, 40)), port_range=8)
    product, reference = _simulators(topology, scenario, seed, reverse)
    assert list(product.observe_probe_matrix(matrix, config)) == list(
        oracle.observe_probe_matrix(reference, matrix, config)
    )
    _assert_same_state(product, reference)

    # pinger windows, with the controller's pinglists
    product, reference = _simulators(topology, scenario, seed, reverse)
    pinglists = list(system.cycle.pinglists.values())
    product.prime_paths(matrix.paths)
    reports = probe_window([Pinger(pinglist, product, confirm) for pinglist in pinglists])
    expected = [
        oracle.pinger_window(Pinger(pinglist, reference, confirm), matrix.paths)
        for pinglist in pinglists
    ]
    assert [
        (r.pinger_server, r.window_seconds, r.probes_sent, r.probes_lost, list(r.observations))
        for r in reports
    ] == [
        (r.pinger_server, r.window_seconds, r.probes_sent, r.probes_lost, list(r.observations))
        for r in expected
    ]
    _assert_same_state(product, reference)

    # ECMP pairs
    router = _router(name)
    pairs = data.draw(st.lists(st.sampled_from(router.endpoints()), min_size=1, max_size=12))
    num_probes = data.draw(st.integers(1, 30))
    product, reference = _simulators(topology, scenario, seed, reverse)
    product.prime_paths(router.paths)
    assert probe_pairs_ecmp(product, pairs, route_probes(router, pairs, num_probes)) == [
        oracle.probe_pair_ecmp(reference, router, src, dst, num_probes) for src, dst in pairs
    ]
    _assert_same_state(product, reference)

