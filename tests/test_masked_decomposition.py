"""The masked decomposition: pristine components refined per touched component.

The contract under test: ``decompose_routing_matrix(matrix, masked=True)``
equals the exact decomposition of the index's active rows,
``decompose_routing_matrix(matrix, rows=index.active_rows())`` -- one full
union-find pass, the oracle -- element for element on both backends, while
only the pristine components that own a masked link are re-split (the others
are carried as the same objects) and the ``components`` kernel counter ticks
by the rows actually re-split.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    PMCOptions,
    construct_probe_matrix,
    construct_probe_matrix_masked,
    decompose_routing_matrix,
)
from repro.core.incidence import Backend
from repro.monitor import Watchdog
from repro.obs import Tracer, activated
from repro.routing import RoutingMatrix, enumerate_candidate_paths
from repro.topology import build_bcube, build_fattree, build_vl2

BACKENDS = [Backend.PYTHON, Backend.NUMPY]

FABRICS = {
    "fattree4": lambda: build_fattree(4),
    "fattree6": lambda: build_fattree(6),
    "fattree8": lambda: build_fattree(8),
    "vl2_12_8_2": lambda: build_vl2(12, 8, 2),
    "bcube4_2": lambda: build_bcube(4, 2),
}


@functools.lru_cache(maxsize=None)
def _topology(name):
    return FABRICS[name]()


def _matrix(name, backend):
    topology = _topology(name)
    return RoutingMatrix(topology, enumerate_candidate_paths(topology, ordered=False), backend=backend)


def _assert_refines_exactly(matrix):
    """Masked decomposition == the full pass over the active rows; carried = same objects."""
    index = matrix.incidence
    pristine = {sub.link_ids: sub for sub in decompose_routing_matrix(matrix)}
    masked = decompose_routing_matrix(matrix, masked=True)
    assert masked == decompose_routing_matrix(matrix, rows=index.active_rows())
    masked_links = set(index.masked_link_ids)
    for sub in masked:
        owner = pristine.get(sub.link_ids)
        if owner is not None and not masked_links & set(sub.link_ids):
            assert sub is owner  # carried forward, not rebuilt
    return masked


class TestMaskedEqualsActiveRows:
    @pytest.mark.parametrize("backend", BACKENDS, ids=[b.value for b in BACKENDS])
    @pytest.mark.parametrize("name", list(FABRICS))
    def test_masks_switch_blackout_and_recovery(self, name, backend):
        matrix = _matrix(name, backend)
        index = matrix.incidence
        links = list(index.link_ids)
        rng = random.Random(2017)
        for _ in range(4):  # seeded 1-3-link masks, applied and reverted
            mask = rng.sample(links, rng.randint(1, 3))
            index.apply_link_mask(mask)
            _assert_refines_exactly(matrix)
            index.revert_link_mask(mask)

        watchdog = Watchdog(_topology(name))  # a switch down: all of its links at once
        watchdog.report_failed_switch(_topology(name).switches[-1].name)
        switch_links = sorted(watchdog.failed_probe_link_ids() & set(links))
        assert switch_links
        index.apply_link_mask(switch_links)
        _assert_refines_exactly(matrix)

        index.apply_link_mask(links)  # every link masked: only path-less singletons
        blackout = _assert_refines_exactly(matrix)
        assert len(blackout) == len(links) and not any(sub.path_indices for sub in blackout)

        index.revert_link_mask(links)  # recovery: the pristine objects come back
        assert index.masked_link_ids == ()
        recovered = decompose_routing_matrix(matrix, masked=True)
        assert all(a is b for a, b in zip(recovered, decompose_routing_matrix(matrix)))
        assert recovered == decompose_routing_matrix(matrix, rows=index.active_rows())


@functools.lru_cache(maxsize=None)
def _shared_matrix(name, backend):
    return _matrix(name, backend)


@given(
    st.sampled_from(["fattree4", "vl2_12_8_2"]),
    st.sampled_from(BACKENDS),
    st.lists(st.lists(st.integers(min_value=0, max_value=10_000), max_size=5), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_random_mask_sequences(name, backend, steps):
    # Each step toggles a few links (masked ones recover, others fail): the
    # refinement must track the full pass through every intermediate mask.
    matrix = _shared_matrix(name, backend)
    index = matrix.incidence
    index.clear_link_mask()
    links = index.link_ids
    for picks in steps:
        toggled = {links[pick % len(links)] for pick in picks}
        masked = set(index.masked_link_ids)
        index.revert_link_mask(sorted(toggled & masked))
        index.apply_link_mask(sorted(toggled - masked))
        _assert_refines_exactly(matrix)
    index.clear_link_mask()


class TestKernelCounters:
    @pytest.mark.parametrize("backend", BACKENDS, ids=[b.value for b in BACKENDS])
    def test_one_link_delta_ticks_the_touched_component_only(self, backend):
        matrix = _matrix("fattree8", backend)
        index = matrix.incidence
        options = PMCOptions(alpha=2, beta=1, jobs=1)
        cold = construct_probe_matrix(matrix, options)
        assert index.counters.elements("components") == index.num_paths
        assert cold.stats.subproblems == 4  # one component per core group

        link = index.link_ids[7]
        owner = next(sub for sub in decompose_routing_matrix(matrix) if link in sub.link_ids)
        calls = index.counters.calls("components")
        ticked = index.counters.elements("components")
        index.apply_link_mask([link])
        masked = construct_probe_matrix_masked(matrix, options)
        rows = index.counters.elements("components") - ticked
        assert index.counters.calls("components") == calls + 1
        assert 0 < rows <= owner.num_paths < index.num_active_rows
        assert masked.stats.subproblems == cold.stats.subproblems + 1  # the masked singleton

        index.revert_link_mask([link])  # an empty mask re-splits nothing
        construct_probe_matrix_masked(matrix, options)
        construct_probe_matrix(matrix, options)  # nor does a second cold plan
        assert index.counters.calls("components") == calls + 1

    def test_decomposition_span_reports_refined_components(self):
        matrix = _matrix("fattree8", Backend.NUMPY)
        index = matrix.incidence
        options = PMCOptions(alpha=2, beta=1, jobs=1)
        mask = [index.link_ids[7], index.link_ids[-1]]
        tracer = Tracer()
        with activated(tracer):
            construct_probe_matrix(matrix, options)
            index.apply_link_mask(mask)
            result = construct_probe_matrix_masked(matrix, options)
        spans = [sp for sp in tracer.finished_spans() if sp.name == "decomposition"]
        assert [sp.informational for sp in spans] == [True, True]
        pristine, masked = (sp.labels for sp in spans)
        assert pristine == {"subproblems": 4, "refined": 0, "rows": index.num_paths}
        owners = [sub for sub in decompose_routing_matrix(matrix) if set(mask) & set(sub.link_ids)]
        assert masked == {
            "subproblems": result.stats.subproblems,
            "refined": len(owners),
            "rows": len(index.active_among([row for sub in owners for row in sub.path_indices])),
        }
