"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ExtendedLinkSpace,
    PMCOptions,
    ProbeMatrix,
    RESIDUAL_POD,
    Subproblem,
    check_identifiability,
    construct_probe_matrix,
    decompose_by_link_sets,
)
from link_set_oracle import LinkSetPartition
from repro.localization import (
    ObservationSet,
    PathObservation,
    PLLLocalizer,
    evaluate_localization,
)
from repro.routing import Path
from repro.simulation import FailureScenario, LinkFailure, LossMode, ProbeConfig, ProbeSimulator
from repro.topology import Tier, TopologyBuilder, build_fattree
from test_engine_streaming import _build_engine, _observe, _storm_episodes

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

link_universe = st.integers(min_value=4, max_value=12)


@st.composite
def link_set_sequences(draw):
    """A universe of links plus a handful of link subsets (candidate paths)."""
    num_links = draw(link_universe)
    universe = list(range(num_links))
    num_sets = draw(st.integers(min_value=1, max_value=10))
    subsets = [
        frozenset(draw(st.sets(st.sampled_from(universe), min_size=1, max_size=num_links)))
        for _ in range(num_sets)
    ]
    return universe, subsets


def line_topology(num_links: int):
    """A path graph with ``num_links`` switch links."""
    builder = TopologyBuilder(f"line{num_links}")
    builder.add_node("n0", Tier.EDGE)
    for i in range(num_links):
        builder.add_node(f"n{i + 1}", Tier.EDGE)
        builder.add_link(f"n{i}", f"n{i + 1}")
    return builder.build()


# ---------------------------------------------------------------------------
# LinkSetPartition invariants
# ---------------------------------------------------------------------------


@given(link_set_sequences())
@settings(max_examples=60, deadline=None)
def test_partition_refinement_invariants(data):
    universe, subsets = data
    partition = LinkSetPartition(len(universe))
    for subset in subsets:
        predicted = partition.splits_gained(subset)
        cells_before = partition.num_cells
        created = partition.split(subset)
        # splits_gained is exact, cells only grow, and the cell count never
        # exceeds the number of links.
        assert created == predicted
        assert partition.num_cells == cells_before + created
        assert partition.num_cells <= partition.num_links
    # Every link belongs to exactly one cell and cells partition the universe.
    cells = partition.cells()
    seen = set()
    for members in cells.values():
        assert not (members & seen)
        seen |= members
    assert seen == set(universe)
    # Singleton bookkeeping agrees with the actual cell sizes.
    assert partition.num_singletons == sum(1 for m in cells.values() if len(m) == 1)


@given(link_set_sequences())
@settings(max_examples=40, deadline=None)
def test_partition_split_is_idempotent(data):
    universe, subsets = data
    partition = LinkSetPartition(len(universe))
    for subset in subsets:
        partition.split(subset)
        # Splitting by the same set again must be a no-op.
        assert partition.split(subset) == 0


# ---------------------------------------------------------------------------
# ExtendedLinkSpace invariants
# ---------------------------------------------------------------------------


@given(
    st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_extended_space_counts_and_membership(links, beta):
    space = ExtendedLinkSpace(sorted(links), beta)
    assert space.num_extended == space.expected_extended_count()
    # Every extended link containing a physical link really contains it, and
    # the OR semantics of path coverage hold.
    for link in links:
        for ext in space.extended_links_containing(link):
            assert link in space.combination(ext)
    on_path = space.extended_links_on_path(list(links)[:1])
    first = next(iter(links))
    assert all(first in space.combination(e) or len(space.combination(e)) > 1 for e in on_path)
    # Singleton extended ids come first and are never virtual.
    for link in links:
        assert not space.is_virtual(space.physical_to_extended(link))


# ---------------------------------------------------------------------------
# Decomposition invariants
# ---------------------------------------------------------------------------


@given(link_set_sequences())
@settings(max_examples=60, deadline=None)
def test_decomposition_is_a_partition(data):
    universe, subsets = data
    subproblems = decompose_by_link_sets(subsets, universe)
    all_links = [link for sp in subproblems for link in sp.link_ids]
    assert sorted(all_links) == sorted(universe)
    # No path is assigned to two subproblems, and a path's links never span
    # two subproblems.
    assigned = [index for sp in subproblems for index in sp.path_indices]
    assert len(assigned) == len(set(assigned))
    link_to_problem = {}
    for problem_index, sp in enumerate(subproblems):
        for link in sp.link_ids:
            link_to_problem[link] = problem_index
    for sp_index, sp in enumerate(subproblems):
        for path_index in sp.path_indices:
            problems = {link_to_problem[l] for l in subsets[path_index] if l in link_to_problem}
            assert problems == {sp_index}


# ---------------------------------------------------------------------------
# Pod-sharding invariants (the pod-sharded control plane's decomposition)
# ---------------------------------------------------------------------------


@st.composite
def pod_sharding_inputs(draw):
    """Random link universe with random pod ownership plus candidate paths."""
    universe, subsets = draw(link_set_sequences())
    num_pods = draw(st.integers(min_value=1, max_value=4))
    link_pods = {
        link: draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=num_pods - 1))
        )
        for link in universe
    }
    return universe, subsets, link_pods, num_pods


@given(pod_sharding_inputs())
@settings(max_examples=60, deadline=None)
def test_pod_sharding_is_a_partition_with_residual(data):
    universe, subsets, link_pods, num_pods = data
    shards = decompose_by_link_sets(subsets, universe, link_pods=link_pods)
    # Every path is assigned exactly once, and to the right shard: its
    # owning pod when all its links agree on one, the residual otherwise --
    # never silently pod 0.
    assigned = [index for shard in shards for index in shard.path_indices]
    assert sorted(assigned) == list(range(len(subsets)))
    for shard in shards:
        for path_index in shard.path_indices:
            pods = {link_pods[l] for l in subsets[path_index]}
            if len(pods) == 1 and None not in pods:
                assert shard.pod == pods.pop()
            else:
                assert shard.pod == RESIDUAL_POD
    # The shard link universes cover the whole universe (orphans included).
    all_links = sorted({link for shard in shards for link in shard.link_ids})
    assert all_links == sorted(universe)
    # Canonical order: pods ascending, residual last.
    pods_emitted = [shard.pod for shard in shards]
    non_residual = [p for p in pods_emitted if p != RESIDUAL_POD]
    assert non_residual == sorted(non_residual)
    if RESIDUAL_POD in pods_emitted:
        assert pods_emitted[-1] == RESIDUAL_POD


@given(pod_sharding_inputs(), st.data())
@settings(max_examples=60, deadline=None)
def test_array_pod_sharding_equals_the_row_loop(data, extra):
    from repro.core.incidence import IncidenceIndex

    universe, subsets, link_pods, _ = data
    rows = extra.draw(
        st.one_of(st.none(), st.lists(st.integers(0, len(subsets) - 1), unique=True))
    )
    considered = range(len(subsets)) if rows is None else rows
    blanked = [s if i in considered else frozenset() for i, s in enumerate(subsets)]
    reference = decompose_by_link_sets(blanked, universe, link_pods=link_pods)
    if rows is not None:  # the row loop keeps the caller's order; so must the kernel
        rank = {row: position for position, row in enumerate(rows)}
        reference = [
            Subproblem(s.link_ids, tuple(sorted(s.path_indices, key=rank.get)), s.pod)
            for s in reference
        ]
    index = IncidenceIndex(subsets, universe)
    col_pods = [RESIDUAL_POD if link_pods[l] is None else link_pods[l] for l in universe]
    assert [
        Subproblem(links, members, pod) for pod, links, members in index.pod_shards(col_pods, rows)
    ] == reference


# ---------------------------------------------------------------------------
# Shard-merge invariance: covers and counters do not depend on jobs, on
# random Fattree/VL2/BCube instances
# ---------------------------------------------------------------------------

_TOPOLOGY_FAMILIES = ["fattree", "vl2", "bcube"]


def _random_instance(family, seed):
    from repro.routing import RoutingMatrix, enumerate_candidate_paths
    from repro.topology import build_bcube, build_fattree, build_vl2
    import random as _random

    rnd = _random.Random(seed)
    if family == "fattree":
        topology = build_fattree(4)
        paths = enumerate_candidate_paths(
            topology, ordered=False, include_intrapod_agg=True
        )
    elif family == "vl2":
        topology = build_vl2(*rnd.choice([(2, 4, 2), (4, 4, 2)]))
        paths = enumerate_candidate_paths(topology, ordered=False)
    else:
        topology = build_bcube(rnd.choice([2, 4]), 1)
        paths = enumerate_candidate_paths(topology, ordered=False)
    return topology, RoutingMatrix(topology, paths)


@given(
    st.sampled_from(_TOPOLOGY_FAMILIES),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_cover_invariant_to_jobs(family, seed, alpha):
    topology, matrix = _random_instance(family, seed)
    baseline = construct_probe_matrix(
        matrix, PMCOptions(alpha=alpha, beta=1, shard_by_pods=True, jobs=1)
    )
    for jobs in (2, 8):
        parallel = construct_probe_matrix(
            matrix, PMCOptions(alpha=alpha, beta=1, shard_by_pods=True, jobs=jobs)
        )
        assert parallel.selected_indices == baseline.selected_indices
        assert parallel.stats.cost_counters() == baseline.stats.cost_counters()
        assert parallel.shard_digests() == baseline.shard_digests()
        assert [s.kernel_cost for s in parallel.shards] == [
            s.kernel_cost for s in baseline.shards
        ]


# ---------------------------------------------------------------------------
# Maximality: wherever the greedy stops, no candidate it left behind can still
# gain anything -- judged against a partition and a coverage vector rebuilt
# from the selection alone, never from the solver's own state
# ---------------------------------------------------------------------------


@given(
    st.sampled_from(_TOPOLOGY_FAMILIES),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["components", "pods", "whole"]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_no_candidate_left_behind_can_gain(family, seed, alpha, beta, decomposition, lazy, data):
    from repro.core import (
        construct_probe_matrix_masked,
        decompose_routing_matrix,
        link_pod_map,
        pod_shards_for_matrix,
    )

    topology, matrix = _random_instance(family, seed)
    if beta == 2 and matrix.num_links > 32:
        beta = 1  # the virtual-link space is quadratic in the links
    index = matrix.incidence
    links = list(index.link_ids)
    pods = link_pod_map(topology, links)
    masked = set(data.draw(st.sets(st.sampled_from(links), max_size=4)))
    if data.draw(st.booleans()) and any(pod is not None for pod in pods.values()):
        pod = data.draw(st.sampled_from(sorted({p for p in pods.values() if p is not None})))
        masked |= {link for link in links if pods[link] == pod}  # a whole pod dark
    index.apply_link_mask(sorted(masked))
    options = PMCOptions(
        alpha=alpha,
        beta=beta,
        use_lazy_update=lazy,
        use_decomposition=decomposition == "components",
        shard_by_pods=decomposition == "pods",
    )
    assert options.skip_zero_gain
    result = construct_probe_matrix_masked(matrix, options)
    rows = index.active_rows()
    if decomposition == "pods":
        subproblems = pod_shards_for_matrix(matrix, rows=rows)
    elif decomposition == "components":
        subproblems = decompose_routing_matrix(matrix, rows=rows)
    else:
        subproblems = [Subproblem(link_ids=tuple(links), path_indices=tuple(rows))]
    assert len(subproblems) == result.stats.subproblems
    chosen = set(result.selected_indices)
    candidates_anywhere = {link for row in rows for link in matrix.links_on(row)}

    for sub in subproblems:
        space = ExtendedLinkSpace(sub.link_ids, beta)
        universe = set(sub.link_ids)
        partition = LinkSetPartition(space.num_extended)
        weight = dict.fromkeys(sub.link_ids, 0)
        for row in sub.path_indices:
            if row in chosen:
                on_path = matrix.links_on(row) & universe
                partition.split(space.extended_links_on_path(on_path))
                for link in on_path:
                    weight[link] += 1
        wanting = {
            link for link in sub.link_ids
            if link in candidates_anywhere and weight[link] < alpha
        }
        for row in sub.path_indices:
            if row in chosen:
                continue
            on_path = matrix.links_on(row) & universe
            assert not (on_path & wanting), (sub.pod, row, "could still cover")
            if beta:
                assert partition.splits_gained(space.extended_links_on_path(on_path)) == 0, (
                    sub.pod, row, "could still split"
                )


# ---------------------------------------------------------------------------
# Identifiability / syndrome invariants on a line topology
# ---------------------------------------------------------------------------


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_identifiable_matrix_has_unique_syndromes(num_links, data):
    topology = line_topology(num_links)
    # Candidate paths: every contiguous segment of the line.
    segments = []
    names = [f"n{i}" for i in range(num_links + 1)]
    for start in range(num_links):
        for end in range(start + 1, num_links + 1):
            nodes = tuple(names[start:end + 1])
            links = frozenset(range(start, end))
            segments.append(Path(len(segments), nodes, links, nodes[0], nodes[-1]))
    # Pick a random subset of segments and check that our identifiability
    # verdict agrees with a brute-force syndrome uniqueness check.
    chosen = data.draw(
        st.lists(st.sampled_from(segments), min_size=1, max_size=len(segments), unique=True)
    )
    probe_matrix = ProbeMatrix(topology, chosen)
    syndromes = [probe_matrix.syndrome([l]) for l in probe_matrix.link_ids]
    unique = len(set(syndromes)) == len(syndromes) and all(s for s in syndromes)
    assert check_identifiability(probe_matrix, 1) == unique


# ---------------------------------------------------------------------------
# Localization invariants
# ---------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_pll_explains_full_losses_on_line(data):
    num_links = data.draw(st.integers(min_value=3, max_value=7))
    topology = line_topology(num_links)
    names = [f"n{i}" for i in range(num_links + 1)]
    paths = []
    for start in range(num_links):
        for end in range(start + 1, num_links + 1):
            nodes = tuple(names[start:end + 1])
            paths.append(Path(len(paths), nodes, frozenset(range(start, end)), nodes[0], nodes[-1]))
    probe_matrix = ProbeMatrix(topology, paths)
    bad = data.draw(st.sets(st.integers(min_value=0, max_value=num_links - 1), min_size=1, max_size=2))
    observations = ObservationSet()
    for index in range(probe_matrix.num_paths):
        lost = 100 if probe_matrix.links_on(index) & bad else 0
        observations.add(PathObservation(index, sent=100, lost=lost))
    result = PLLLocalizer().localize(probe_matrix, observations)
    # Every lossy path must be explained by the suspects, and no suspect may
    # be a link whose paths were all clean.
    assert result.unexplained_paths == []
    for suspect in result.suspected_links:
        assert any(
            observations.get(i).is_lossy for i in probe_matrix.paths_through(suspect)
        )
    metrics = evaluate_localization(bad, result.suspected_links, probe_matrix.link_ids)
    assert metrics.accuracy >= 0.5  # at least one of <=2 failures is always found


@given(
    st.sets(st.integers(min_value=0, max_value=19), max_size=5),
    st.sets(st.integers(min_value=0, max_value=19), max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_metric_identities(truth, predicted):
    counts = evaluate_localization(truth, predicted, range(20))
    assert counts.true_positives + counts.false_negatives == len(truth)
    assert counts.true_positives + counts.false_positives == len(predicted)
    assert (
        counts.true_positives + counts.false_positives + counts.false_negatives + counts.true_negatives
        == 20
    )
    assert 0.0 <= counts.accuracy <= 1.0
    assert 0.0 <= counts.false_positive_ratio <= 1.0
    assert counts.accuracy + counts.false_negative_ratio == 1.0 or len(truth) == 0


# ---------------------------------------------------------------------------
# bulk probing kernel == row-by-row scalar kernel
# ---------------------------------------------------------------------------

link_failures = st.builds(
    LinkFailure,
    link_id=st.integers(min_value=0, max_value=7),
    mode=st.sampled_from(list(LossMode)),
    loss_rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    match_fraction=st.sampled_from([0.1, 0.5, 1.0]),
    salt=st.integers(min_value=0, max_value=3),
)

probe_configs = st.builds(
    ProbeConfig,
    port_range=st.integers(min_value=1, max_value=20),
    base_port=st.sampled_from([33434, 40000]),
    destination_port=st.sampled_from([53535, 999]),
)


#: What happens to the scenario between two drains: a failure added on any
#: link, the failure on a failing link removed, or replaced by another one.
scenario_mutations = st.tuples(st.sampled_from(["add", "remove", "replace"]), link_failures)


@st.composite
def probe_drains(draw):
    """Four to six drains of ``(path, count, start, firing)`` rows over a path
    table whose first path crosses every link, so any mix of failed links -- a
    full-loss link before and after a random one included -- shares a path.
    Every drain probes that path first; counts run past 64 probes."""
    link_sets = [frozenset(range(8))] + draw(
        st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), min_size=1, max_size=5)
    )
    paths = [
        Path(i, (f"s{i}", f"d{i}"), frozenset(links), f"s{i}", f"d{i}")
        for i, links in enumerate(link_sets)
    ]
    counts, starts, firings = st.integers(0, 150), st.integers(0, 100), st.integers(0, 1)
    row = st.tuples(st.integers(0, len(paths) - 1), counts, starts, firings)
    first = st.tuples(st.just(0), counts, starts, firings)
    drains = draw(
        st.lists(
            st.builds(lambda head, tail: [head] + tail, first, st.lists(row, max_size=24)),
            min_size=4,
            max_size=6,
        )
    )
    return paths, drains


def _mutate(scenario: FailureScenario, mutation) -> None:
    """Apply one of :data:`scenario_mutations`; a remove or replace names a
    failing link by position, so it always changes the scenario."""
    op, failure = mutation
    failing = sorted(scenario.failures)
    if op == "add" or not failing:
        scenario.add(failure)
        return
    link = failing[failure.link_id % len(failing)]
    if op == "remove":
        scenario.remove(link)
    else:
        scenario.add(LinkFailure(link, failure.mode, failure.loss_rate,
                                 failure.match_fraction, failure.salt))


@given(
    probe_drains(),
    st.lists(link_failures, min_size=2, max_size=8, unique_by=lambda f: f.link_id),
    st.lists(st.sampled_from([0.0, 0.05, 0.5, 1.0]), min_size=2, max_size=2, unique=True),
    st.lists(scenario_mutations, min_size=6, max_size=6),
    st.tuples(probe_configs, probe_configs),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_bulk_probing_equals_row_by_row_scalar(
    drains, failures, rates, mutations, configs, confirms, reverse, buffered, seed
):
    """``probe_paths_bulk`` == one ``probe_path_batch`` call per row on sent,
    lost, ``drops_per_link`` and the generator state -- with two distinct
    random loss rates (0 and 1 among the choices) on the path every drain
    probes, a generator that may hold a buffered 32-bit half, and an add,
    remove or replace between every two drains (only ``version`` tells the
    patched plan that the scenario object changed)."""
    paths, drains = drains
    topology = line_topology(8)
    scenario = FailureScenario()
    for failure, rate in zip(failures, rates):
        scenario.add(LinkFailure(failure.link_id, LossMode.RANDOM_PARTIAL, loss_rate=rate))
    for failure in failures[2:]:
        scenario.add(failure)
    generators = [np.random.default_rng(seed) for _ in range(2)]
    if buffered:
        for generator in generators:
            generator.integers(0, 7, dtype=np.uint32)
        assert generators[0].bit_generator.state["has_uint32"] == 1
    bulk = ProbeSimulator(topology, scenario, generators[0], reverse)
    bulk.prime_paths(paths)
    scalar = ProbeSimulator(topology, scenario, generators[1], reverse)
    for drain, mutation in zip(drains, mutations):
        rows, counts, starts, firings = (
            np.asarray(column, dtype=np.int64) for column in zip(*drain)
        )
        sent, lost = bulk.probe_paths_bulk(rows, counts, starts, configs, firings, confirms)
        expected = [
            scalar.probe_path_batch(
                paths[row], configs[firing], count, start, confirm_losses=confirms[firing]
            )
            for row, count, start, firing in drain
        ]
        assert list(zip(sent.tolist(), lost.tolist())) == expected
        assert bulk.drops_per_link == scalar.drops_per_link
        assert bulk._rng.bit_generator.state == scalar._rng.bit_generator.state
        _mutate(scenario, mutation)


# ---------------------------------------------------------------------------
# clean pinglist entries fold in closed form
# ---------------------------------------------------------------------------

@st.composite
def round_robin_drains(draw):
    """Streams of 1-7 entries with arbitrary probe totals so far, a drain of
    interleaved firings, a clean/dirty split of the entries, and a window
    start that makes a prefix of the firings late."""
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    totals = draw(st.lists(st.integers(0, 60), min_size=len(lengths), max_size=len(lengths)))
    firings = draw(st.lists(
        st.tuples(st.integers(0, len(lengths) - 1), st.integers(1, 20)), min_size=1, max_size=12
    ))
    clean = draw(st.lists(st.booleans(), min_size=sum(lengths), max_size=sum(lengths)))
    late = draw(st.integers(0, len(firings)))
    return lengths, totals, firings, clean, late


@given(round_robin_drains(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_clean_rows_fold_equals_the_round_robin_expansion(drain, shards):
    """Per entry, ``dealt(T1) - dealt(T0)`` equals the probes the round-robin
    deals it one firing at a time, from any firing on; and a sink folding the
    clean rows in closed form, with a late prefix of firings, ends where one
    folding every expanded clean row does."""
    from repro.core.incidence import IncidenceIndex
    from repro.engine import StreamAggregator
    from repro.engine.probes import CleanRows, _Entries, dealt

    lengths, totals, firings, clean, late = drain
    starts = np.cumsum([0] + lengths[:-1])
    spent = list(totals)
    rows, rows_per_firing, dirty_firing = [], [], []
    for index, (stream, probes) in enumerate(firings):
        n = lengths[stream]
        base, extra = divmod(probes, n)
        touched = 0
        for offset in range(n):  # the per-event oracle's round-robin
            count = base + (offset < extra)
            if count == 0:
                break
            position = (spent[stream] + offset) % n
            # The start sequence is the closed form of the probes dealt so far.
            sequence = sum(
                1 for k in range(spent[stream]) if k % n == position
            )
            assert dealt(spent[stream], position, n) == sequence
            entry = starts[stream] + position
            touched += 1
            if clean[entry]:
                rows.append((index, entry, count))
            else:
                dirty_firing.append(index)
        rows_per_firing.append(touched)
        spent[stream] += probes
    stream_of = np.repeat(np.arange(len(lengths)), lengths)
    entries = _Entries(
        np.arange(sum(lengths)), stream_of, np.arange(sum(lengths)) - starts[stream_of],
        np.asarray(lengths)[stream_of],
    )
    times = np.arange(len(firings), dtype=np.float64)
    folded = CleanRows(
        times,
        np.asarray([stream for stream, _ in firings]),
        np.asarray([probes for _, probes in firings]),
        np.asarray(rows_per_firing),
        np.asarray(dirty_firing, dtype=np.int64),
        np.asarray(spent),
        np.asarray(clean),
        entries,
    )
    for first in sorted({0, late}):
        expected = np.zeros(sum(lengths), dtype=np.int64)
        for index, entry, count in rows:
            if index >= first:
                expected[entry] += count
        paths, sent = folded.fold(first)
        assert np.bincount(paths, weights=sent, minlength=len(expected)).tolist() == (
            expected.tolist()
        )
        assert folded.rows(first) == sum(1 for index, _, _ in rows if index >= first)

    def aggregator():
        index = IncidenceIndex([{entry} for entry in range(sum(lengths))], range(sum(lengths)))
        return StreamAggregator(index, window_seconds=100.0, start_time=late, num_shards=shards)

    expanded, closed = aggregator(), aggregator()
    columns = [np.asarray(column) for column in zip(*rows)] if rows else [np.zeros(0)] * 3
    accepted = expanded.record_batch(
        columns[1].astype(np.int64), columns[0].astype(np.float64),
        columns[2].astype(np.int64), np.zeros(len(rows), dtype=np.int64),
    )
    empty = np.zeros(0, dtype=np.int64)
    assert closed.record_batch(empty, empty, empty, empty, folded) == accepted
    a, b = expanded.close_window(), closed.close_window()
    assert list(a.observations) == list(b.observations)
    assert (a.probes_sent, a.rejected_events) == (b.probes_sent, b.rejected_events)
    assert expanded.cost.as_dict() == closed.cost.as_dict()


# ---------------------------------------------------------------------------
# the coalescing horizon shapes the drains, never the run
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _storm_run(horizon: float):
    engine = _build_engine(
        build_fattree(4), episodes=_storm_episodes(), coalesce_horizon_seconds=horizon
    )
    return _observe(engine)


@given(st.floats(min_value=0.02, max_value=30.0))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_coalesce_horizon_never_changes_the_run(horizon):
    """From one firing per drain to one drain per window: same windows,
    counters, diagnoses, drop attribution and probing-generator state."""
    assert _storm_run(horizon) == _storm_run(10.0)
