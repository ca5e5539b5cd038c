"""Tests for the simulation substrate: failures, probing, workload, latency, resources."""

from __future__ import annotations

import numpy as np
import pytest

import scalar_probe_oracle as oracle
from repro.baselines.common import probe_pairs_ecmp, route_probes
from repro.localization import PathObservation
from repro.routing import ECMPRouter, ProbePacket, enumerate_fattree_paths
from repro.simulation import (
    FailureGenerator,
    FailureGeneratorConfig,
    FailureScenario,
    LatencyConfig,
    LatencyModel,
    LinkFailure,
    LossMode,
    PingerResourceModel,
    ProbeConfig,
    ProbeSimulator,
    WorkloadConfig,
    WorkloadModel,
)


class TestLinkFailure:
    def test_full_loss_effective_rate(self):
        failure = LinkFailure(link_id=1, mode=LossMode.FULL)
        assert failure.effective_loss_rate == 1.0

    def test_deterministic_partial_drops_consistently(self):
        failure = LinkFailure(link_id=1, mode=LossMode.DETERMINISTIC_PARTIAL, match_fraction=0.5)
        flow = ("a", "b", 1000, 2000, 17)
        assert failure.drops_flow(flow) == failure.drops_flow(flow)

    def test_deterministic_partial_fraction_approximate(self):
        failure = LinkFailure(link_id=3, mode=LossMode.DETERMINISTIC_PARTIAL, match_fraction=0.3)
        flows = [("a", "b", 1000 + i, 2000, 17) for i in range(2000)]
        dropped = sum(failure.drops_flow(f) for f in flows)
        assert 0.2 < dropped / len(flows) < 0.4
        assert failure.effective_loss_rate == pytest.approx(0.3)

    @pytest.mark.parametrize("kwargs", [dict(loss_rate=1.5), dict(match_fraction=0.0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LinkFailure(link_id=0, mode=LossMode.RANDOM_PARTIAL, **kwargs)


class TestFailureScenario:
    def test_single_link(self):
        scenario = FailureScenario.single_link(7)
        assert scenario.bad_link_ids == [7]
        assert scenario.failure_on(7).mode is LossMode.FULL
        assert scenario.failure_on(8) is None

    def test_switch_down(self, fattree4):
        switch = "pod0_agg0"
        scenario = FailureScenario.switch_down(fattree4, switch)
        incident = {l.link_id for l in fattree4.links_of(switch)}
        assert set(scenario.bad_link_ids) == incident
        assert scenario.failed_switches == (switch,)

    def test_add(self):
        scenario = FailureScenario()
        scenario.add(LinkFailure(link_id=2, mode=LossMode.FULL))
        assert scenario.num_failures == 1


class TestFailureGenerator:
    def test_generates_requested_count(self, fattree4, rng):
        generator = FailureGenerator(fattree4, rng)
        for count in (1, 3, 5):
            scenario = generator.generate(count)
            assert scenario.num_failures == count

    def test_failures_are_switch_links(self, fattree4, rng):
        generator = FailureGenerator(fattree4, rng)
        switch_links = {l.link_id for l in fattree4.switch_links}
        for _ in range(20):
            scenario = generator.generate_single()
            assert set(scenario.bad_link_ids) <= switch_links

    def test_all_modes_eventually_drawn(self, fattree4, rng):
        generator = FailureGenerator(fattree4, rng)
        modes = set()
        for _ in range(60):
            scenario = generator.generate_single()
            modes.update(f.mode for f in scenario.failures.values())
        assert modes == {LossMode.FULL, LossMode.DETERMINISTIC_PARTIAL, LossMode.RANDOM_PARTIAL}

    def test_random_loss_rates_within_buckets(self, fattree4, rng):
        config = FailureGeneratorConfig(
            mode_weights={LossMode.RANDOM_PARTIAL: 1.0},
            random_loss_rate_buckets=((1e-2, 1e-1, 1.0),),
        )
        generator = FailureGenerator(fattree4, rng, config)
        for _ in range(20):
            failure = list(generator.generate_single().failures.values())[0]
            assert 1e-2 <= failure.loss_rate <= 1e-1

    def test_too_many_failures_rejected(self, fattree4, rng):
        generator = FailureGenerator(fattree4, rng)
        with pytest.raises(ValueError):
            generator.generate(10_000)

    def test_zero_failures_rejected(self, fattree4, rng):
        generator = FailureGenerator(fattree4, rng)
        with pytest.raises(ValueError):
            generator.generate(0)

    def test_custom_link_universe(self, fattree4, rng):
        universe = [l.link_id for l in fattree4.switch_links[:4]]
        generator = FailureGenerator(fattree4, rng, link_ids=universe)
        for _ in range(10):
            assert set(generator.generate_single().bad_link_ids) <= set(universe)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(switch_failure_probability=1.5),
            dict(random_loss_rate_buckets=()),
            dict(random_loss_rate_buckets=((0.5, 0.1, 1.0),)),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            FailureGeneratorConfig(**kwargs)


class TestProbeSimulator:
    def test_healthy_network_no_losses(self, fattree4, fattree4_probe_matrix, rng):
        simulator = ProbeSimulator(fattree4, FailureScenario(), rng)
        observations = simulator.observe_probe_matrix(
            fattree4_probe_matrix, ProbeConfig(probes_per_path=20)
        )
        assert observations.total_lost() == 0

    def test_full_loss_drops_every_probe_on_affected_paths(
        self, fattree4, fattree4_probe_matrix, rng
    ):
        bad = fattree4_probe_matrix.link_ids[6]
        simulator = ProbeSimulator(fattree4, FailureScenario.single_link(bad), rng)
        observations = simulator.observe_probe_matrix(
            fattree4_probe_matrix, ProbeConfig(probes_per_path=10)
        )
        affected = set(fattree4_probe_matrix.paths_through(bad))
        for obs in observations:
            if obs.path_index in affected:
                assert obs.lost == obs.sent
            else:
                assert obs.lost == 0

    def test_random_loss_rate_roughly_matches(self, fattree4, fattree4_probe_matrix, rng):
        bad = fattree4_probe_matrix.link_ids[2]
        scenario = FailureScenario.single_link(bad, mode=LossMode.RANDOM_PARTIAL, loss_rate=0.3)
        simulator = ProbeSimulator(fattree4, scenario, rng)
        observations = simulator.observe_probe_matrix(
            fattree4_probe_matrix, ProbeConfig(probes_per_path=400)
        )
        affected = fattree4_probe_matrix.paths_through(bad)
        rates = [observations.get(i).loss_rate for i in affected]
        # Forward + reverse traversal: effective ~= 1 - 0.7^2 = 0.51.
        assert all(0.35 < r < 0.65 for r in rates)

    def test_reverse_path_disabled_halves_loss(self, fattree4, fattree4_probe_matrix):
        bad = fattree4_probe_matrix.link_ids[2]
        scenario = FailureScenario.single_link(bad, mode=LossMode.RANDOM_PARTIAL, loss_rate=0.3)
        one_way = ProbeSimulator(
            fattree4, scenario, np.random.default_rng(1), probe_reverse_path=False
        )
        observations = one_way.observe_probe_matrix(
            fattree4_probe_matrix, ProbeConfig(probes_per_path=400)
        )
        affected = fattree4_probe_matrix.paths_through(bad)
        rates = [observations.get(i).loss_rate for i in affected]
        assert all(0.2 < r < 0.4 for r in rates)

    def test_deterministic_partial_spares_some_ports(self, fattree4, fattree4_probe_matrix, rng):
        bad = fattree4_probe_matrix.link_ids[8]
        scenario = FailureScenario.single_link(
            bad, mode=LossMode.DETERMINISTIC_PARTIAL, match_fraction=0.3
        )
        simulator = ProbeSimulator(fattree4, scenario, rng)
        observations = simulator.observe_probe_matrix(
            fattree4_probe_matrix, ProbeConfig(probes_per_path=64, port_range=32)
        )
        affected = fattree4_probe_matrix.paths_through(bad)
        for index in affected:
            obs = observations.get(index)
            assert 0 < obs.lost < obs.sent

    def test_drop_accounting(self, fattree4, fattree4_probe_matrix, rng):
        bad = fattree4_probe_matrix.link_ids[6]
        simulator = ProbeSimulator(fattree4, FailureScenario.single_link(bad), rng)
        simulator.observe_probe_matrix(fattree4_probe_matrix, ProbeConfig(probes_per_path=5))
        assert simulator.drops_per_link.get(bad, 0) > 0
        assert set(simulator.drops_per_link) == {bad}

    def test_set_scenario_resets_accounting(self, fattree4, fattree4_probe_matrix, rng):
        bad = fattree4_probe_matrix.link_ids[6]
        simulator = ProbeSimulator(fattree4, FailureScenario.single_link(bad), rng)
        simulator.observe_probe_matrix(fattree4_probe_matrix, ProbeConfig(probes_per_path=5))
        simulator.set_scenario(FailureScenario())
        assert simulator.drops_per_link == {}
        assert simulator.scenario.num_failures == 0

    def test_probe_path_single(self, fattree4, fattree4_probe_matrix, rng):
        path = fattree4_probe_matrix.path(0)
        simulator = ProbeSimulator(fattree4, FailureScenario(), rng)
        observation = oracle.probe_path(simulator, path, ProbeConfig(probes_per_path=7))
        assert observation.sent == 7 and observation.lost == 0
        simulator.prime_paths(fattree4_probe_matrix.paths)
        sent, lost = simulator.probe_rows([0], [7], [ProbeConfig()], [0], [0])
        assert (sent.tolist(), lost.tolist()) == ([7], [0])

    def test_probe_path_reports_the_probe_matrix_row(self, fattree4, fattree4_probe_matrix, rng):
        # ``path_id`` is the row in the owning matrix, not in the enumeration
        # the matrix was cut from -- so the observation lands on the right row.
        simulator = ProbeSimulator(fattree4, FailureScenario(), rng)
        config = ProbeConfig(probes_per_path=1)
        for row in range(fattree4_probe_matrix.num_paths):
            path = fattree4_probe_matrix.path(row)
            assert oracle.probe_path(simulator, path, config).path_index == row

    def test_ecmp_probing_dilutes_single_path_failure(self, fattree4, rng):
        # A full-loss failure on one of the 4 parallel paths: pinned probing on
        # that path loses everything, ECMP probing between the pair loses only
        # about a quarter of the probes -- the §2 motivation for deTector.
        paths = enumerate_fattree_paths(fattree4, ordered=True)
        router = ECMPRouter(paths, seed=5)
        target_pair = ("pod0_edge0", "pod1_edge0")
        pair_paths = [p for p in paths if (p.src, p.dst) == target_pair]
        bad_path = pair_paths[0]
        bad_link = next(iter(bad_path.link_ids - pair_paths[1].link_ids))
        simulator = ProbeSimulator(fattree4, FailureScenario.single_link(bad_link), rng)
        simulator.prime_paths(router.paths)
        [outcome] = probe_pairs_ecmp(simulator, [target_pair], route_probes(router, [target_pair], 200))
        assert 0 < outcome.lost < outcome.sent
        assert outcome.loss_rate < 0.6

    def test_ecmp_probing_unknown_pair_raises(self, fattree4, rng):
        router = ECMPRouter([], seed=1)
        with pytest.raises(ValueError):
            route_probes(router, [("a", "b")], 5)

    def test_probe_config_validation(self):
        with pytest.raises(ValueError):
            ProbeConfig(probes_per_path=0)
        with pytest.raises(ValueError):
            ProbeConfig(port_range=0)

    def test_probe_config_rejects_empty_dscp_values(self):
        # packet_for cycles over the DSCP values: an empty tuple used to be
        # accepted and fail later with a ZeroDivisionError.
        with pytest.raises(ValueError, match="dscp_values"):
            ProbeConfig(dscp_values=())


class TestWorkloadAndLatency:
    def test_workload_utilization_in_range(self, fattree4, rng):
        paths = enumerate_fattree_paths(fattree4, ordered=False)
        workload = WorkloadModel(fattree4, paths, rng)
        utilization = workload.link_utilization()
        assert set(utilization) == {l.link_id for l in fattree4.switch_links}
        assert all(0.0 <= value <= 0.99 for value in utilization.values())
        assert workload.mean_utilization(utilization) > 0.0

    def test_workload_flows_have_valid_endpoints(self, fattree4, rng):
        paths = enumerate_fattree_paths(fattree4, ordered=False)
        workload = WorkloadModel(fattree4, paths, rng)
        flows = workload.generate_flows()
        assert flows
        for flow in flows[:50]:
            assert flow.src != flow.dst
            assert flow.size_bytes > 0

    def test_workload_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(pareto_shape=1.0)
        with pytest.raises(ValueError):
            WorkloadConfig(link_capacity_bps=0)

    def test_latency_grows_with_utilization(self, fattree4, rng):
        paths = enumerate_fattree_paths(fattree4, ordered=False)
        model = LatencyModel()
        path = paths[0]
        idle = model.path_rtt_us(path, {})
        busy = model.path_rtt_us(path, {l: 0.9 for l in path.link_ids})
        assert busy > idle

    def test_latency_add_probe_load(self, fattree4):
        paths = enumerate_fattree_paths(fattree4, ordered=False)[:10]
        base = {l.link_id: 0.1 for l in fattree4.switch_links}
        updated = LatencyModel.add_probe_load(base, paths, probes_per_second_per_path=100)
        assert all(updated[l] >= base[l] for l in base)
        assert any(updated[l] > base[l] for l in base)

    def test_workload_rtt_statistics(self, fattree4, rng):
        paths = enumerate_fattree_paths(fattree4, ordered=False)[:20]
        model = LatencyModel()
        sample = model.workload_rtt(paths, {l.link_id: 0.2 for l in fattree4.switch_links}, rng)
        assert sample.mean_rtt_us > 0
        assert sample.jitter_us >= 0
        assert sample.p99_rtt_us >= sample.mean_rtt_us

    def test_workload_rtt_requires_paths(self, rng):
        with pytest.raises(ValueError):
            LatencyModel().workload_rtt([], {}, rng)

    def test_latency_config_validation(self):
        with pytest.raises(ValueError):
            LatencyConfig(link_capacity_bps=0)
        with pytest.raises(ValueError):
            LatencyConfig(max_utilization=1.0)


class TestResourceModel:
    def test_paper_operating_point(self):
        usage = PingerResourceModel().usage(probes_per_second=10, num_paths=60)
        # §6.3: ~100 Kbps, ~0.4% CPU, ~13 MB at 10 probes/second.
        assert 100 <= usage.bandwidth_kbps <= 200
        assert 0.2 <= usage.cpu_percent <= 0.8
        assert 10 <= usage.memory_mb <= 16

    def test_linear_growth_with_frequency(self):
        model = PingerResourceModel()
        low = model.usage(5)
        high = model.usage(50)
        assert high.bandwidth_kbps == pytest.approx(10 * low.bandwidth_kbps)
        assert high.cpu_percent > low.cpu_percent

    def test_validation(self):
        with pytest.raises(ValueError):
            PingerResourceModel().usage(-1)
        with pytest.raises(ValueError):
            PingerResourceModel().usage(1, num_paths=-1)
