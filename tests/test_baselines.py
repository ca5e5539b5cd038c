"""Tests for the competitor systems: Pingmesh(+Netbouncer) and NetNORAD(+fbtracert)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BaselineConfig,
    Fbtracert,
    Netbouncer,
    NetNORADSystem,
    PingmeshSystem,
)
from repro.routing import enumerate_fattree_paths
from repro.simulation import FailureScenario, LossMode, ProbeSimulator


class TestBaselineConfig:
    def test_pair_is_suspect(self):
        config = BaselineConfig(detection_loss_threshold=1e-3, detection_min_losses=1)
        assert config.pair_is_suspect(sent=100, lost=5)
        assert not config.pair_is_suspect(sent=100, lost=0)
        assert not config.pair_is_suspect(sent=100_000, lost=1)  # below the ratio

    @pytest.mark.parametrize(
        "kwargs",
        [dict(probes_per_pair=0), dict(localization_probes_per_path=0), dict(detection_loss_threshold=2.0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BaselineConfig(**kwargs)


class TestNetbouncer:
    def test_localizes_full_loss(self, fattree4, rng):
        paths = enumerate_fattree_paths(fattree4, ordered=True)
        pair = ("pod0_edge0", "pod1_edge0")
        pair_paths = [p for p in paths if (p.src, p.dst) == pair]
        bad_link = next(iter(pair_paths[0].link_ids - pair_paths[1].link_ids))
        simulator = ProbeSimulator(fattree4, FailureScenario.single_link(bad_link), rng)
        simulator.prime_paths(paths)
        rows = [p.path_id for p in pair_paths]
        result = Netbouncer(simulator, probes_per_path=10).localize({pair: rows})
        assert bad_link in result.suspected_links
        assert result.probes_sent == 10 * len(pair_paths)
        assert result.probed_paths == len(pair_paths)

    def test_healthy_pair_blames_nothing(self, fattree4, rng):
        paths = enumerate_fattree_paths(fattree4, ordered=True)
        pair = ("pod0_edge0", "pod1_edge0")
        pair_paths = [p for p in paths if (p.src, p.dst) == pair]
        simulator = ProbeSimulator(fattree4, FailureScenario(), rng)
        simulator.prime_paths(paths)
        result = Netbouncer(simulator).localize({pair: [p.path_id for p in pair_paths]})
        assert result.suspected_links == []


class TestFbtracert:
    def test_traces_loss_onset_hop(self, fattree4, rng):
        paths = enumerate_fattree_paths(fattree4, ordered=True)
        path = paths[40]
        # Fail the third hop of the walk.
        from repro.routing import walk_link_sequence

        sequence = walk_link_sequence(fattree4, path.nodes)
        bad_link = sequence[2]
        simulator = ProbeSimulator(fattree4, FailureScenario.single_link(bad_link), rng)
        tracer = Fbtracert(simulator, probes_per_hop=10)
        blamed, probes = tracer.trace_path(path.src, path.dst, sequence)
        assert blamed == bad_link
        assert probes > 0

    def test_clean_path_blames_nothing(self, fattree4, rng):
        paths = enumerate_fattree_paths(fattree4, ordered=True)
        simulator = ProbeSimulator(fattree4, FailureScenario(), rng)
        tracer = Fbtracert(simulator)
        blamed, _ = tracer.trace_path(paths[0].src, paths[0].dst, paths.hops(0))
        assert blamed is None

    def test_localize_multiple_pairs(self, fattree4, rng):
        paths = enumerate_fattree_paths(fattree4, ordered=True)
        pair = ("pod0_edge0", "pod2_edge0")
        pair_paths = [p for p in paths if (p.src, p.dst) == pair]
        bad_link = next(iter(pair_paths[0].link_ids - pair_paths[1].link_ids))
        simulator = ProbeSimulator(fattree4, FailureScenario.single_link(bad_link), rng)
        simulator.prime_paths(paths)
        tracer = Fbtracert(simulator, probes_per_hop=8)
        result = tracer.localize({pair: [p.path_id for p in pair_paths]})
        assert bad_link in result.suspected_links
        assert result.traced_paths == len(pair_paths)


class TestPingmeshSystem:
    def test_monitored_pairs_form_tor_complete_graph(self, fattree4, rng):
        system = PingmeshSystem(fattree4, rng)
        pairs = system.monitored_pairs()
        tors = len(fattree4.tor_switches)
        assert len(pairs) == tors * (tors - 1)

    def test_detects_and_localizes_full_loss(self, fattree4):
        system = PingmeshSystem(fattree4, np.random.default_rng(2), BaselineConfig(probes_per_pair=20))
        bad = fattree4.switch_links[5].link_id
        outcome = system.run_window(FailureScenario.single_link(bad))
        assert outcome.suspected_pairs
        assert bad in outcome.suspected_links
        assert outcome.localization_probes > 0
        assert outcome.time_to_localization_seconds == 60.0

    def test_healthy_network_costs_only_detection(self, fattree4):
        system = PingmeshSystem(fattree4, np.random.default_rng(3), BaselineConfig(probes_per_pair=5))
        outcome = system.run_window(FailureScenario())
        assert outcome.suspected_links == []
        assert outcome.localization_probes == 0
        assert outcome.total_probes == outcome.detection_probes
        assert outcome.time_to_localization_seconds == 30.0

    def test_detection_probe_accounting(self, fattree4):
        config = BaselineConfig(probes_per_pair=7)
        system = PingmeshSystem(fattree4, np.random.default_rng(4), config)
        outcome = system.run_window(FailureScenario())
        assert outcome.detection_probes == 7 * len(system.monitored_pairs())

    def test_probes_per_pair_override(self, fattree4):
        system = PingmeshSystem(fattree4, np.random.default_rng(4), BaselineConfig(probes_per_pair=5))
        outcome = system.run_window(FailureScenario(), probes_per_pair=11)
        assert outcome.detection_probes == 11 * len(system.monitored_pairs())


class TestNetNORADSystem:
    def test_pingers_live_in_a_subset_of_pods(self, fattree4, rng):
        system = NetNORADSystem(fattree4, rng, num_pinger_pods=2)
        pairs = system.monitored_pairs()
        source_pods = {fattree4.node(src).pod for src, _ in pairs}
        assert source_pods == {0, 1}
        # Every ToR is still a target.
        assert {dst for _, dst in pairs} == {n.name for n in fattree4.tor_switches}

    def test_detects_and_localizes_full_loss(self, fattree4):
        system = NetNORADSystem(fattree4, np.random.default_rng(8), BaselineConfig(probes_per_pair=20))
        bad = fattree4.link_between("pod2_agg0", "pod2_edge0").link_id
        outcome = system.run_window(FailureScenario.single_link(bad))
        assert bad in outcome.suspected_links
        assert outcome.time_to_localization_seconds == 60.0

    def test_invalid_pod_count_rejected(self, fattree4, rng):
        with pytest.raises(ValueError):
            NetNORADSystem(fattree4, rng, num_pinger_pods=0)

    def test_low_rate_loss_often_missed_by_ecmp_detection(self, fattree4):
        # §2 motivation: ECMP dilutes low-rate losses, so with a small probe
        # budget the baselines frequently miss them while deTector's pinned
        # probes do not.  We only require that misses happen at least once.
        misses = 0
        for seed in range(6):
            system = NetNORADSystem(
                fattree4, np.random.default_rng(seed), BaselineConfig(probes_per_pair=4)
            )
            bad = fattree4.switch_links[20].link_id
            scenario = FailureScenario.single_link(
                bad, mode=LossMode.RANDOM_PARTIAL, loss_rate=0.01
            )
            outcome = system.run_window(scenario)
            if bad not in outcome.suspected_links:
                misses += 1
        assert misses >= 1


class TestInputValidation:
    @pytest.mark.parametrize("factory", [PingmeshSystem, NetNORADSystem])
    def test_run_window_rejects_zero_probes_per_pair(self, fattree4, factory):
        system = factory(fattree4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="probes_per_pair"):
            system.run_window(FailureScenario(), probes_per_pair=0)

    @pytest.mark.parametrize(
        "kwargs", [dict(probes_per_hop=0), dict(loss_threshold=0.0), dict(loss_threshold=1.5)]
    )
    def test_fbtracert_rejects_bad_settings(self, fattree4, rng, kwargs):
        simulator = ProbeSimulator(fattree4, FailureScenario(), rng)
        with pytest.raises(ValueError):
            Fbtracert(simulator, **kwargs)

    @pytest.mark.parametrize("max_probes", [None, 100])
    def test_netbouncer_rejects_zero_probes_per_path(self, fattree4, rng, max_probes):
        simulator = ProbeSimulator(fattree4, FailureScenario(), rng)
        with pytest.raises(ValueError, match="probes_per_path"):
            Netbouncer(simulator, probes_per_path=0, max_probes=max_probes)


class TestOnePrimedTable:
    """A system primes its router's table once and probes rows of it: no
    window re-primes, and only the rows a plan compiles become ``Path``s."""

    @pytest.mark.parametrize("factory", [PingmeshSystem, NetNORADSystem])
    def test_prime_once_over_windows(self, fattree4, monkeypatch, factory):
        primes = []
        prime = ProbeSimulator.prime_paths

        def spy(self, paths):
            primes.append(len(paths))
            return prime(self, paths)

        monkeypatch.setattr(ProbeSimulator, "prime_paths", spy)
        system = factory(fattree4, np.random.default_rng(5), BaselineConfig(probes_per_pair=20))
        table = system._router.paths
        links = fattree4.switch_links
        localized = 0
        for window in range(4):
            scenario = FailureScenario.single_link(links[7 * window + 3].link_id)
            localized += system.run_window(scenario).localization_probes > 0
        assert primes == [len(table)]
        assert localized
        compiled = system._simulator.telemetry()["rows_compiled"]
        assert 0 < table.materialised_rows <= compiled
