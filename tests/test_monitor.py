"""Tests for the monitoring components: pinglists, watchdog, controller, pinger, responder, diagnoser."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.localization import ObservationSet, merge_observations
from repro.monitor import (
    Controller,
    ControllerConfig,
    DetectorSystem,
    Diagnoser,
    Pinger,
    Pinglist,
    PinglistEntry,
    Responder,
    Watchdog,
    probe_window,
)
from repro.obs import Tracer, activated
from repro.routing import ProbePacket
from repro.simulation import FailureScenario, LossMode, ProbeSimulator


class TestPinglist:
    def make_pinglist(self):
        return Pinglist(
            version=3,
            pinger_server="pod0_edge0_srv0",
            entries=[
                PinglistEntry(0, "pod1_edge0_srv0", "core0_0", ("pod0_edge0", "pod0_agg0")),
                PinglistEntry(4, "pod2_edge1_srv1", "core1_1", ("pod0_edge0", "pod0_agg1")),
            ],
            intra_rack_targets=("pod0_edge0_srv1",),
            probes_per_second=15.0,
            dscp_values=(0, 8),
        )

    def test_basic_accessors(self):
        pinglist = self.make_pinglist()
        assert pinglist.num_paths == 2
        assert pinglist.path_indices() == [0, 4]

    def test_xml_round_trip(self):
        pinglist = self.make_pinglist()
        restored = Pinglist.from_xml(pinglist.to_xml())
        assert restored.version == pinglist.version
        assert restored.pinger_server == pinglist.pinger_server
        assert restored.path_indices() == pinglist.path_indices()
        assert restored.intra_rack_targets == pinglist.intra_rack_targets
        assert restored.probes_per_second == pinglist.probes_per_second
        assert restored.dscp_values == (0, 8)
        assert restored.entries[0].node_walk == pinglist.entries[0].node_walk

    def test_from_xml_rejects_wrong_root(self):
        with pytest.raises(ValueError):
            Pinglist.from_xml("<notapinglist/>")

    @pytest.mark.parametrize(
        "attribute, value",
        [
            ("source_port_low", "33450"),  # above source_port_high (33449)
            ("probes_per_second", "0"),
            ("probes_per_second", "-2.5"),
            ("report_interval_seconds", "0"),
            ("report_interval_seconds", "-30"),
        ],
    )
    def test_from_xml_rejects_malformed_probing_settings(self, attribute, value):
        payload = self.make_pinglist().to_xml()
        # Each attribute appears once in the root element.
        start = payload.index(f'{attribute}="') + len(attribute) + 2
        end = payload.index('"', start)
        with pytest.raises(ValueError, match=attribute):
            Pinglist.from_xml(payload[:start] + value + payload[end:])


class TestWatchdog:
    def test_server_health_tracking(self, fattree4):
        watchdog = Watchdog(fattree4)
        server = fattree4.servers[0].name
        assert watchdog.is_server_healthy(server)
        watchdog.mark_server_unhealthy(server)
        assert not watchdog.is_server_healthy(server)
        watchdog.mark_server_healthy(server)
        assert watchdog.is_server_healthy(server)

    def test_unknown_server_rejected(self, fattree4):
        with pytest.raises(Exception):
            Watchdog(fattree4).mark_server_unhealthy("ghost")

    def test_healthy_servers_under(self, fattree4):
        watchdog = Watchdog(fattree4)
        tor = fattree4.tor_switches[0].name
        servers = watchdog.healthy_servers_under(tor)
        assert len(servers) == 2
        watchdog.mark_server_unhealthy(servers[0])
        assert len(watchdog.healthy_servers_under(tor)) == 1

    def test_probe_topology_excludes_failed_link(self, fattree4):
        watchdog = Watchdog(fattree4)
        bad = fattree4.switch_links[0]
        watchdog.report_failed_link(bad.link_id)
        filtered = watchdog.probe_topology()
        assert not filtered.has_link(bad.a, bad.b)
        assert len(filtered.links) == len(fattree4.links) - 1

    def test_probe_topology_excludes_failed_switch(self, fattree4):
        watchdog = Watchdog(fattree4)
        watchdog.report_failed_switch("pod0_agg0")
        filtered = watchdog.probe_topology()
        assert "pod0_agg0" not in filtered.nodes

    def test_probe_topology_switch_and_link(self, fattree4):
        watchdog = Watchdog(fattree4)
        watchdog.report_failed_switch("pod0_agg0")
        other = fattree4.link_between("pod1_edge0", "pod1_agg0")
        watchdog.report_failed_link(other.link_id)
        filtered = watchdog.probe_topology()
        assert "pod0_agg0" not in filtered.nodes
        assert not filtered.has_link("pod1_edge0", "pod1_agg0")

    def test_clear_network_failures(self, fattree4):
        watchdog = Watchdog(fattree4)
        watchdog.report_failed_link(0)
        watchdog.clear_network_failures()
        assert len(watchdog.probe_topology().links) == len(fattree4.links)


class TestControllerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(pingers_per_tor=0), dict(path_replication=0), dict(probes_per_second=0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)


class TestController:
    def test_run_cycle_produces_valid_matrix(self, fattree4):
        controller = Controller(fattree4, ControllerConfig(alpha=2, beta=1))
        cycle = controller.run_cycle()
        assert cycle.version == 1
        assert cycle.probe_matrix.satisfies_coverage(2)
        assert cycle.num_pingers == 2 * len(fattree4.tor_switches)

    def test_versions_increment(self, fattree4):
        controller = Controller(fattree4, ControllerConfig(alpha=1, beta=1))
        assert controller.run_cycle().version == 1
        assert controller.run_cycle().version == 2

    def test_every_path_assigned_to_replication_pingers(self, fattree4):
        config = ControllerConfig(alpha=2, beta=1, path_replication=2, pingers_per_tor=2)
        cycle = Controller(fattree4, config).run_cycle()
        assignments = {}
        for pinglist in cycle.pinglists.values():
            for index in pinglist.path_indices():
                assignments[index] = assignments.get(index, 0) + 1
        assert set(assignments) == set(range(cycle.probe_matrix.num_paths))
        assert all(count == 2 for count in assignments.values())

    def test_pinger_owns_only_paths_from_its_rack(self, fattree4):
        cycle = Controller(fattree4, ControllerConfig(alpha=2, beta=1)).run_cycle()
        for server, pinglist in cycle.pinglists.items():
            tor = fattree4.tor_of(server).name
            for index in pinglist.path_indices():
                assert cycle.probe_matrix.path(index).src == tor

    def test_targets_are_servers_under_destination_tor(self, fattree4):
        cycle = Controller(fattree4, ControllerConfig(alpha=2, beta=1)).run_cycle()
        for pinglist in cycle.pinglists.values():
            for entry in pinglist.entries:
                path = cycle.probe_matrix.path(entry.path_index)
                target_tor = fattree4.tor_of(entry.target_server).name
                assert target_tor == path.dst

    def test_unhealthy_servers_not_selected_as_pingers(self, fattree4):
        watchdog = Watchdog(fattree4)
        tor = fattree4.tor_switches[0].name
        for server in fattree4.servers_under(tor):
            watchdog.mark_server_unhealthy(server.name)
        controller = Controller(fattree4, ControllerConfig(alpha=1, beta=1), watchdog=watchdog)
        assignment = controller.select_pingers()
        # Falls back to the ToR itself when no healthy server exists.
        assert assignment[tor] == [tor]

    def test_failed_link_avoided_in_probe_paths(self, fattree4):
        watchdog = Watchdog(fattree4)
        bad = fattree4.switch_links[3]
        watchdog.report_failed_link(bad.link_id)
        controller = Controller(fattree4, ControllerConfig(alpha=1, beta=1), watchdog=watchdog)
        cycle = controller.run_cycle()
        for index in range(cycle.probe_matrix.num_paths):
            assert bad.link_id not in cycle.probe_matrix.links_on(index)

    def test_pingers_per_tor_bounded_by_available_servers(self, fattree4):
        config = ControllerConfig(alpha=1, beta=1, pingers_per_tor=4)
        assignment = Controller(fattree4, config).select_pingers()
        for servers in assignment.values():
            assert len(servers) == 2  # only two servers per rack in Fattree(4)

    def test_pinglists_read_server_health_once_per_tor(self, fattree6, monkeypatch):
        # One {ToR: healthy servers} read per cycle, shared by pinger
        # selection and responder choice -- the same pinglists as one
        # watchdog read per selected path gave.
        watchdog = Watchdog(fattree6)
        watchdog.mark_server_unhealthy("pod0_edge0_srv1")
        for server in fattree6.servers_under("pod2_edge1"):
            watchdog.mark_server_unhealthy(server.name)
        reads = []
        read = watchdog.healthy_servers_under

        def counted(tor_name):
            reads.append(tor_name)
            return read(tor_name)

        monkeypatch.setattr(watchdog, "healthy_servers_under", counted)
        controller = Controller(fattree6, ControllerConfig(alpha=2, beta=1), watchdog=watchdog)
        cycle = controller.run_cycle()
        assert len(reads) == len(fattree6.tor_switches)

        for pinglist in cycle.pinglists.values():
            for entry in pinglist.entries:
                dst = cycle.probe_matrix.path(entry.path_index).dst
                servers = read(dst)
                expected = servers[entry.path_index % len(servers)] if servers else dst
                assert entry.target_server == expected
        digest = hashlib.sha256(
            "".join(cycle.pinglists[name].to_xml() for name in sorted(cycle.pinglists)).encode()
        ).hexdigest()
        assert digest == "24e0506400378de9687ae9b22990896266a4bc779ca0d7c154028a777f7a2484"

        # Without the shared read, a build still reads each destination once.
        reads.clear()
        rebuilt = controller.build_pinglists(cycle.probe_matrix, cycle.pinger_assignment)
        assert len(reads) <= len(fattree6.tor_switches)
        assert {name: p.entries for name, p in rebuilt.items()} == {
            name: p.entries for name, p in cycle.pinglists.items()
        }

    def test_pinglist_build_emits_a_span(self, fattree4):
        tracer = Tracer()
        controller = Controller(fattree4, ControllerConfig(alpha=2, beta=1))
        with activated(tracer):
            cycle = controller.run_cycle()
        (span,) = [sp for sp in tracer.finished_spans() if sp.name == "controller.pinglist"]
        assert span.informational and span.wall_seconds >= 0
        assert span.labels == {
            "pingers": len(cycle.pinglists),
            "entries": sum(len(pinglist.entries) for pinglist in cycle.pinglists.values()),
        }


class TestResponder:
    def test_echoes_matching_packet(self):
        responder = Responder(server_name="srv1", listen_port=53535)
        packet = ProbePacket("srv0", "srv1", 40000, 53535)
        echo = responder.handle(packet)
        assert echo is not None
        assert echo.src_server == "srv1" and echo.dst_server == "srv0"
        assert echo.dst_port == 40000
        assert responder.echoes == 1

    def test_ignores_wrong_port_or_server(self):
        responder = Responder(server_name="srv1", listen_port=53535)
        assert responder.handle(ProbePacket("srv0", "srv1", 40000, 9)) is None
        assert responder.handle(ProbePacket("srv0", "srv9", 40000, 53535)) is None
        assert responder.echoes == 0


class TestPinger:
    def make_pinger(self, fattree4, probe_matrix, scenario, probes_per_second=10.0, confirm=0):
        pinglist = Pinglist(
            version=1,
            pinger_server="pod0_edge0_srv0",
            probes_per_second=probes_per_second,
        )
        for index, path in enumerate(probe_matrix.paths):
            if path.src == "pod0_edge0":
                pinglist.entries.append(
                    PinglistEntry(index, "x", path.via, path.nodes)
                )
        simulator = ProbeSimulator(fattree4, scenario, np.random.default_rng(0))
        simulator.prime_paths(probe_matrix.paths)
        return Pinger(pinglist, simulator, confirm_losses=confirm)

    def test_probe_budget_split_across_paths(self, fattree4, fattree4_probe_matrix):
        pinger = self.make_pinger(fattree4, fattree4_probe_matrix, FailureScenario())
        per_path = pinger.probes_per_path_per_window()
        budget = 10.0 * 30
        assert per_path == int(budget // pinger.pinglist.num_paths)
        assert pinger.probes_per_window() == per_path * pinger.pinglist.num_paths

    def test_healthy_run_reports_no_losses(self, fattree4, fattree4_probe_matrix):
        pinger = self.make_pinger(fattree4, fattree4_probe_matrix, FailureScenario())
        [report] = probe_window([pinger])
        assert report.probes_lost == 0
        assert report.loss_rate == 0.0
        assert len(report.observations) == pinger.pinglist.num_paths

    def test_losses_reported_and_confirmed(self, fattree4, fattree4_probe_matrix):
        # Fail a link crossed by this pinger's ToR.
        bad = None
        for index, path in enumerate(fattree4_probe_matrix.paths):
            if path.src == "pod0_edge0":
                bad = next(iter(fattree4_probe_matrix.links_on(index)))
                break
        scenario = FailureScenario.single_link(bad)
        pinger = self.make_pinger(fattree4, fattree4_probe_matrix, scenario, confirm=2)
        [report] = probe_window([pinger])
        assert report.probes_lost > 0
        # Confirmation probes inflate the sent count beyond the nominal budget.
        assert report.probes_sent > pinger.probes_per_window()


class TestDiagnoser:
    def test_window_lifecycle(self, fattree4, fattree4_probe_matrix, rng):
        diagnoser = Diagnoser(fattree4, fattree4_probe_matrix)
        bad = fattree4_probe_matrix.link_ids[10]
        simulator = ProbeSimulator(fattree4, FailureScenario.single_link(bad), rng)
        observations = simulator.observe_probe_matrix(fattree4_probe_matrix)
        from repro.monitor import PingerReport

        report = PingerReport(
            pinger_server="p", window_seconds=30, observations=observations,
            probes_sent=observations.total_sent(), probes_lost=observations.total_lost(),
        )
        diagnosis = diagnoser.diagnose(merge_observations([report.observations]))
        # The one report is the whole window.
        assert diagnosis.probes_analyzed == report.probes_sent
        assert diagnosis.suspected_links == [bad]
        assert diagnosis.window_index == 0
        assert len(diagnoser.history) == 1
        assert diagnosis.alerts[0].link_id == bad
        assert "<->" in diagnosis.alerts[0].describe()

    def test_empty_window(self, fattree4, fattree4_probe_matrix):
        diagnoser = Diagnoser(fattree4, fattree4_probe_matrix)
        diagnosis = diagnoser.diagnose(ObservationSet())
        assert diagnosis.suspected_links == []
        assert diagnosis.probes_analyzed == 0

    def test_update_probe_matrix(self, fattree4, fattree4_probe_matrix, fattree4_probe_matrix_11):
        diagnoser = Diagnoser(fattree4, fattree4_probe_matrix)
        diagnoser.update_probe_matrix(fattree4_probe_matrix_11)
        assert diagnoser.probe_matrix is fattree4_probe_matrix_11


class TestDetectorSystem:
    def test_end_to_end_single_failure(self, fattree4):
        system = DetectorSystem(fattree4, np.random.default_rng(5))
        system.run_controller_cycle()
        bad = fattree4.switch_links[14].link_id
        outcome = system.run_window(FailureScenario.single_link(bad))
        assert outcome.suspected_links == [bad]
        assert outcome.metrics.accuracy == 1.0
        assert outcome.probes_sent > 0

    def test_probe_matrix_property_requires_cycle(self, fattree4):
        system = DetectorSystem(fattree4, np.random.default_rng(5))
        with pytest.raises(RuntimeError):
            _ = system.probe_matrix

    def test_window_autostarts_cycle(self, fattree4):
        system = DetectorSystem(fattree4, np.random.default_rng(5))
        outcome = system.run_window(FailureScenario())
        assert outcome.metrics.accuracy == 1.0
        assert outcome.suspected_links == []

    def test_down_pinger_does_not_break_monitoring(self, fattree4):
        system = DetectorSystem(fattree4, np.random.default_rng(6))
        system.run_controller_cycle()
        # Take down one pinger; its paths are still covered by its rack mate.
        some_pinger = next(iter(system.cycle.pinglists))
        system.watchdog.mark_server_unhealthy(some_pinger)
        bad = fattree4.switch_links[9].link_id
        outcome = system.run_window(FailureScenario.single_link(bad))
        assert bad in outcome.suspected_links
        assert len(outcome.pinger_reports) == system.cycle.num_pingers - 1

    def test_switch_down_scenario(self, fattree4):
        system = DetectorSystem(fattree4, np.random.default_rng(7))
        system.run_controller_cycle()
        scenario = FailureScenario.switch_down(fattree4, "pod2_agg1")
        outcome = system.run_window(scenario)
        # A dead switch and the failure of all its links are indistinguishable
        # from end-to-end observations (§4.1), so PLL reports the smallest
        # explaining set.  What matters operationally: every suspect must be a
        # link of the dead switch, and at least one of them must be blamed so
        # the operator is pointed at the right device.
        incident = {
            l.link_id for l in fattree4.links_of("pod2_agg1")
            if system.probe_matrix.contains_link(l.link_id)
        }
        assert outcome.suspected_links
        assert set(outcome.suspected_links) <= incident
        assert outcome.metrics.false_positive_ratio == 0.0
