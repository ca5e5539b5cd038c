"""Tests for the discrete-event telemetry engine.

Covers the event loop's determinism, the stream aggregator's window
semantics (rollover, out-of-order rejection, equivalence with the merge of
a window's pinger reports), the fault models, batched probing, seeded
reproducibility, the static-pipeline differential guarantee and the CLI
surface.
"""

from __future__ import annotations

import numpy as np
import pytest

import scalar_probe_oracle as oracle

from repro.engine import (
    CongestionEpisode,
    DynamicFaultModel,
    EngineConfig,
    EventLoop,
    FlappingLink,
    GrayFailure,
    ProbeScheduler,
    SimClock,
    StreamAggregator,
    SwitchOutage,
    TelemetryEngine,
)
from repro.localization import ObservationSet, PathObservation, merge_observations
from repro.monitor import ControllerConfig, DetectorSystem
from repro.simulation import (
    FailureScenario,
    LinkFailure,
    LossMode,
    ProbeConfig,
    ProbeSimulator,
    SeededStreams,
)


# ---------------------------------------------------------------------------
# event loop + clock
# ---------------------------------------------------------------------------

class TestEventLoop:
    def test_events_run_in_time_priority_sequence_order(self):
        loop = EventLoop()
        trace = []
        loop.schedule_at(5.0, lambda: trace.append("late"))
        loop.schedule_at(1.0, lambda: trace.append("b"), priority=1)
        loop.schedule_at(1.0, lambda: trace.append("a"), priority=0)
        loop.schedule_at(1.0, lambda: trace.append("c"), priority=1)
        loop.run()
        assert trace == ["a", "b", "c", "late"]
        assert loop.clock.now == 5.0
        assert loop.events_processed == 4

    def test_run_until_leaves_future_events_pending(self):
        loop = EventLoop()
        trace = []
        loop.schedule_at(1.0, lambda: trace.append(1))
        loop.schedule_at(10.0, lambda: trace.append(10))
        assert loop.run_until(5.0) == 1
        assert trace == [1]
        assert loop.clock.now == 5.0
        assert loop.pending == 1

    def test_cancelled_events_do_not_run(self):
        loop = EventLoop()
        trace = []
        handle = loop.schedule_at(1.0, lambda: trace.append("no"))
        loop.schedule_at(2.0, lambda: trace.append("yes"))
        handle.cancel()
        loop.run()
        assert trace == ["yes"]

    def test_scheduling_in_the_past_rejected(self):
        loop = EventLoop()
        loop.schedule_at(4.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(3.0, lambda: None)

    def test_frozen_clock_blocks_advancement(self):
        clock = SimClock(0.0)
        clock.freeze()
        loop = EventLoop(clock)
        loop.schedule_at(0.0, lambda: None)
        loop.run()  # same-instant events are fine
        loop.schedule_at(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            loop.run()


# ---------------------------------------------------------------------------
# stream aggregator window semantics
# ---------------------------------------------------------------------------

class TestStreamAggregator:
    def make(self, probe_matrix, window=30.0, **kwargs):
        return StreamAggregator(probe_matrix.incidence, window, **kwargs)

    def test_window_rollover_resets_counters(self, fattree4_probe_matrix):
        agg = self.make(fattree4_probe_matrix)
        agg.record(0, 1.0, sent=10, lost=2)
        agg.record(1, 5.0, sent=5, lost=0)
        first = agg.close_window()
        assert first.index == 0 and (first.start, first.end) == (0.0, 30.0)
        assert first.probes_sent == 15 and first.probes_lost == 2
        assert [obs.path_index for obs in first.observations] == [0, 1]
        # Next window starts clean on the grid.
        assert (agg.window_start, agg.window_end) == (30.0, 60.0)
        agg.record(0, 31.0, sent=3, lost=3)
        second = agg.close_window()
        assert second.index == 1
        assert second.probes_sent == 3 and second.probes_lost == 3
        assert [obs.sent for obs in second.observations] == [3]

    def test_out_of_order_events_rejected(self, fattree4_probe_matrix):
        agg = self.make(fattree4_probe_matrix)
        agg.record(0, 29.0, sent=1)
        report = agg.close_window()
        assert report.rejected_events == 0
        # An event stamped inside the already-closed window must not leak in.
        assert agg.record(0, 12.0, sent=7, lost=7) is False
        assert agg.total_rejected == 1
        assert agg.close_window().probes_sent == 0

    def test_future_events_raise_until_window_closed(self, fattree4_probe_matrix):
        agg = self.make(fattree4_probe_matrix)
        with pytest.raises(ValueError):
            agg.record(0, 30.0, sent=1)
        agg.close_window()
        assert agg.record(0, 30.0, sent=1) is True

    def test_invalid_records_rejected(self, fattree4_probe_matrix):
        agg = self.make(fattree4_probe_matrix)
        with pytest.raises(IndexError):
            agg.record(10**6, 1.0, sent=1)
        with pytest.raises(ValueError):
            agg.record(0, 1.0, sent=1, lost=2)

    def test_per_link_counters_match_incidence(self, fattree4_probe_matrix):
        agg = self.make(fattree4_probe_matrix)
        agg.record(0, 0.0, sent=4, lost=1)
        agg.record(2, 0.0, sent=4, lost=0)
        report = agg.close_window()
        lossy_links = set(report.lossy_links())
        assert lossy_links == set(fattree4_probe_matrix.links_on(0))
        for position, link_id in enumerate(report.link_ids):
            expected_sent = (4 if 0 in fattree4_probe_matrix.paths_through(link_id) else 0) + (
                4 if 2 in fattree4_probe_matrix.paths_through(link_id) else 0
            )
            assert report.link_sent[position] == expected_sent

    def test_event_exactly_at_window_start_accepted(self, fattree4_probe_matrix):
        """The window interval is [start, end): a timestamp equal to
        window_start belongs to the open window, not the closed one."""
        agg = self.make(fattree4_probe_matrix)
        agg.close_window()  # open window is now exactly [30, 60)
        assert agg.window_start == 30.0
        assert agg.record(0, 30.0, sent=2, lost=1) is True
        report = agg.close_window()
        assert report.probes_sent == 2 and report.probes_lost == 1
        assert report.rejected_events == 0
        assert agg.total_rejected == 0

    def test_event_just_before_window_start_rejected_and_counted(self, fattree4_probe_matrix):
        agg = self.make(fattree4_probe_matrix)
        agg.close_window()
        before = 30.0 - 1e-9
        assert agg.record(0, before, sent=5, lost=5) is False
        assert agg.total_rejected == 1
        report = agg.close_window()
        # The late event contaminated nothing and shows up in the rejection
        # counter of the window that was open when it arrived.
        assert report.probes_sent == 0 and report.probes_lost == 0
        assert report.rejected_events == 1

    def test_rejection_counters_survive_close_across_consecutive_windows(
        self, fattree4_probe_matrix
    ):
        agg = self.make(fattree4_probe_matrix)
        agg.close_window()  # window 1: [30, 60)
        assert agg.record(0, 10.0, sent=1) is False  # late into window 1
        first = agg.close_window()  # window 2: [60, 90)
        assert first.rejected_events == 1
        assert agg.record(0, 59.0, sent=1) is False  # late into window 2
        assert agg.record(0, 45.0, sent=1) is False
        second = agg.close_window()
        # Per-window counts reset at each rollover; the running total never does.
        assert second.rejected_events == 2
        assert agg.total_rejected == 3
        assert agg.close_window().rejected_events == 0
        assert agg.total_rejected == 3
        assert agg.cost["aggregator_events_rejected"] == 3

    def test_cost_counters_track_folds_and_windows(self, fattree4_probe_matrix):
        agg = self.make(fattree4_probe_matrix)
        agg.record(0, 1.0, sent=10, lost=2)
        agg.record(1, 2.0, sent=5, lost=0)
        agg.close_window()
        agg.record(0, 12.0, sent=1)  # late: the open window is [30, 60)
        agg.close_window()
        counters = agg.cost.as_dict()
        assert counters["aggregator_events_accepted"] == 2
        assert counters["aggregator_events_rejected"] == 1
        assert counters["aggregator_probes_folded"] == 15
        assert counters["aggregator_windows_closed"] == 2

    def test_frozen_clock_fold_equals_snapshot_merge(self, fattree4):
        """Counter equivalence: aggregator fold == merge_observations on the
        same pinger reports, every observation folded at one instant."""
        rng = np.random.default_rng(42)
        system = DetectorSystem(fattree4, rng, ControllerConfig(alpha=2, beta=1))
        system.run_controller_cycle()
        bad = system.probe_matrix.link_ids[3]

        reports = system.run_window(FailureScenario.single_link(bad)).pinger_reports
        merged = merge_observations([r.observations for r in reports])

        agg = StreamAggregator(system.probe_matrix.incidence, 30.0)
        for report in reports:
            for obs in report.observations:
                agg.record(obs.path_index, 0.0, obs.sent, obs.lost)
        window = agg.close_window(0.0)

        assert list(window.observations) == list(merged)
        assert window.probes_sent == merged.total_sent()
        assert window.probes_lost == merged.total_lost()


# ---------------------------------------------------------------------------
# batched probing kernel
# ---------------------------------------------------------------------------

class TestBatchedProbing:
    def _path_and_sim(self, topology, probe_matrix, scenario, seed=0):
        rng = np.random.default_rng(seed)
        simulator = ProbeSimulator(topology, scenario, rng)
        # A path crossing the (first) failed link when there is one.
        if scenario.bad_link_ids:
            row = probe_matrix.paths_through(scenario.bad_link_ids[0])[0]
        else:
            row = 0
        return probe_matrix.paths[row], simulator

    def test_healthy_path_costs_nothing_and_loses_nothing(self, fattree4, fattree4_probe_matrix):
        path, simulator = self._path_and_sim(
            fattree4, fattree4_probe_matrix, FailureScenario(description="clean")
        )
        sent, lost = simulator.probe_path_batch(path, ProbeConfig(), 500)
        assert (sent, lost) == (500, 0)

    def test_full_loss_drops_everything_including_confirms(self, fattree4, fattree4_probe_matrix):
        bad = fattree4_probe_matrix.link_ids[0]
        path, simulator = self._path_and_sim(
            fattree4, fattree4_probe_matrix, FailureScenario.single_link(bad)
        )
        sent, lost = simulator.probe_path_batch(path, ProbeConfig(), 10, confirm_losses=2)
        assert sent == 10 + 10 * 2
        assert lost == 30
        # Full loss kills every probe on the forward pass: one drop per attempt.
        assert simulator.drops_per_link[bad] == 30

    def test_deterministic_partial_matches_scalar_decisions(self, fattree4, fattree4_probe_matrix):
        bad = fattree4_probe_matrix.link_ids[0]
        scenario = FailureScenario.single_link(
            bad, mode=LossMode.DETERMINISTIC_PARTIAL, match_fraction=0.4
        )
        path, simulator = self._path_and_sim(fattree4, fattree4_probe_matrix, scenario)
        config = ProbeConfig(port_range=8)
        sent_b, lost_b = simulator.probe_path_batch(path, config, 64)
        # Scalar reference on a fresh simulator (deterministic loss: no rng).
        _, reference = self._path_and_sim(fattree4, fattree4_probe_matrix, scenario)
        lost_s = sum(
            0 if oracle.round_trip(reference, path, config.packet_for(path, seq)) else 1
            for seq in range(64)
        )
        assert (sent_b, lost_b) == (64, lost_s)

    def test_random_partial_loss_is_statistically_consistent(self, fattree4, fattree4_probe_matrix):
        bad = fattree4_probe_matrix.link_ids[0]
        scenario = FailureScenario.single_link(
            bad, mode=LossMode.RANDOM_PARTIAL, loss_rate=0.3
        )
        path, simulator = self._path_and_sim(fattree4, fattree4_probe_matrix, scenario, seed=9)
        sent, lost = simulator.probe_path_batch(path, ProbeConfig(), 4000)
        # Round trip crosses the link twice: p_loss = 1 - 0.7**2 = 0.51.
        assert sent == 4000
        assert 0.45 < lost / sent < 0.57


# ---------------------------------------------------------------------------
# fault dynamics
# ---------------------------------------------------------------------------

class TestDynamicFaultModel:
    def test_congestion_episode_opens_and_closes_interval(self, fattree4):
        model = DynamicFaultModel(fattree4, episodes=[
            CongestionEpisode(link_id=3, start_time=10.0, duration_seconds=25.0, loss_rate=0.08)
        ])
        loop = EventLoop()
        model.install(loop, horizon=100.0)
        loop.run_until(12.0)
        assert model.active_fault_links() == [3]
        assert model.scenario.failures[3].loss_rate == 0.08
        loop.run_until(40.0)
        assert model.active_fault_links() == []
        assert model.fault_intervals[3] == [[10.0, 35.0]]

    def test_flapping_link_produces_alternating_transitions(self, fattree4):
        model = DynamicFaultModel(
            fattree4,
            episodes=[FlappingLink(link_id=5, half_life_up_seconds=10.0,
                                   half_life_down_seconds=5.0)],
            rng=np.random.default_rng(1),
        )
        loop = EventLoop()
        model.install(loop, horizon=500.0)
        loop.run_until(500.0)
        states = [t.active for t in model.transitions]
        assert len(states) >= 4
        assert all(a != b for a, b in zip(states, states[1:]))  # strict alternation
        for start, end in model.fault_intervals[5][:-1]:
            assert end is not None and end > start

    def test_flapping_is_reproducible_per_seed(self, fattree4):
        def timeline(seed):
            model = DynamicFaultModel(
                fattree4,
                episodes=[FlappingLink(link_id=5)],
                rng=np.random.default_rng(seed),
            )
            loop = EventLoop()
            model.install(loop, horizon=1000.0)
            loop.run_until(1000.0)
            return [(t.time, t.active) for t in model.transitions]

        assert timeline(7) == timeline(7)
        assert timeline(7) != timeline(8)

    def test_switch_outage_hits_every_incident_link(self, fattree4):
        switch = fattree4.switches[0].name
        incident = {link.link_id for link in fattree4.links_of(switch)}
        model = DynamicFaultModel(fattree4, episodes=[
            SwitchOutage(switch_name=switch, start_time=5.0, duration_seconds=10.0)
        ])
        loop = EventLoop()
        model.install(loop, horizon=50.0)
        loop.run_until(7.0)
        assert set(model.active_fault_links()) == incident
        loop.run_until(20.0)
        assert model.active_fault_links() == []

    def test_gray_failure_is_silent_to_watchdog_but_active(self, fattree4):
        model = DynamicFaultModel(fattree4, episodes=[GrayFailure(link_id=2, start_time=0.0)])
        loop = EventLoop()
        model.install(loop, horizon=10.0)
        loop.run_until(1.0)
        assert model.scenario.failures[2].mode is LossMode.DETERMINISTIC_PARTIAL

    def test_overlapping_episodes_compose_instead_of_cancelling(self, fattree4):
        """A shared link must stay faulty until the *last* holder releases it."""
        switch_a = fattree4.tor_switches[0].name
        shared = fattree4.links_of(switch_a)[0]
        other_switch = shared.a if shared.a != switch_a else shared.b
        model = DynamicFaultModel(fattree4, episodes=[
            SwitchOutage(switch_name=switch_a, start_time=0.0, duration_seconds=100.0),
            SwitchOutage(switch_name=other_switch, start_time=0.0, duration_seconds=50.0),
        ])
        loop = EventLoop()
        model.install(loop, horizon=200.0)
        loop.run_until(60.0)
        # The shorter outage ended, but the longer one still holds the link.
        assert shared.link_id in model.active_fault_links()
        loop.run_until(150.0)
        assert shared.link_id not in model.active_fault_links()
        assert model.fault_intervals[shared.link_id] == [[0.0, 100.0]]

    def test_released_override_hands_the_link_back_to_the_remaining_holder(self, fattree4):
        """A flap on a gray link drops everything while it is down; once it is
        back up the link is gray again, not stuck at full loss."""
        link = 5
        gray = GrayFailure(link_id=link, start_time=0.0, end_time=400.0)
        model = DynamicFaultModel(fattree4, episodes=[
            gray,
            FlappingLink(link_id=link, start_time=10.0, end_time=300.0,
                         half_life_up_seconds=10.0, half_life_down_seconds=5.0),
        ], rng=SeededStreams(3).generator("fault-dynamics"))
        loop = EventLoop()
        model.install(loop, horizon=500.0)
        modes = []
        for step in range(1, 500):
            loop.run_until(step * 1.0)
            failure = model.scenario.failure_on(link)
            modes.append(None if failure is None else failure.mode)
        gray_mode, full = LossMode.DETERMINISTIC_PARTIAL, LossMode.FULL
        assert full in modes[:300]
        assert modes[300:399] == [gray_mode] * 99  # the last flap is up, gray holds
        assert modes[400:] == [None] * 99
        # A flap going up hands the link back to gray; it never heals early.
        assert set(modes[:399]) == {gray_mode, full}
        assert modes[0] is gray_mode
        assert model.fault_intervals[link] == [[0.0, 400.0]]
        assert [t.active for t in model.transitions if t.link_id == link] == [True, False]

    def test_static_model_carries_ground_truth(self, fattree4):
        scenario = FailureScenario.single_link(4)
        model = DynamicFaultModel.static(fattree4, scenario)
        assert model.fault_start(4) == 0.0
        assert model.active_fault_links() == [4]


# ---------------------------------------------------------------------------
# end-to-end engine runs
# ---------------------------------------------------------------------------

def build_system(topology, seed=2017, **config):
    streams = SeededStreams(seed)
    system = DetectorSystem(
        topology, streams.generator("probing"),
        ControllerConfig(alpha=2, beta=1, **config),
    )
    return system, streams


class TestTelemetryEngine:
    def test_snapshot_run_matches_static_pipeline_exactly(self, fattree4):
        """The differential guarantee: the product window (one bulk call of
        count-1 rows) reproduces the per-packet snapshot's localization, its
        stream fold and its probe count exactly."""
        bad = 7
        scenario = FailureScenario.single_link(bad)

        system_a, _ = build_system(fattree4)
        system_a.run_controller_cycle()
        outcome = system_a.run_window(scenario)  # the product pipeline

        system_b, _ = build_system(fattree4)
        system_b.run_controller_cycle()
        reports, diagnosis, window = oracle.snapshot_window(system_b, scenario)

        assert diagnosis.suspected_links == outcome.diagnosis.suspected_links
        assert diagnosis.localization.estimated_loss_rates == (
            outcome.diagnosis.localization.estimated_loss_rates
        )
        merged = merge_observations([r.observations for r in outcome.pinger_reports])
        assert list(window.observations) == list(merged)
        assert window.probes_sent == outcome.probes_sent

    def test_timed_run_localizes_static_fault(self, fattree4):
        system, streams = build_system(fattree4)
        scenario = FailureScenario.single_link(9)
        model = DynamicFaultModel.static(fattree4, scenario)
        engine = TelemetryEngine(
            system, model,
            EngineConfig(window_seconds=30.0, cycle_seconds=60.0),
            rng=streams.generator("probe-jitter"),
        )
        result = engine.run(60.0)
        assert len(result.windows) == 2
        assert any(9 in w.diagnosis.suspected_links for w in result.windows)
        [record] = result.detections
        assert record.link_id == 9 and record.localized
        assert record.localization_latency == pytest.approx(30.0)
        assert result.probes_sent > 0

    def test_engine_run_is_reproducible_from_one_seed(self, fattree4):
        def run(seed):
            system, streams = build_system(fattree4, seed=seed)
            model = DynamicFaultModel(
                fattree4,
                episodes=[FlappingLink(link_id=6, start_time=10.0,
                                       half_life_up_seconds=30.0,
                                       half_life_down_seconds=20.0)],
                rng=streams.generator("fault-dynamics"),
            )
            engine = TelemetryEngine(
                system, model, EngineConfig(window_seconds=30.0, cycle_seconds=120.0),
                rng=streams.generator("probe-jitter"),
            )
            result = engine.run(120.0)
            return (
                result.probes_sent,
                result.probes_lost,
                [(t.time, t.link_id, t.active) for t in model.transitions],
                [w.diagnosis.suspected_links for w in result.windows],
                [r.localization_latency for r in result.detections],
            )

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_incremental_cycles_fire_with_churn(self, fattree4):
        from repro.simulation import ChurnSchedule

        system, streams = build_system(fattree4)
        schedule = ChurnSchedule.generate(
            fattree4, streams.generator("churn"), num_cycles=3,
            mean_events_per_cycle=1.0, switch_probability=0.0, server_probability=0.0,
        )
        model = DynamicFaultModel(fattree4, churn_schedule=schedule)
        engine = TelemetryEngine(
            system, model, EngineConfig(window_seconds=30.0, cycle_seconds=30.0),
            rng=streams.generator("probe-jitter"),
        )
        result = engine.run(120.0)
        assert len(result.cycles) == 3
        assert all(c.mode in ("incremental", "full") for c in result.cycles)
        # The watchdog logged every applied delta with its simulated timestamp.
        assert [t for t, _ in system.watchdog.delta_log] == [c.time for c in result.cycles]
        assert [c.time for c in result.cycles] == [30.0, 60.0, 90.0]

    def test_run_reports_deterministic_cost_counters(self, fattree4):
        def counters(seed):
            system, streams = build_system(fattree4, seed=seed)
            model = DynamicFaultModel(
                fattree4,
                episodes=[FlappingLink(link_id=6, start_time=10.0)],
                rng=streams.generator("fault-dynamics"),
            )
            engine = TelemetryEngine(
                system, model, EngineConfig(window_seconds=30.0, cycle_seconds=60.0),
                rng=streams.generator("probe-jitter"),
            )
            return engine.run(60.0).counters

        first = counters(11)
        assert first == counters(11)  # byte-identical replay for a fixed seed
        assert first["aggregator_windows_closed"] == 2
        assert first["probes_sent"] > 0
        assert first["aggregator_probes_folded"] == first["probes_sent"]
        assert first["probe_batches_fired"] > 0
        assert first["events_processed"] > 0

    def test_probe_rate_controls_volume(self, fattree4):
        def probes(rate):
            system, streams = build_system(fattree4)
            model = DynamicFaultModel(fattree4)
            engine = TelemetryEngine(
                system, model,
                EngineConfig(window_seconds=30.0, cycle_seconds=30.0,
                             probes_per_second=rate, run_controller_cycles=False),
                rng=streams.generator("probe-jitter"),
            )
            return engine.run(30.0).probes_sent

        low, high = probes(2.0), probes(20.0)
        assert high > 5 * low

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(window_seconds=30.0, cycle_seconds=45.0)
        with pytest.raises(ValueError):
            EngineConfig(window_seconds=0.0)


class TestProbeScheduler:
    def test_jitter_stays_within_bounds(self):
        loop = EventLoop()
        scheduler = ProbeScheduler(
            loop, np.random.default_rng(0), batch_seconds=2.0, jitter_fraction=0.25
        )
        intervals = scheduler._intervals(200).tolist()
        assert all(1.5 <= i <= 2.5 for i in intervals)
        assert len({round(i, 9) for i in intervals}) > 1

    def test_invalid_parameters_rejected(self):
        loop = EventLoop()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ProbeScheduler(loop, rng, batch_seconds=0.0)
        with pytest.raises(ValueError):
            ProbeScheduler(loop, rng, jitter_fraction=1.0)
        with pytest.raises(ValueError):
            ProbeScheduler(loop, rng, probes_per_second=0.0)


class TestSeededStreams:
    def test_streams_are_reproducible_and_independent(self):
        a, b = SeededStreams(11), SeededStreams(11)
        assert a.generator("x").random(4).tolist() == b.generator("x").random(4).tolist()
        assert a.generator("x").random(4).tolist() != a.generator("y").random(4).tolist()
        assert a.pyrandom("z").random() == b.pyrandom("z").random()
        assert a.pyrandom("z").random() != a.pyrandom("w").random()
        # The stdlib seed keeps both 32-bit state words (a dropped low word
        # would collapse the seed space to 32 bits).
        seeds = {a._sequence(n).generate_state(2)[1] & 0xFFFFFFFF for n in "abcdefgh"}
        assert len(seeds) > 1

    def test_child_families_diverge(self):
        root = SeededStreams(3)
        assert (
            root.child("alpha").generator("x").random(3).tolist()
            != root.child("beta").generator("x").random(3).tolist()
        )


class TestEngineCLI:
    def test_engine_run_command(self, capsys):
        from repro.cli import main

        code = main([
            "engine", "run", "--k", "4", "--scenario", "flapping",
            "--duration", "90", "--seed", "7", "--cycle-seconds", "90",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "engine: flapping on Fattree(4)" in output
        assert "probe_events_per_second" in output
        assert "fault link" in output

    def test_engine_static_command(self, capsys):
        from repro.cli import main

        assert main([
            "engine", "run", "--k", "4", "--scenario", "static",
            "--duration", "60", "--seed", "2", "--cycle-seconds", "60",
        ]) == 0
        assert "localized" in capsys.readouterr().out
