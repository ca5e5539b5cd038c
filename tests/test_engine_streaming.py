"""Tests for the streaming serve mode: coalesced event scheduling, sharded
aggregation, and the long-running window stream.

The load-bearing guarantees:

* the coalescing, columnar :class:`ProbeScheduler` is **byte-identical** to
  the per-event oracle (``tests/per_event_oracle.py``) in every deterministic
  observable -- window reports, detection records, cost counters, random
  draws -- at any drain size;
* window reports are **invariant in the aggregator shard count**;
* :meth:`TelemetryEngine.serve` streams exactly the windows
  :meth:`TelemetryEngine.run` returns;
* rapid re-arms (``set_pingers`` twice in a row) never double-fire a stale
  probe stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from per_event_oracle import PerEventProbeScheduler
from repro.core.incidence import IncidenceIndex
from repro.engine import (
    CongestionEpisode,
    DynamicFaultModel,
    EngineConfig,
    EventLoop,
    FlappingLink,
    GrayFailure,
    ProbeScheduler,
    StreamAggregator,
    TelemetryEngine,
)
from repro.monitor import ControllerConfig, DetectorSystem
from repro.simulation import (
    ChurnSchedule,
    FailureScenario,
    LinkFailure,
    LossMode,
    ProbeConfig,
    ProbeSimulator,
    SeededStreams,
)


# ---------------------------------------------------------------------------
# event-loop primitives: O(1) pending, compaction
# ---------------------------------------------------------------------------

class TestLoopPrimitives:
    def test_pending_counts_live_events_in_constant_time(self):
        loop = EventLoop()
        handles = [loop.schedule_at(float(i), lambda: None) for i in range(100)]
        assert loop.pending == 100
        for handle in handles[:40]:
            handle.cancel()
        assert loop.pending == 60

    def test_cancelled_majority_is_compacted_eagerly(self):
        loop = EventLoop()
        handles = [loop.schedule_at(float(i), lambda: None) for i in range(100)]
        for handle in handles[:60]:
            handle.cancel()
        # Once cancellations crossed half the heap it was compacted (51
        # cancelled entries dropped); the stragglers sit below the threshold.
        assert len(loop._heap) == 49
        assert loop.pending == 40

    def test_cancel_after_firing_does_not_desync_pending(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule_at(1.0, lambda: fired.append(1))
        loop.schedule_at(2.0, lambda: fired.append(2))
        loop.run_until(1.5)
        handle.cancel()  # already fired: must be a no-op for the counter
        assert loop.pending == 1
        loop.run_until(3.0)
        assert fired == [1, 2]
        assert loop.pending == 0


# ---------------------------------------------------------------------------
# bulk probing kernel: probe_paths_bulk == scalar probe_path_batch
# ---------------------------------------------------------------------------

def _bulk_and_scalar(topology, paths, scenario, rows, counts, starts, configs,
                     config_of, confirms, reverse=True, seed=99):
    """Probe the same rows through both kernels; returns the four observables
    of each: ``(sent, lost, drops_per_link, generator state)``."""
    rows, counts, starts, config_of = (
        np.asarray(column, dtype=np.int64) for column in (rows, counts, starts, config_of)
    )
    bulk = ProbeSimulator(topology, scenario, np.random.default_rng(seed), reverse)
    bulk.prime_paths(paths)
    sent, lost = bulk.probe_paths_bulk(rows, counts, starts, configs, config_of, confirms)
    scalar = ProbeSimulator(topology, scenario, np.random.default_rng(seed), reverse)
    outcomes = [
        scalar.probe_path_batch(
            paths[row], configs[firing], count, start, confirm_losses=confirms[firing]
        )
        for row, count, start, firing in zip(
            rows.tolist(), counts.tolist(), starts.tolist(), config_of.tolist()
        )
    ]
    return (
        (sent.tolist(), lost.tolist(), bulk.drops_per_link, bulk._rng.bit_generator.state),
        (
            [s for s, _ in outcomes],
            [l for _, l in outcomes],
            scalar.drops_per_link,
            scalar._rng.bit_generator.state,
        ),
    )


def _mixed_scenario(paths):
    """Random, gray, random, full -- in walk order -- on the four links of
    paths[1], plus a gray and a full-loss link elsewhere; the links are shared,
    so other paths cross other sub-mixes."""
    walk = list(paths[1].link_ids)
    gray = LossMode.DETERMINISTIC_PARTIAL
    scenario = FailureScenario(description="bulk parity, mixed")
    scenario.add(LinkFailure(walk[0], LossMode.RANDOM_PARTIAL, loss_rate=0.3))
    scenario.add(LinkFailure(walk[1], gray, match_fraction=0.4, salt=7))
    scenario.add(LinkFailure(walk[2], LossMode.RANDOM_PARTIAL, loss_rate=0.6))
    scenario.add(LinkFailure(walk[3], LossMode.FULL))
    others = sorted({link for path in paths for link in path.link_ids} - set(walk))
    scenario.add(LinkFailure(others[0], gray, match_fraction=0.25, salt=3))
    scenario.add(LinkFailure(others[1], LossMode.FULL))
    return scenario


class TestBulkProbeKernel:
    @pytest.mark.parametrize("mode", [LossMode.FULL, LossMode.RANDOM_PARTIAL,
                                      LossMode.DETERMINISTIC_PARTIAL])
    def test_bulk_matches_scalar_per_row(self, fattree4, fattree4_probe_matrix, mode):
        paths = fattree4_probe_matrix.paths
        bad_link = sorted(paths[0].link_ids)[1]
        failure = LinkFailure(link_id=bad_link, mode=mode, loss_rate=0.3,
                              match_fraction=0.25)
        scenario = FailureScenario(description="bulk parity")
        scenario.add(failure)
        rows = list(range(min(20, len(paths))))
        bulk, scalar = _bulk_and_scalar(
            fattree4, paths, scenario, rows,
            counts=[3 + (i % 4) for i in rows], starts=[10 * i for i in rows],
            configs=[ProbeConfig(probes_per_path=4)], config_of=[0] * len(rows),
            confirms=[2],
        )
        assert bulk == scalar
        assert sum(bulk[1]) > 0  # the fault actually bit

    @pytest.mark.parametrize("reverse", [True, False])
    @pytest.mark.parametrize("confirm", [0, 2, 3])
    def test_bulk_matches_scalar_on_a_mixed_drain(
        self, fattree4, fattree4_probe_matrix, reverse, confirm
    ):
        """Every path several times, counts of 1 and beyond ``port_range``
        (slot wrap-around), two port-entropy signatures in one call."""
        paths = fattree4_probe_matrix.paths
        configs = [ProbeConfig(), ProbeConfig(port_range=5, base_port=40000)]
        rows = [i % len(paths) for i in range(3 * len(paths))]
        bulk, scalar = _bulk_and_scalar(
            fattree4, paths, _mixed_scenario(paths), rows,
            counts=[(1, 3, 16, 21, 40)[i % 5] for i in range(len(rows))],
            starts=[(7 * i) % 50 for i in range(len(rows))],
            configs=configs, config_of=[i % 2 for i in range(len(rows))],
            confirms=[confirm, 1], reverse=reverse,
        )
        assert bulk == scalar
        assert sum(bulk[1]) > 0

    # -------------------------------------------------------- cache lifetime
    def _probe_all(self, sim, paths, confirm=1):
        rows = np.arange(len(paths), dtype=np.int64)
        return sim.probe_paths_bulk(
            rows, np.full(len(rows), 20, dtype=np.int64), np.zeros(len(rows), dtype=np.int64),
            configs=[ProbeConfig()], config_of=np.zeros(len(rows), dtype=np.int64),
            confirms=[confirm],
        )

    def test_refailed_link_never_reads_a_stale_table(self, fattree4, fattree4_probe_matrix):
        paths = fattree4_probe_matrix.paths
        link = sorted(paths[0].link_ids)[0]
        crossing = [i for i, path in enumerate(paths) if link in path.link_ids]
        scenario = FailureScenario()
        sim = ProbeSimulator(fattree4, scenario, np.random.default_rng(5))
        sim.prime_paths(paths)
        assert self._probe_all(sim, paths)[1].sum() == 0
        scenario.add(LinkFailure(link, LossMode.DETERMINISTIC_PARTIAL, match_fraction=0.5))
        gray = self._probe_all(sim, paths)[1]
        assert 0 < gray[crossing].sum() < 40 * len(crossing)
        scenario.remove(link)
        assert self._probe_all(sim, paths)[1].sum() == 0
        # Same link, new mode: the plan must recompile on the version bump.
        scenario.add(LinkFailure(link, LossMode.FULL))
        full = self._probe_all(sim, paths)[1]
        assert full[crossing].tolist() == [40] * len(crossing)
        assert full.sum() == 40 * len(crossing)
        assert sim.telemetry()["scenario_compiles"] == 4

    def test_a_flipped_link_recompiles_exactly_the_rows_crossing_it(
        self, fattree4, fattree4_probe_matrix
    ):
        """A version bump patches the plan: only the primed rows crossing a
        changed link are recompiled, ``prime_paths`` recompiles every dirty
        row, ``scenario_compiles`` ticks once per version met, and the patched
        plan equals one compiled from scratch."""
        paths = fattree4_probe_matrix.paths
        links = sorted({link for path in paths for link in path.link_ids})
        scenario = FailureScenario()
        scenario.add(LinkFailure(links[0], LossMode.FULL))
        scenario.add(LinkFailure(links[1], LossMode.DETERMINISTIC_PARTIAL, match_fraction=0.5))
        scenario.add(LinkFailure(links[2], LossMode.RANDOM_PARTIAL, loss_rate=0.2))
        sim = ProbeSimulator(fattree4, scenario, np.random.default_rng(5))
        sim.prime_paths(paths)

        def crossing(*changed):
            return sum(1 for path in paths if path.link_ids & set(changed))

        def compiled_by(step):
            before = sim.telemetry()
            step()
            self._probe_all(sim, paths)
            self._probe_all(sim, paths)  # same version: nothing to compile
            after = sim.telemetry()
            return (
                after["rows_compiled"] - before["rows_compiled"],
                after["scenario_compiles"] - before["scenario_compiles"],
            )

        assert compiled_by(lambda: None) == (crossing(*links[:3]), 1)
        flipped = links[3]
        assert compiled_by(lambda: scenario.add(LinkFailure(flipped, LossMode.FULL))) == (
            crossing(flipped), 1
        )
        assert compiled_by(lambda: scenario.remove(flipped)) == (crossing(flipped), 1)

        def replace_and_flap():  # three bumps, one version met
            scenario.add(LinkFailure(links[1], LossMode.RANDOM_PARTIAL, loss_rate=0.5))
            scenario.add(LinkFailure(flipped, LossMode.FULL))
            scenario.remove(flipped)

        assert compiled_by(replace_and_flap) == (crossing(links[1]), 1)
        assert compiled_by(lambda: sim.prime_paths(paths)) == (crossing(*links[:3]), 1)

        fresh = ProbeSimulator(fattree4, scenario, np.random.default_rng(5))
        fresh.prime_paths(paths)
        self._probe_all(fresh, paths)
        patched, scratch = sim._plan_cache, fresh._plan_cache
        for column in ("dirty", "stochastic", "random_steps"):
            assert getattr(patched, column).tolist() == getattr(scratch, column).tolist()
        assert patched.failures == scratch.failures
        [signature] = patched.tables
        assert (
            patched.tables[signature].first_drop.tolist()
            == scratch.tables[signature].first_drop.tolist()
        )
        assert patched.tables[signature].walks.keys() == scratch.tables[signature].walks.keys()

    def test_reprimed_simulator_drops_plan_and_memo(self, fattree4, fattree4_probe_matrix):
        paths = fattree4_probe_matrix.paths
        link = sorted(paths[0].link_ids)[0]
        scenario = FailureScenario()
        scenario.add(LinkFailure(link, LossMode.DETERMINISTIC_PARTIAL, match_fraction=0.5))
        sim = ProbeSimulator(fattree4, scenario, np.random.default_rng(5))
        sim.prime_paths(paths)
        before = self._probe_all(sim, paths)[1]
        assert sim._flow_memo and sim._plan_cache is not None
        # A new cycle's table: other rows, same scenario version.
        shifted = list(paths[1:]) + [paths[0]]
        sim.prime_paths(shifted)
        assert sim._flow_memo == {} and sim._plan_cache is None
        after = self._probe_all(sim, shifted)[1]
        assert after.tolist() == before.tolist()[1:] + before.tolist()[:1]

    def test_memo_is_empty_after_a_rearm(self, fattree4):
        engine = _build_engine(fattree4)
        engine.run(70.0)  # the gray failure (t=5 s) has been probed
        simulator = engine.system.simulator
        assert simulator._flow_memo
        engine._rearm()
        assert simulator._flow_memo == {}
        assert simulator._plan_cache is None

    def test_storm_drain_never_dispatches_rows_to_the_scalar_kernel(
        self, fattree4, monkeypatch
    ):
        """All three fault classes active on Fattree(4): the drains make no
        ``probe_path_batch`` call, and every drain with stochastic rows answers
        them all in one batched call."""
        calls = {"scalar": 0, "stochastic": 0, "stochastic_drains": 0}
        scalar = ProbeSimulator.probe_path_batch
        stochastic = ProbeSimulator._probe_stochastic_rows
        bulk = ProbeSimulator.probe_paths_bulk

        def spy(name, function):
            def wrapped(self, *args, **kwargs):
                calls[name] += 1
                return function(self, *args, **kwargs)
            return wrapped

        def drain(self, *args, **kwargs):
            before = self.telemetry()["rows_stochastic"]
            outcome = bulk(self, *args, **kwargs)
            calls["stochastic_drains"] += self.telemetry()["rows_stochastic"] > before
            return outcome

        monkeypatch.setattr(ProbeSimulator, "probe_path_batch", spy("scalar", scalar))
        monkeypatch.setattr(ProbeSimulator, "_probe_stochastic_rows", spy("stochastic", stochastic))
        monkeypatch.setattr(ProbeSimulator, "probe_paths_bulk", drain)
        engine = _build_engine(fattree4, episodes=_storm_episodes())
        result = engine.run(60.0)
        rows = engine.system.simulator.telemetry()
        assert calls["scalar"] == 0
        assert 0 < calls["stochastic"] == calls["stochastic_drains"] < rows["rows_stochastic"]
        assert rows["rows_deterministic"] > 0 and rows["rows_clean"] > 0
        assert rows["random_draws"] > 0
        assert result.probes_lost > 0

    def test_bulk_requires_primed_paths(self, fattree4):
        sim = ProbeSimulator(
            fattree4, FailureScenario(description="x"), np.random.default_rng(1)
        )
        with pytest.raises(RuntimeError):
            sim.probe_paths_bulk(
                np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64), configs=[ProbeConfig()],
                config_of=np.zeros(1, dtype=np.int64), confirms=[0],
            )


# ---------------------------------------------------------------------------
# sharded aggregation
# ---------------------------------------------------------------------------

def _fill_aggregator(agg: StreamAggregator, num_paths: int) -> None:
    for i in range(num_paths):
        agg.record(i, 1.0 + (i % 7), sent=5 + i % 3, lost=(1 if i % 4 == 0 else 0))


class TestShardedAggregator:
    @pytest.mark.parametrize("shards", [2, 8])
    def test_window_reports_invariant_in_shard_count(
        self, fattree4_probe_matrix, shards
    ):
        incidence = fattree4_probe_matrix.incidence
        base = StreamAggregator(incidence, window_seconds=30.0)
        sharded = StreamAggregator(incidence, window_seconds=30.0, num_shards=shards)
        _fill_aggregator(base, incidence.num_paths)
        _fill_aggregator(sharded, incidence.num_paths)
        a = base.close_window()
        b = sharded.close_window()
        assert list(a.observations) == list(b.observations)
        assert list(map(int, a.link_sent)) == list(map(int, b.link_sent))
        assert list(map(int, a.link_lost)) == list(map(int, b.link_lost))
        assert list(map(int, a.link_lossy_paths)) == list(map(int, b.link_lossy_paths))
        assert (a.probes_sent, a.probes_lost) == (b.probes_sent, b.probes_lost)
        # Kernel invocation counters must not scale with the shard count.
        assert base.cost.as_dict() == sharded.cost.as_dict()

    def test_record_batch_matches_scalar_records(self, fattree4_probe_matrix):
        incidence = fattree4_probe_matrix.incidence
        rows = [(i % incidence.num_paths, 2.0 + i % 5, 4, i % 3) for i in range(50)]
        scalar = StreamAggregator(incidence, window_seconds=30.0)
        for path, t, sent, lost in rows:
            scalar.record(path, t, sent, lost)
        batched = StreamAggregator(incidence, window_seconds=30.0, num_shards=4)
        accepted = batched.record_batch(
            np.asarray([r[0] for r in rows]),
            np.asarray([r[1] for r in rows]),
            np.asarray([r[2] for r in rows]),
            np.asarray([r[3] for r in rows]),
        )
        assert accepted == len(rows)
        a, b = scalar.close_window(), batched.close_window()
        assert list(a.observations) == list(b.observations)
        for column in ("link_sent", "link_lost", "link_lossy_paths"):
            assert getattr(a, column).tolist() == getattr(b, column).tolist()
        assert (a.probes_sent, a.probes_lost, a.rejected_events) == (
            b.probes_sent, b.probes_lost, b.rejected_events
        )
        assert scalar.cost.as_dict() == batched.cost.as_dict()

    def test_record_batch_rejects_late_and_raises_on_future(self, fattree4_probe_matrix):
        incidence = fattree4_probe_matrix.incidence
        agg = StreamAggregator(incidence, window_seconds=30.0, start_time=60.0)
        accepted = agg.record_batch(
            np.asarray([0, 1, 2]), np.asarray([10.0, 65.0, 59.9]),
            np.asarray([3, 3, 3]), np.asarray([0, 0, 0]),
        )
        # Two late events (t=10 and t=59.9 precede the window at 60): rejected.
        assert accepted == 1
        assert agg.total_rejected == 2
        assert agg.cost.get("aggregator_events_rejected") == 2
        with pytest.raises(ValueError, match="later window"):
            agg.record_batch(
                np.asarray([0]), np.asarray([95.0]), np.asarray([1]), np.asarray([0])
            )
        with pytest.raises(IndexError):
            agg.record_batch(
                np.asarray([incidence.num_paths]), np.asarray([61.0]),
                np.asarray([1]), np.asarray([0]),
            )
        with pytest.raises(ValueError, match="lost exceeds sent"):
            agg.record_batch(
                np.asarray([0]), np.asarray([61.0]), np.asarray([1]), np.asarray([2])
            )

    def test_record_batch_rejects_what_record_rejects(self):
        """One order for both: a late row is rejected before its path or its
        counts are looked at, and a batch that raises folds nothing."""
        def aggregator():
            index = IncidenceIndex([{0, 1}, {1, 2}, {2, 3}], (0, 1, 2, 3))
            return StreamAggregator(index, window_seconds=30.0, start_time=60.0, num_shards=2)

        def state(agg):
            report = agg.close_window()
            return (
                list(report.observations), report.probes_sent, report.probes_lost,
                report.rejected_events, agg.total_rejected, agg.cost.as_dict(),
            )

        def columns(rows):
            return [np.asarray(column) for column in zip(*rows)]

        # Late *and* malformed (no such path, lost > sent), then valid rows.
        rows = [(99, 10.0, 1, 5), (0, 61.0, 4, 1), (2, 75.0, 3, 0), (0, 89.9, 2, 2)]
        scalar, batched = aggregator(), aggregator()
        accepted = [scalar.record(*row) for row in rows]
        assert accepted == [False, True, True, True]
        assert batched.record_batch(*columns(rows)) == 3
        assert state(batched) == state(scalar)

        # A trailing future row: row-by-row folds the rows ahead of it, the
        # batch is checked as a whole and leaves nothing behind.
        rows = [(0, 61.0, 4, 1), (1, 10.0, 1, 0), (2, 95.0, 1, 0)]
        scalar, batched = aggregator(), aggregator()
        with pytest.raises(ValueError, match="later window"):
            for row in rows:
                scalar.record(*row)
        with pytest.raises(ValueError, match="later window"):
            batched.record_batch(*columns(rows))
        assert state(batched) == state(aggregator())

        # Likewise for a malformed on-time row behind a late one.
        rows = [(0, 10.0, 1, 0), (1, 61.0, 3, 0), (99, 62.0, 1, 0)]
        batched = aggregator()
        with pytest.raises(IndexError):
            batched.record_batch(*columns(rows))
        assert state(batched) == state(aggregator())

    def test_shard_assignment_validation(self, fattree4_probe_matrix):
        incidence = fattree4_probe_matrix.incidence
        with pytest.raises(ValueError):
            StreamAggregator(incidence, window_seconds=30.0, num_shards=0)
        with pytest.raises(ValueError):
            StreamAggregator(
                incidence, window_seconds=30.0, num_shards=2, shard_of_path=[0]
            )
        with pytest.raises(ValueError):
            StreamAggregator(
                incidence, window_seconds=30.0, num_shards=2,
                shard_of_path=[5] * incidence.num_paths,
            )


# ---------------------------------------------------------------------------
# end-to-end differential: product == per-event oracle, shards invariant, serve == run
# ---------------------------------------------------------------------------

def _storm_episodes():
    """The three fault classes on switch links of Fattree(4) that probe paths
    cross, two of each, so single drains mix clean, deterministic and
    stochastic rows (and some paths cross two faults)."""
    return [
        FlappingLink(link_id=3, half_life_up_seconds=25.0, half_life_down_seconds=10.0),
        FlappingLink(link_id=34, half_life_up_seconds=15.0, half_life_down_seconds=15.0),
        CongestionEpisode(link_id=9, start_time=2.0, duration_seconds=100.0, loss_rate=0.1),
        CongestionEpisode(link_id=40, start_time=10.0, duration_seconds=100.0, loss_rate=0.4),
        GrayFailure(link_id=11, start_time=5.0, match_fraction=0.25),
        GrayFailure(link_id=17, start_time=1.0, match_fraction=0.5),
    ]


def _build_engine(topology, seed=2017, episodes=None, **config_overrides):
    streams = SeededStreams(seed)
    system = DetectorSystem(
        topology, streams.generator("probing"), ControllerConfig(alpha=2, beta=1)
    )
    episodes = episodes or [
        FlappingLink(link_id=3, half_life_up_seconds=25.0, half_life_down_seconds=10.0),
        CongestionEpisode(link_id=7, start_time=20.0, duration_seconds=40.0,
                          loss_rate=0.1),
        GrayFailure(link_id=11, start_time=5.0, match_fraction=0.25),
    ]
    churn = ChurnSchedule.generate(
        topology, streams.generator("churn"), num_cycles=4, mean_events_per_cycle=1.0
    )
    model = DynamicFaultModel(
        topology, episodes=episodes, rng=streams.generator("fault-dynamics"),
        churn_schedule=churn,
    )
    settings = {
        "window_seconds": 30.0,
        "cycle_seconds": 60.0,
        "probes_per_second": 200.0,
    }
    settings.update(config_overrides)
    config = EngineConfig(**settings)
    return TelemetryEngine(system, model, config, rng=streams.generator("probe-jitter"))


def _canonical(result):
    """Every deterministic observable of a run, as plain python values."""
    return {
        "probes_sent": result.probes_sent,
        "probes_lost": result.probes_lost,
        "events_processed": result.events_processed,
        "counters": dict(result.counters),
        "windows": [
            (
                w.report.index, w.report.start, w.report.end,
                w.report.probes_sent, w.report.probes_lost,
                w.report.rejected_events,
                list(map(int, w.report.link_sent)),
                list(map(int, w.report.link_lost)),
                list(map(int, w.report.link_lossy_paths)),
                tuple(w.diagnosis.suspected_links),
            )
            for w in result.windows
        ],
        "detections": [
            (r.link_id, r.fault_start, r.first_loss_time, r.localized_time)
            for r in result.detections
        ],
        "cycles": [(c.time, c.mode, c.churn, c.num_paths) for c in result.cycles],
    }


def _observe(engine, duration=130.0):
    """Everything a run leaves behind: the canonical result, the per-link drop
    attribution and the probing generator's state."""
    result = engine.run(duration)
    simulator = engine.system.simulator
    return _canonical(result), simulator.drops_per_link, simulator._rng.bit_generator.state


def _build_oracle_engine(monkeypatch, topology, **kwargs):
    """:func:`_build_engine`, with the per-event oracle as its scheduler."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.engine.engine.ProbeScheduler", PerEventProbeScheduler)
        engine = _build_engine(topology, **kwargs)
    assert isinstance(engine._scheduler, PerEventProbeScheduler)
    return engine


class TestBatchedSchedulingDifferential:
    def test_batched_is_byte_identical_to_per_event(self, fattree4, monkeypatch):
        baseline = _observe(_build_oracle_engine(monkeypatch, fattree4))
        assert _observe(_build_engine(fattree4)) == baseline

    def test_batched_is_byte_identical_to_per_event_in_a_storm(self, fattree4, monkeypatch):
        """Random-loss links on probed paths: the product must also leave the
        probing generator and the drop attribution where the oracle leaves
        them."""
        baseline = _observe(
            _build_oracle_engine(monkeypatch, fattree4, episodes=_storm_episodes())
        )
        engine = _build_engine(fattree4, episodes=_storm_episodes())
        assert _observe(engine) == baseline
        assert engine.system.simulator.telemetry()["rows_stochastic"] > 0

    @pytest.mark.parametrize(
        "timing, duration, chained",
        [
            # Default one-second batches cut into drains of a few firings.
            ({}, 130.0, False),
            # Every stream fires at least once per drain and spends two
            # probes a firing: on pinglists of two or three entries the second
            # firing continues an entry's sequence inside the same drain.
            (
                {"probe_batch_seconds": 0.04, "probes_per_second": 50.0,
                 "window_seconds": 5.0, "cycle_seconds": 10.0},
                22.0, True,
            ),
        ],
    )
    def test_small_drains_are_byte_identical_to_per_event(
        self, fattree4, monkeypatch, timing, duration, chained
    ):
        """Drains of a handful of rows go through the same columnar expansion
        as drains of thousands and must equal the oracle just the same."""
        settings = dict(timing, episodes=_storm_episodes(), coalesce_horizon_seconds=0.05)
        baseline = _observe(_build_oracle_engine(monkeypatch, fattree4, **settings), duration)
        drains = []
        emit = ProbeScheduler._emit

        def spy(self, streams, times, bases, extras, cursors):
            touched = [
                (id(stream), (cursor + offset) % stream.num_entries)
                for stream, base, extra, cursor in zip(streams, bases, extras, cursors)
                for offset in range(stream.num_entries if base else extra)
            ]
            drains.append((len(touched), len(set(touched)) < len(touched)))
            return emit(self, streams, times, bases, extras, cursors)

        monkeypatch.setattr(ProbeScheduler, "_emit", spy)
        assert _observe(_build_engine(fattree4, **settings), duration) == baseline
        assert baseline[0]["probes_lost"] > 0 and len(baseline[0]["cycles"]) >= 2
        assert max(rows for rows, _ in drains) < 64
        assert min(rows for rows, _ in drains) <= 6
        assert any(repeated for _, repeated in drains) == chained

    @pytest.mark.parametrize("shards", [2, 8])
    def test_engine_results_invariant_in_shard_count(self, fattree4, shards):
        baseline = _canonical(_build_engine(fattree4).run(130.0))
        sharded = _canonical(
            _build_engine(fattree4, aggregator_shards=shards).run(130.0)
        )
        assert sharded == baseline

    def test_coalesce_horizon_changes_nothing(self, fattree4):
        baseline = _canonical(_build_engine(fattree4).run(130.0))
        short = _canonical(
            _build_engine(fattree4, coalesce_horizon_seconds=1.5).run(130.0)
        )
        assert short == baseline


class TestGenerationInvalidation:
    @staticmethod
    def _outcomes(topology, scheduler_class, rearms: int) -> tuple:
        streams = SeededStreams(7)
        system = DetectorSystem(
            topology, streams.generator("probing"), ControllerConfig(alpha=2, beta=1)
        )
        system.run_controller_cycle()
        system.simulator.prime_paths(system.probe_matrix.paths)
        loop = EventLoop()
        scheduler = scheduler_class(
            loop, streams.generator("probe-jitter"), probes_per_second=100.0
        )
        outcomes = []
        scheduler.sink = lambda *columns: outcomes.extend(
            zip(*(column.tolist() for column in columns))
        )
        for _ in range(rearms):
            scheduler.set_pingers(system.build_pingers())
        loop.run_until(10.0)
        return scheduler.probes_sent, scheduler.probes_lost, outcomes

    def test_rapid_double_set_pingers_never_double_fires(self, fattree4):
        """A stale stream from a superseded controller cycle must not fire:
        re-arming twice in a row yields the same stream as re-arming once."""
        once = self._outcomes(fattree4, ProbeScheduler, 1)
        twice = self._outcomes(fattree4, ProbeScheduler, 2)
        # The second re-arm replaces the first's streams wholesale: no stale
        # stream fires, so the jitter draws differ but no probe is duplicated.
        assert twice[0] > 0
        assert len({(p, t) for (p, t, _, _) in twice[2]}) == len(twice[2])
        assert once[0] > 0
        # The oracle cancels the superseded cycle's pending events instead of
        # rebuilding a heap; row for row the stream is the same.
        assert once == self._outcomes(fattree4, PerEventProbeScheduler, 1)
        assert twice == self._outcomes(fattree4, PerEventProbeScheduler, 2)

    def test_rearm_retires_per_event_recurrences_from_the_heap(self, fattree4):
        """The oracle must not leave a superseded stream's event to fire as a
        no-op: ``events_processed`` would run ahead of the product's."""
        streams = SeededStreams(7)
        system = DetectorSystem(
            fattree4, streams.generator("probing"), ControllerConfig(alpha=2, beta=1)
        )
        system.run_controller_cycle()
        loop = EventLoop()
        scheduler = PerEventProbeScheduler(
            loop, streams.generator("probe-jitter"), probes_per_second=100.0
        )
        scheduler.set_pingers(system.build_pingers())
        first = loop.pending
        scheduler.set_pingers(system.build_pingers())
        assert loop.pending == first == scheduler.num_streams


class TestServeMode:
    def test_serve_streams_exactly_the_windows_run_produces(self, fattree4):
        run_result = _build_engine(fattree4, window_seconds=20.0).run(130.0)
        served = list(_build_engine(fattree4, window_seconds=20.0).serve(duration=130.0))
        # 130 s = 6 full 20 s windows + one trailing partial at the horizon.
        assert len(served) == len(run_result.windows) == 7
        for got, want in zip(served, run_result.windows):
            assert got.report.index == want.report.index
            assert got.report.start == want.report.start
            assert got.report.end == want.report.end
            assert got.report.probes_sent == want.report.probes_sent
            assert got.report.probes_lost == want.report.probes_lost
            assert list(map(int, got.report.link_lost)) == list(
                map(int, want.report.link_lost)
            )
            assert (
                got.window.diagnosis.suspected_links == want.diagnosis.suspected_links
            )
        assert sum(s.probes_sent for s in served) == run_result.probes_sent
        assert sum(s.probes_lost for s in served) == run_result.probes_lost
        assert sum(s.events_processed for s in served) == run_result.events_processed

    def test_indefinite_serve_is_bounded_only_by_the_consumer(self, fattree4):
        engine = _build_engine(fattree4)
        stream = engine.serve()
        first = [next(stream) for _ in range(3)]
        stream.close()
        assert [w.report.end for w in first] == [30.0, 60.0, 90.0]
        assert all(w.probes_sent > 0 for w in first)

    def test_max_windows_bounds_the_stream(self, fattree4):
        served = list(_build_engine(fattree4).serve(max_windows=2))
        assert len(served) == 2

    def test_serve_validates_bounds(self, fattree4):
        engine = _build_engine(fattree4)
        with pytest.raises(ValueError):
            list(engine.serve(duration=0.0))
        with pytest.raises(ValueError):
            list(engine.serve(max_windows=0))

    def test_served_window_backpressure_stats(self, fattree4):
        [window] = _build_engine(fattree4).serve(max_windows=1)
        assert window.wall_seconds > 0
        assert window.events_processed > 0
        assert window.rejected_events == 0
        assert window.probe_events_per_second > 0
        assert window.realtime_factor > 1  # fattree4 simulates far above realtime


class TestServeCLI:
    def test_engine_serve_cli_smoke(self, capsys):
        from repro.cli import main

        exit_code = main([
            "engine", "serve", "--k", "4", "--windows", "2",
            "--window-seconds", "20", "--cycle-seconds", "60",
            "--probe-rate", "100", "--shards", "2", "--seed", "3",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "window    0" in output
        assert "served 2 windows" in output
        assert "probe events/s" in output
