"""Observability-plane tests: registry, tracing, introspection, determinism.

The headline gates mirror the cost-model contract established for Table 2:
for a fixed seed, the deterministic registry snapshot and the span-tree JSONL
of a Fattree(8) engine run must be **byte-identical** across
``REPRO_JOBS in {1, 4}``.  Everything
wall-clock flavoured is informational and excluded from those bytes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.engine.engine import ServedWindow
from repro.obs import (
    COUNTERS_SCHEMA,
    DETECTION_LATENCY_BUCKETS,
    REPORT_SCHEMA,
    MetricsJSONWriter,
    MetricsRegistry,
    Observability,
    Span,
    Tracer,
    WindowProfiler,
    activated,
    counters_block,
    current_tracer,
    format_status_line,
    spans_from_chrome_trace,
    to_chrome_trace,
    tracing_enabled,
    write_bench_report,
    write_snapshot,
)
from repro.obs import tracing


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("windows_closed")
        counter.inc()
        counter.inc(2)
        assert counter.total() == 3
        gauge = registry.gauge("cache_ratio")
        gauge.set(0.25)
        assert gauge.value() == 0.25
        histogram = registry.histogram("lat", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        histogram.observe(100.0)
        snap = registry.snapshot()
        assert snap["counters"]["windows_closed"] == 3
        assert snap["gauges"]["cache_ratio"] == 0.25
        assert snap["histograms"]["lat"] == {
            "buckets": {"1": 1, "10": 2, "+Inf": 3},
            "count": 3,
            "sum": 105.5,
        }

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        cycles = registry.counter("controller_cycles")
        cycles.inc(mode="incremental")
        cycles.inc(mode="incremental")
        cycles.inc(mode="full")
        assert cycles.value(mode="incremental") == 2
        assert cycles.value(mode="full") == 1
        assert cycles.total() == 3
        snap = registry.snapshot()["counters"]
        assert snap['controller_cycles{mode="full"}'] == 1
        assert snap['controller_cycles{mode="incremental"}'] == 2

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        registry.histogram("h")
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 2.0))

    def test_pinned_latency_buckets(self):
        # The bucket grid is part of the export schema: changing it breaks
        # every downstream consumer, so it is pinned here.
        assert DETECTION_LATENCY_BUCKETS == (
            15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0,
        )
        registry = MetricsRegistry()
        histogram = registry.histogram("detection_latency_seconds")
        histogram.observe(30.0)  # boundary lands in its own bucket (le semantics)
        rendered = registry.snapshot()["histograms"]["detection_latency_seconds"]
        assert list(rendered["buckets"]) == [
            "15", "30", "60", "120", "300", "600", "1800", "+Inf",
        ]
        assert rendered["buckets"]["30"] == 1
        assert rendered["buckets"]["15"] == 0
        assert rendered["buckets"]["+Inf"] == 1

    def test_sources_merge_and_sum(self):
        registry = MetricsRegistry()
        registry.register_source("a", lambda: {"work": 2, "only_a": 1})
        registry.register_source("b", lambda: {"work": 3})
        # repro: allow[REP006] -- this test pins the sum-on-collision semantics itself
        registry.counter("work").inc(10)
        counters = registry.snapshot()["counters"]
        assert counters["work"] == 15  # direct counter + both sources
        assert counters["only_a"] == 1
        assert registry.value("only_a") == 1
        # Re-registering a name replaces the provider.
        registry.register_source("b", lambda: {"work": 100})
        assert registry.snapshot()["counters"]["work"] == 112

    def test_deterministic_snapshot_drops_informational(self):
        registry = MetricsRegistry()
        registry.counter("real_work").inc()
        registry.gauge("rate", informational=True).set(123.4)
        registry.register_source("wall", lambda: {"wall_stuff": 7}, informational=True)
        full = registry.snapshot()
        deterministic = registry.snapshot(deterministic=True)
        assert full["gauges"]["rate"] == 123.4
        assert full["counters"]["wall_stuff"] == 7
        assert "rate" not in deterministic["gauges"]
        assert "wall_stuff" not in deterministic["counters"]
        assert deterministic["counters"]["real_work"] == 1

    def test_to_json_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        text = registry.to_json(deterministic=True)
        assert json.loads(text) == registry.snapshot(deterministic=True)
        assert text == registry.to_json(deterministic=True)
        assert text.index('"a"') < text.index('"b"')

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("probes_sent", help="probes fired").inc(5)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = registry.to_prometheus()
        assert "# HELP probes_sent probes fired" in text
        assert "# TYPE probes_sent counter" in text
        assert "probes_sent 5" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class _FakeClock:
    def __init__(self):
        self.now = 0.0


class TestTracer:
    def test_nesting_ids_and_backdating(self):
        clock = _FakeClock()
        tracer = Tracer(clock)
        with tracer.span("outer", tag="a") as outer:
            clock.now = 5.0
            with tracer.span("inner", start=1.0) as inner:
                clock.now = 7.0
            tracer.record("instant", pod=3)
        assert outer.span_id == 0 and outer.parent_id is None
        assert inner.span_id == 1 and inner.parent_id == 0
        assert inner.start == 1.0 and inner.end == 7.0  # backdated open
        instant = next(sp for sp in tracer.finished_spans() if sp.name == "instant")
        assert instant.start == instant.end == 7.0
        assert instant.parent_id == 0
        assert outer.end == 7.0

    def test_free_functions_are_noops_without_tracer(self):
        assert current_tracer() is None
        with tracing.span("nothing") as sp:
            assert sp is None
        assert tracing.record("nothing") is None

    def test_activated_installs_and_restores(self):
        tracer = Tracer()
        with activated(tracer):
            assert current_tracer() is tracer
            with tracing.span("via-free-function"):
                pass
        assert current_tracer() is None
        assert [sp.name for sp in tracer.finished_spans()] == ["via-free-function"]
        with activated(None):
            assert current_tracer() is None

    def test_export_jsonl_bytes(self):
        clock = _FakeClock()
        tracer = Tracer(clock)
        with tracer.span("w", index=0):
            clock.now = 30.0
        lines = tracer.export_jsonl().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "span_id": 0,
            "parent_id": None,
            "name": "w",
            "start": 0.0,
            "end": 30.0,
            "labels": {"index": 0},
        }
        # wall_seconds only appears on request (it is machine-dependent).
        assert "wall_seconds" in tracer.export_jsonl(include_wall=True)

    def test_drain_is_incremental(self):
        tracer = Tracer()
        tracer.record("a")
        tracer.record("b")
        assert [sp.name for sp in tracer.drain()] == ["a", "b"]
        tracer.record("c")
        assert [sp.name for sp in tracer.drain()] == ["c"]
        assert tracer.drain() == []

    def test_chrome_trace_round_trip_exact(self):
        clock = _FakeClock()
        tracer = Tracer(clock)
        # Deliberately awkward floats: a naive us round-trip would not be exact.
        with tracer.span("cycle", mode="incremental"):
            clock.now = 0.1 + 0.2
            tracer.record("fault.transition", link=7, faulty=True)
            clock.now = 1.0 / 3.0 + 1.0
        spans = tracer.finished_spans()
        payload = to_chrome_trace(spans)
        assert all(event["ph"] == "X" for event in payload["traceEvents"])
        restored = spans_from_chrome_trace(json.loads(json.dumps(payload)))
        assert restored == sorted(spans, key=lambda sp: sp.span_id)
        # And byte-identical through the JSONL export too.
        assert tracer.export_jsonl(restored) == tracer.export_jsonl(
            sorted(spans, key=lambda sp: sp.span_id)
        )

    def test_exception_unwinds_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        outer, inner = tracer.finished_spans()[0], tracer.finished_spans()[1]
        assert {outer.name, inner.name} == {"outer", "inner"}
        tracer.record("after")  # stack is clean: new span is a root
        assert tracer.finished_spans()[-1].parent_id is None


# ---------------------------------------------------------------------------
# env resolution + Observability bundle
# ---------------------------------------------------------------------------

class TestObservabilityBundle:
    def test_tracing_enabled_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert tracing_enabled() is False
        assert tracing_enabled(default=True) is True
        for falsey in ("", "0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_TRACE", falsey)
            assert tracing_enabled() is False
        for truthy in ("1", "true", "yes", "on"):
            monkeypatch.setenv("REPRO_TRACE", truthy)
            assert tracing_enabled() is True

    def test_create_and_bind_clock(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert Observability.create().tracer is None
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert Observability.from_env().tracer is not None
        obs = Observability.create(tracing=True)
        clock = _FakeClock()
        obs.bind_clock(clock)
        assert obs.tracer.clock is clock
        obs.bind_clock(_FakeClock())  # first binder wins
        assert obs.tracer.clock is clock


# ---------------------------------------------------------------------------
# ServedWindow guards (zero / sub-resolution wall deltas)
# ---------------------------------------------------------------------------

class TestServedWindowGuards:
    def _window(self, probes_sent, wall, control=0.0, duration=30.0):
        class _Report:
            pass

        report = _Report()
        report.duration = duration

        class _Win:
            pass

        win = _Win()
        win.report = report
        return ServedWindow(
            window=win,
            probes_sent=probes_sent,
            probes_lost=0,
            rejected_events=0,
            events_processed=0,
            wall_seconds=wall,
            control_wall_seconds=control,
        )

    def test_zero_wall_with_probes_is_inf(self):
        window = self._window(probes_sent=100, wall=0.0)
        assert window.probe_events_per_second == float("inf")
        assert window.realtime_factor == float("inf")

    def test_control_wall_exceeding_total_is_inf_not_negative(self):
        window = self._window(probes_sent=100, wall=0.001, control=0.002)
        assert window.probe_events_per_second == float("inf")

    def test_no_probes_is_zero_even_with_zero_wall(self):
        window = self._window(probes_sent=0, wall=0.0)
        assert window.probe_events_per_second == 0.0

    def test_zero_duration_is_zero(self):
        window = self._window(probes_sent=10, wall=0.0, duration=0.0)
        assert window.realtime_factor == 0.0

    def test_normal_ratios(self):
        window = self._window(probes_sent=100, wall=2.0, control=1.0, duration=30.0)
        assert window.probe_events_per_second == 100.0
        assert window.realtime_factor == 15.0


# ---------------------------------------------------------------------------
# introspection helpers
# ---------------------------------------------------------------------------

class TestIntrospection:
    def test_metrics_jsonl_writer_stride(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        registry = MetricsRegistry()
        registry.counter("probes_sent").inc(5)
        with MetricsJSONWriter(str(path), every=2) as writer:
            assert writer.write(0, 30.0, registry) is True
            assert writer.write(1, 60.0, registry) is False
            assert writer.write(2, 90.0, registry) is True
            assert writer.lines_written == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["window"] for line in lines] == [0, 2]
        assert lines[0]["sim_time"] == 30.0
        assert lines[0]["metrics"]["counters"]["probes_sent"] == 5
        with pytest.raises(ValueError):
            MetricsJSONWriter(str(path), every=0)

    def test_write_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        registry = MetricsRegistry()
        registry.counter("windows_closed").inc(3)
        write_snapshot(str(path), registry)
        assert json.loads(path.read_text())["counters"]["windows_closed"] == 3

    def test_format_status_line_reads_registry(self):
        registry = MetricsRegistry()
        registry.counter("controller_cycles").inc(2, mode="incremental")
        registry.counter("faults_detected").inc()
        registry.register_source(
            "scheduler", lambda: {"probes_sent": 12345, "probes_lost": 67}
        )
        line = format_status_line(registry, served=4, wall_seconds=1.5)
        assert line == (
            "status: 4 windows | probes 12,345 (67 lost, 0 late) | "
            "cycles 2 | faults detected 1 | wall 1.500s"
        )

    def test_window_profiler_single_shot(self, tmp_path):
        path = tmp_path / "win.pstats"
        profiler = WindowProfiler(str(path))
        profiler.dump()  # dump before arm is a no-op
        assert not path.exists()
        profiler.arm()
        sum(range(1000))
        profiler.dump()
        assert path.exists() and profiler.dumped
        size = path.stat().st_size
        profiler.arm()  # inert after the first dump
        profiler.dump()
        assert path.stat().st_size == size


# ---------------------------------------------------------------------------
# shared BENCH exporter
# ---------------------------------------------------------------------------

class TestBenchExport:
    def test_counters_block_schema(self):
        block = counters_block({"b_work": 2, "a_work": 1, "ratio": 1.0, "frac": 0.5})
        assert block["counters_schema"] == COUNTERS_SCHEMA
        assert list(block["cost_counters"]) == ["a_work", "b_work", "frac", "ratio"]
        assert block["cost_counters"]["ratio"] == 1  # integral floats become ints
        assert isinstance(block["cost_counters"]["ratio"], int)
        assert block["cost_counters"]["frac"] == 0.5

    def test_write_bench_report_envelope(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        report = write_bench_report(
            str(path),
            "unit_test_bench",
            config={"alpha": 2},
            rows=[{"topology": "fattree4", **counters_block({"work": 3})}],
            extra_section={"custom": True},
        )
        on_disk = json.loads(path.read_text())
        assert on_disk == report
        assert on_disk["report_schema"] == REPORT_SCHEMA
        assert on_disk["benchmark"] == "unit_test_bench"
        assert on_disk["config"] == {"alpha": 2}
        assert on_disk["extra_section"] == {"custom": True}
        row = on_disk["rows"][0]
        assert row["counters_schema"] == COUNTERS_SCHEMA
        assert row["cost_counters"] == {"work": 3}

    def test_all_benchmarks_share_the_counter_schema(self):
        # Every BENCH writer routes its counter block through counters_block;
        # grepping the harness sources keeps a regression from reintroducing
        # a hand-rolled shape.
        import pathlib

        bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        for name in (
            "bench_engine.py",
            "bench_podshard.py",
            "bench_incremental.py",
            "bench_runner.py",
        ):
            source = (bench_dir / name).read_text()
            assert "counters_block" in source, f"{name} bypasses counters_block"
            assert "write_bench_report" in source, f"{name} bypasses write_bench_report"


# ---------------------------------------------------------------------------
# engine integration: spans + registry on a live run
# ---------------------------------------------------------------------------

def _build_traced_engine(jobs=1, k=4, probes_per_second=50.0, intrapod=False):
    from repro.engine import (
        CongestionEpisode,
        DynamicFaultModel,
        EngineConfig,
        FlappingLink,
        TelemetryEngine,
    )
    from repro.monitor import ControllerConfig, DetectorSystem
    from repro.simulation import SeededStreams
    from repro.topology import build_fattree

    topology = build_fattree(k)
    streams = SeededStreams(2017)
    system = DetectorSystem(
        topology,
        streams.generator("probing"),
        ControllerConfig(
            alpha=2, beta=1, shard_by_pods=True, jobs=jobs, intrapod_paths=intrapod
        ),
    )
    model = DynamicFaultModel(
        topology,
        episodes=[
            CongestionEpisode(
                link_id=3, start_time=10.0, duration_seconds=40.0, loss_rate=0.3
            ),
            FlappingLink(
                link_id=9, half_life_up_seconds=25.0, half_life_down_seconds=10.0
            ),
        ],
        rng=streams.generator("fault-dynamics"),
    )
    obs = Observability.create(tracing=True)
    engine = TelemetryEngine(
        system,
        model,
        EngineConfig(
            window_seconds=30.0, cycle_seconds=60.0, probes_per_second=probes_per_second
        ),
        rng=streams.generator("probe-jitter"),
        obs=obs,
    )
    return engine, obs


class TestEngineObservability:
    def test_run_emits_spans_and_registry_series(self):
        engine, obs = _build_traced_engine()
        result = engine.run(150.0)
        spans = obs.tracer.finished_spans()
        names = {span.name for span in spans}
        assert {
            "engine.window",
            "pll.diagnose",
            "aggregator.close",
            "controller.cycle",
            "pmc.construct",
            "pmc.solve",
            "fault.transition",
        } <= names
        # Window spans are backdated to the window's open time.
        windows = [span for span in spans if span.name == "engine.window"]
        assert len(windows) == len(result.windows) == 5
        assert [(span.start, span.end) for span in windows] == [
            (0.0, 30.0), (30.0, 60.0), (60.0, 90.0), (90.0, 120.0), (120.0, 150.0),
        ]
        # aggregator.close and pll.diagnose nest under their engine.window.
        for child_name in ("aggregator.close", "pll.diagnose"):
            children = [span for span in spans if span.name == child_name]
            window_ids = {span.span_id for span in windows}
            assert len(children) == 5
            assert all(child.parent_id in window_ids for child in children)
        snapshot = obs.registry.snapshot(deterministic=True)
        counters = snapshot["counters"]
        assert counters["windows_closed"] == 5
        assert counters["probes_sent"] == result.probes_sent
        assert counters["loop_events_processed"] == result.events_processed
        assert any(name.startswith("kernel_") for name in counters)
        assert any(name.startswith("pmc_") for name in counters)
        assert counters['controller_cycles{mode="incremental"}'] == 2
        hist = snapshot["histograms"]["detection_latency_seconds"]
        assert hist["count"] == counters["faults_detected"] > 0
        loc = snapshot["histograms"]["localization_latency_seconds"]
        assert loc["count"] == counters["faults_localized"]
        # Informational series exist in the full snapshot only.
        full = obs.registry.snapshot()
        assert "build_info{" in "".join(full["gauges"])
        assert all("build_info" not in name for name in snapshot["gauges"])

    def test_bulk_kernel_row_classes_are_exported(self):
        """One informational ``sim.bulk`` span per columnar drain, carrying its
        wall time, its row classes, the variates it drew and the plan rows it
        compiled -- summing to the registry's informational ``sim_bulk_*``
        totals."""
        engine, obs = _build_traced_engine()
        engine.run(90.0)
        spans = [span for span in obs.tracer.finished_spans() if span.name == "sim.bulk"]
        assert spans and all(span.informational for span in spans)
        assert all(span.wall_seconds > 0 for span in spans)
        counters = obs.registry.snapshot()["counters"]
        for label, total in (
            ("rows_clean", "rows_clean"),
            ("rows_deterministic", "rows_deterministic"),
            ("rows_stochastic", "rows_stochastic"),
            ("draws", "random_draws"),
            ("compiled", "rows_compiled"),
        ):
            assert counters[f"sim_bulk_{total}"] == sum(span.labels[label] for span in spans)
        assert counters["sim_bulk_rows_compiled"] > 0
        # The congestion episode and the flapper both reached probed paths.
        assert counters["sim_bulk_rows_stochastic"] > 0
        assert counters["sim_bulk_rows_deterministic"] > 0
        assert counters["sim_bulk_random_draws"] > 0
        assert 0 < counters["sim_bulk_scenario_compiles"] <= len(spans)
        # Regime-dependent, hence outside every deterministic export.
        deterministic = obs.registry.snapshot(deterministic=True)["counters"]
        assert not any(name.startswith("sim_bulk_") for name in deterministic)
        assert "sim.bulk" not in obs.tracer.export_jsonl()

    def test_untraced_run_has_no_tracer_and_same_result(self):
        traced_engine, traced_obs = _build_traced_engine()
        traced = traced_engine.run(90.0)
        from repro.obs import Observability as Obs

        untraced_engine, _ = _build_traced_engine()
        untraced_engine.obs.tracer = None  # simulate tracing off
        untraced = untraced_engine.run(90.0)
        assert traced.counters == untraced.counters
        assert traced.probes_sent == untraced.probes_sent
        assert current_tracer() is None
        assert Obs.create(tracing=False).tracer is None

    def test_serve_matches_run_when_traced(self):
        run_engine, run_obs = _build_traced_engine()
        run_engine.run(120.0)
        serve_engine, serve_obs = _build_traced_engine()
        for _ in serve_engine.serve(duration=120.0):
            pass
        assert serve_obs.tracer.export_jsonl() == run_obs.tracer.export_jsonl()
        assert serve_obs.registry.to_json(deterministic=True) == run_obs.registry.to_json(
            deterministic=True
        )

    def test_profiler_brackets_one_window(self, tmp_path):
        engine, obs = _build_traced_engine()
        obs.profile_path = str(tmp_path / "window.pstats")
        engine._profiler = WindowProfiler(obs.profile_path)
        engine.run(60.0)
        import pstats

        stats = pstats.Stats(obs.profile_path)
        assert stats.total_calls > 0
        assert engine._profiler.dumped


# ---------------------------------------------------------------------------
# the determinism matrix: jobs byte-identity on Fattree(8)
# ---------------------------------------------------------------------------

_MATRIX_SCRIPT = r"""
import sys
from repro.engine import (
    CongestionEpisode, DynamicFaultModel, EngineConfig, FlappingLink, TelemetryEngine,
)
from repro.monitor import ControllerConfig, DetectorSystem
from repro.obs import Observability
from repro.simulation import SeededStreams
from repro.topology import build_fattree

jobs = int(sys.argv[1])
topology = build_fattree(8)
streams = SeededStreams(2017)
system = DetectorSystem(
    topology, streams.generator("probing"),
    ControllerConfig(alpha=2, beta=1, shard_by_pods=True, jobs=jobs,
                     intrapod_paths=True),
)
model = DynamicFaultModel(
    topology,
    episodes=[
        CongestionEpisode(link_id=3, start_time=10.0, duration_seconds=40.0,
                          loss_rate=0.3),
        FlappingLink(link_id=9, half_life_up_seconds=25.0,
                     half_life_down_seconds=10.0),
    ],
    rng=streams.generator("fault-dynamics"),
)
obs = Observability.create(tracing=True)
engine = TelemetryEngine(
    system, model,
    EngineConfig(window_seconds=30.0, cycle_seconds=60.0, probes_per_second=50.0),
    rng=streams.generator("probe-jitter"), obs=obs,
)
engine.run(90.0)
sys.stdout.write(obs.registry.to_json(deterministic=True))
sys.stdout.write("\n===SPANS===\n")
sys.stdout.write(obs.tracer.export_jsonl())
"""


@pytest.mark.slow
class TestDeterminismMatrix:
    def test_registry_and_spans_byte_identical_across_jobs(self):
        import os

        outputs = {}
        for jobs in (1, 4):
            env = dict(os.environ)
            env.pop("REPRO_TRACE", None)
            env.pop("REPRO_JOBS", None)
            proc = subprocess.run(
                [sys.executable, "-c", _MATRIX_SCRIPT, str(jobs)],
                env=env,
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs[jobs] = proc.stdout
        assert "===SPANS===" in outputs[1]
        assert outputs[4] == outputs[1], "jobs=4 diverged from jobs=1"
