"""Telemetry-engine throughput benchmark: writes ``BENCH_engine.json``.

Drives the discrete-event engine over a flapping-link scenario and measures

* **probe events/sec** -- probes simulated per *streaming-plane* wall-clock
  second (total wall minus the controller cycles' wall) while the full
  monitoring loop (coalesced probe streams, fault dynamics, sharded
  window aggregation, per-window PLL diagnosis) is running, and
* **steady-state cycle latency** -- wall seconds per controller-cycle event
  (churn replay + incremental re-plan + scheduler/aggregator re-arm),
  reported separately so a slow re-plan cannot mask probe-path speed.

The default configuration runs Fattree(16), the fabric of Table 5's scale
discussion; the acceptance bar there is >= 2M probe events/sec -- enforced in
CI via ``--min-rate 2000000``, which exits non-zero below the floor.  The CI
benchmark-smoke job runs quick mode (Fattree(8)); run the full gated
configuration locally with::

    PYTHONPATH=src python benchmarks/bench_engine.py --min-rate 2000000 [--out BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.contracts import informational_wall
from repro.engine import DynamicFaultModel, EngineConfig, FlappingLink, TelemetryEngine
from repro.monitor import ControllerConfig, DetectorSystem
from repro.obs import Observability, counters_block, write_bench_report, write_snapshot
from repro.simulation import ChurnSchedule, SeededStreams
from repro.topology import build_fattree


@informational_wall("Benchmark wall timings are informational by definition")
def bench(
    name: str, topology, duration: float, seed: int = 2017,
    shards: int = 16, obs: Observability | None = None,
) -> dict:
    streams = SeededStreams(seed)
    system = DetectorSystem(
        topology, streams.generator("probing"), ControllerConfig(alpha=2, beta=1)
    )

    # Cold bootstrap (candidate enumeration + PMC) happens outside the timed
    # region: the engine measures steady-state monitoring, not planning.
    t0 = time.perf_counter()
    system.run_controller_cycle()
    bootstrap_seconds = time.perf_counter() - t0

    # Flap three links; replay light known churn at every controller cycle so
    # cycle events exercise the incremental path under realistic deltas.
    links = [link.link_id for link in topology.switch_links]
    picker = streams.generator("fault-placement")
    flapped = [int(links[i]) for i in picker.choice(len(links), size=3, replace=False)]
    config = EngineConfig(
        window_seconds=30.0,
        cycle_seconds=60.0,
        probes_per_second=100.0,  # stress rate: 10x the paper's 10 pps
        probe_batch_seconds=1.0,
        aggregator_shards=shards,
    )
    schedule = ChurnSchedule.generate(
        topology,
        streams.generator("churn"),
        num_cycles=int(duration // config.cycle_seconds) + 1,
        mean_events_per_cycle=1.5,
        switch_probability=0.0,
        server_probability=0.0,
        max_failed_links=3,
    )
    model = DynamicFaultModel(
        topology,
        episodes=[
            FlappingLink(link_id=link, start_time=30.0, half_life_up_seconds=60.0,
                         half_life_down_seconds=30.0)
            for link in flapped
        ],
        rng=streams.generator("fault-dynamics"),
        churn_schedule=schedule,
    )
    engine = TelemetryEngine(
        system, model, config, rng=streams.generator("probe-jitter"), obs=obs
    )
    result = engine.run(duration)

    cycle_walls = [c.wall_seconds for c in result.cycles]
    summary = result.summary()
    return {
        "topology": name,
        "sim_seconds": duration,
        "probe_rate_per_pinger": config.probes_per_second,
        "pinger_streams": engine._scheduler.num_streams,
        "selected_paths": system.probe_matrix.num_paths,
        "aggregator_shards": shards,
        "bootstrap_seconds": round(bootstrap_seconds, 4),
        "wall_seconds": summary["wall_seconds"],
        "probe_wall_seconds": summary["probe_wall_seconds"],
        "probes_sent": result.probes_sent,
        "loop_events": result.events_processed,
        "probe_events_per_second": summary["probe_events_per_second"],
        "coalesced_drains": engine._scheduler.drains,
        "coalesced_rows_max": engine._scheduler.drain_rows_max,
        "windows": len(result.windows),
        "cycles": len(result.cycles),
        "cycle_modes": [c.mode for c in result.cycles],
        "steady_state_cycle_latency_seconds": (
            round(statistics.fmean(cycle_walls), 4) if cycle_walls else None
        ),
        "faults_localized": summary["faults_localized"],
        "mean_localization_latency_seconds": summary["mean_localization_latency"],
        # Deterministic work counters (aggregation folds, window closes,
        # probe batches): reproducible for a fixed seed on any machine,
        # unlike the wall-clock fields above.
        **counters_block(result.counters),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small instance only")
    parser.add_argument("--duration", type=float, default=None, help="simulated seconds")
    parser.add_argument(
        "--min-rate", type=float, default=None, metavar="EVENTS_PER_SECOND",
        help="hard gate: exit non-zero unless every instance reaches this "
        "streaming-plane probe throughput",
    )
    parser.add_argument("--shards", type=int, default=16, help="aggregator shards")
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="run the benchmark with sim-time tracing enabled and write the "
        "span tree as JSONL (the --min-rate gate then measures traced speed)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final metrics-registry snapshot as JSON",
    )
    args = parser.parse_args()

    import scipy.sparse.csgraph  # noqa: F401  (warm up lazy imports)

    if args.quick:
        instances = [("fattree8", build_fattree(8))]
        duration = args.duration or 120.0
    else:
        instances = [("fattree16", build_fattree(16))]
        duration = args.duration or 180.0

    obs = Observability.create(tracing=True if args.trace else None)
    report = write_bench_report(
        args.out,
        "telemetry_engine_throughput",
        config={
            "alpha": 2,
            "beta": 1,
            "scenario": "3 flapping links + mean 1.5 known-churn events/cycle",
            "window_seconds": 30.0,
            "cycle_seconds": 60.0,
            "probes_per_second": 100.0,
            "aggregator_shards": args.shards,
            "min_rate_gate": args.min_rate,
            "tracing": obs.tracer is not None,
        },
        rows=[
            bench(name, topology, duration, shards=args.shards, obs=obs)
            for name, topology in instances
        ],
    )
    if args.trace and obs.tracer is not None:
        with open(args.trace, "w") as handle:
            handle.write(obs.tracer.export_jsonl())
        print(f"wrote {args.trace}")
    if args.metrics_out:
        write_snapshot(args.metrics_out, obs.registry)
        print(f"wrote {args.metrics_out}")
    failed = []
    for row in report["rows"]:
        print(
            f"{row['topology']:>10}: {row['probe_events_per_second']:>12,.0f} probe events/s "
            f"({row['probes_sent']:,} probes / {row['probe_wall_seconds']:.2f}s streaming wall "
            f"of {row['wall_seconds']:.2f}s total), "
            f"cycle latency {row['steady_state_cycle_latency_seconds']}s "
            f"over {row['cycles']} cycles {row['cycle_modes']}"
        )
        if args.min_rate is not None and row["probe_events_per_second"] < args.min_rate:
            failed.append(row["topology"])
    print(f"wrote {args.out}")
    if failed:
        print(
            f"FAIL: {', '.join(failed)} below the --min-rate gate of "
            f"{args.min_rate:,.0f} probe events/s"
        )
        sys.exit(1)


if __name__ == "__main__":
    main()
