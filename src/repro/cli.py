"""Command line interface for the deTector reproduction.

Usage (after ``pip install -e .``)::

    python -m repro topology fattree --k 4
    python -m repro pmc fattree --k 6 --alpha 2 --beta 1 --no-symmetry
    python -m repro monitor --k 4 --windows 5 --failures 1 --seed 7
    python -m repro experiment table2

Sub-commands:

* ``topology``   -- build a topology and print its node/link summary,
* ``pmc``        -- construct a probe matrix and report its quality metrics,
* ``monitor``    -- run the full monitoring system against random failures,
* ``engine``     -- drive the discrete-event telemetry engine
  (``engine run --scenario flapping ...`` measures detection latency),
* ``experiment`` -- regenerate one of the paper's tables/figures,
* ``lint``       -- statically check the determinism/parallelism/observability
  invariants (rules REP001-REP007, see ``docs/INVARIANTS.md``).

Every stochastic sub-command derives all of its randomness (churn, failure
synthesis, packet loss, probe jitter, fault dynamics) from one ``--seed``
through named :class:`repro.simulation.SeededStreams`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="deTector (USENIX ATC 2017) reproduction -- topology-aware DCN monitoring",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    topology = subparsers.add_parser("topology", help="build a topology and print its summary")
    _add_topology_arguments(topology)

    pmc = subparsers.add_parser("pmc", help="construct a probe matrix with PMC")
    _add_topology_arguments(pmc)
    pmc.add_argument("--alpha", type=int, default=3, help="coverage target (default 3)")
    pmc.add_argument("--beta", type=int, default=1, help="identifiability target (default 1)")
    pmc.add_argument(
        "--no-symmetry", action="store_true", help="solve isomorphic subproblems again"
    )
    pmc.add_argument(
        "--no-lazy", action="store_true", help="disable lazy (CELF) score updates"
    )
    pmc.add_argument(
        "--no-decomposition", action="store_true", help="disable problem decomposition"
    )
    pmc.add_argument(
        "--shard-by-pods", action="store_true",
        help="pod-sharded decomposition (one subproblem per pod + residual shard)",
    )
    pmc.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for subproblem solves (default: REPRO_JOBS or 1; "
        "selections are byte-identical at any setting)",
    )

    monitor = subparsers.add_parser("monitor", help="run the monitoring system end to end")
    monitor.add_argument("--k", type=int, default=4, help="Fattree radix (default 4)")
    monitor.add_argument("--alpha", type=int, default=3)
    monitor.add_argument("--beta", type=int, default=1)
    monitor.add_argument("--windows", type=int, default=5, help="number of 30 s windows to run")
    monitor.add_argument("--failures", type=int, default=1, help="concurrent failures per window")
    monitor.add_argument("--probes-per-second", type=float, default=10.0)
    monitor.add_argument("--seed", type=int, default=2017)
    monitor.add_argument(
        "--incremental",
        action="store_true",
        help="run churn-aware incremental controller cycles instead of full rebuilds",
    )
    monitor.add_argument(
        "--churn",
        type=float,
        default=0.0,
        metavar="MEAN",
        help="mean topology-churn events per cycle (0 disables churn; implies one "
        "controller cycle per window)",
    )
    monitor.add_argument(
        "--shard-by-pods", action="store_true",
        help="pod-sharded control plane: solve one PMC subproblem per pod "
        "(plus a residual shard) with per-pod warm caches",
    )
    monitor.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for PMC subproblem solves (default: REPRO_JOBS or 1)",
    )
    monitor.add_argument(
        "--intrapod-paths", action="store_true",
        help="also enumerate edge->agg->edge intra-pod candidate paths "
        "(gives the pod shards pod-local work on Fattree)",
    )

    engine = subparsers.add_parser(
        "engine", help="discrete-event telemetry engine (timed probes, fault dynamics)"
    )
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)
    engine_run = engine_sub.add_parser(
        "run", help="simulate a fault scenario and report detection latency"
    )
    _add_engine_arguments(engine_run)
    engine_run.add_argument("--duration", type=float, default=300.0, help="simulated seconds")
    engine_serve = engine_sub.add_parser(
        "serve",
        help="stream aggregation windows continuously (long-running serve mode)",
    )
    _add_engine_arguments(engine_serve)
    engine_serve.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds to serve (default: unbounded)",
    )
    engine_serve.add_argument(
        "--windows", type=int, default=None, metavar="N",
        help="stop after N windows (default: unbounded; Ctrl-C to stop)",
    )
    engine_serve.add_argument(
        "--status-every", type=int, default=0, metavar="N",
        help="print a registry-sourced status line every N windows (0 = off)",
    )

    experiment = subparsers.add_parser("experiment", help="regenerate a table/figure of the paper")
    experiment.add_argument(
        "name",
        choices=[
            "table2",
            "table3",
            "table4",
            "table5",
            "figure4",
            "figure5",
            "figure6",
            "pll",
            "all",
        ],
        help="which experiment harness to run ('all' runs the quick suite)",
    )
    experiment.add_argument(
        "--output-dir",
        default=None,
        help="with 'all': directory to write per-experiment .txt/.csv results to",
    )
    experiment.add_argument(
        "--scale",
        choices=["quick", "full"],
        default="quick",
        help="with 'all': suite scale (quick ~ minutes, full ~ tens of minutes)",
    )
    experiment.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="with 'all': run experiments in N worker processes (default: "
        "REPRO_JOBS or 1; results are identical to --jobs 1, only wall-clock "
        "time changes)",
    )
    experiment.add_argument(
        "--seed",
        type=int,
        default=None,
        help="with 'all': root seed; per-experiment seeds are derived from it "
        "through named SeededStreams streams",
    )

    lint = subparsers.add_parser(
        "lint",
        help="statically check the determinism/parallelism/observability invariants",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    lint.add_argument(
        "--baseline",
        default="lint-baseline.json",
        help="baseline file of grandfathered findings (default: lint-baseline.json)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true", help="ignore the baseline file entirely"
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current unsuppressed findings",
    )
    lint.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the findings as a JSON report to PATH ('-' for stdout)",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="repository root paths are relative to (default: current directory)",
    )
    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by ``engine run`` and ``engine serve``."""
    parser.add_argument("--k", type=int, default=4, help="Fattree radix (default 4)")
    parser.add_argument(
        "--scenario",
        choices=["flapping", "congestion", "gray", "switch-outage", "static"],
        default="flapping",
        help="fault dynamics to inject (default flapping)",
    )
    parser.add_argument("--links", type=int, default=1, help="number of faulty links")
    parser.add_argument("--alpha", type=int, default=3)
    parser.add_argument("--beta", type=int, default=1)
    parser.add_argument("--window-seconds", type=float, default=30.0)
    parser.add_argument("--cycle-seconds", type=float, default=300.0)
    parser.add_argument(
        "--probe-rate", type=float, default=None, help="per-pinger probes/s (default: pinglist rate)"
    )
    parser.add_argument("--jitter", type=float, default=0.1, help="probe interval jitter fraction")
    parser.add_argument(
        "--flap-half-life", type=float, default=45.0, help="up/down state half-life (flapping)"
    )
    parser.add_argument(
        "--congestion-loss-rate", type=float, default=0.05, help="loss rate during congestion"
    )
    parser.add_argument(
        "--churn", type=float, default=0.0, metavar="MEAN",
        help="mean known-churn events replayed into the watchdog per controller cycle",
    )
    parser.add_argument(
        "--full-rebuilds", action="store_true",
        help="run full controller rebuilds instead of incremental cycles",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="aggregator shard count (window reports are invariant in this)",
    )
    parser.add_argument(
        "--coalesce-horizon", type=float, default=10.0, metavar="SECONDS",
        help="max simulated time one coalesced drain may span",
    )
    parser.add_argument(
        "--shard-by-pods", action="store_true",
        help="pod-sharded control plane for the controller cycles",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for PMC subproblem solves (default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--intrapod-paths", action="store_true",
        help="also enumerate edge->agg->edge intra-pod candidate paths",
    )
    parser.add_argument("--seed", type=int, default=2017)
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write metrics-registry snapshots to PATH (run: one final JSON "
        "document; serve: one JSON line per window)",
    )
    obs.add_argument(
        "--metrics-every", type=int, default=1, metavar="N",
        help="with serve --metrics-json: write every Nth window (default 1)",
    )
    obs.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable sim-time tracing and write the span tree as JSONL "
        "(also enabled by REPRO_TRACE=1)",
    )
    obs.add_argument(
        "--chrome-trace", default=None, metavar="PATH",
        help="enable tracing and write a chrome://tracing / Perfetto JSON file",
    )
    obs.add_argument(
        "--profile", default=None, metavar="OUT.pstats",
        help="cProfile exactly one aggregation window into OUT.pstats",
    )


def _add_topology_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "kind", choices=["fattree", "vl2", "bcube"], help="topology family to build"
    )
    parser.add_argument("--k", type=int, default=4, help="Fattree radix (default 4)")
    parser.add_argument("--da", type=int, default=8, help="VL2 d_a parameter")
    parser.add_argument("--di", type=int, default=6, help="VL2 d_i parameter")
    parser.add_argument("--servers-per-tor", type=int, default=2, help="VL2 servers per ToR")
    parser.add_argument("--n", type=int, default=4, help="BCube port count")
    parser.add_argument("--levels", type=int, default=1, help="BCube level parameter k")


def _build_topology(args: argparse.Namespace):
    from repro import build_bcube, build_fattree, build_vl2

    if args.kind == "fattree":
        return build_fattree(args.k)
    if args.kind == "vl2":
        return build_vl2(args.da, args.di, args.servers_per_tor)
    return build_bcube(args.n, args.levels)


# ---------------------------------------------------------------------------
# sub-command handlers
# ---------------------------------------------------------------------------

def _cmd_topology(args: argparse.Namespace) -> int:
    topology = _build_topology(args)
    print(f"{topology.name}")
    for key, value in topology.summary().items():
        print(f"  {key:13s} {value}")
    return 0


def _cmd_pmc(args: argparse.Namespace) -> int:
    from repro import pmc_for_topology
    from repro.core import check_coverage, identifiability_level

    topology = _build_topology(args)
    result = pmc_for_topology(
        topology,
        alpha=args.alpha,
        beta=args.beta,
        use_symmetry=not args.no_symmetry,
        use_lazy_update=not args.no_lazy,
        use_decomposition=not args.no_decomposition,
        shard_by_pods=args.shard_by_pods,
        jobs=args.jobs,
    )
    probe_matrix = result.probe_matrix
    print(f"{topology.name}: selected {result.num_paths} probe paths "
          f"for {probe_matrix.num_links} inter-switch links "
          f"in {result.stats.elapsed_seconds:.3f} s {result.options.label()}")
    print(f"  coverage >= {args.alpha}: {check_coverage(probe_matrix, args.alpha)}")
    achieved = identifiability_level(probe_matrix, max_beta=max(args.beta, 1))
    print(f"  achieved identifiability: {achieved} (target {args.beta})")
    summary = probe_matrix.summary()
    print(f"  link coverage min/mean/max: {summary['min_coverage']}/"
          f"{summary['mean_coverage']:.1f}/{summary['max_coverage']}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro import build_fattree
    from repro.localization import aggregate_metrics
    from repro.monitor import ControllerConfig, DetectorSystem
    from repro.simulation import ChurnSchedule, FailureGenerator, SeededStreams

    topology = build_fattree(args.k)
    # One seed, independent named streams: drawing an extra churn event can
    # never shift the packet-loss draws of a later window.
    streams = SeededStreams(args.seed)
    rng = streams.generator("probing")
    system = DetectorSystem(
        topology,
        rng,
        ControllerConfig(
            alpha=args.alpha,
            beta=args.beta,
            probes_per_second=args.probes_per_second,
            shard_by_pods=args.shard_by_pods,
            jobs=args.jobs,
            intrapod_paths=args.intrapod_paths,
        ),
    )
    schedule = (
        ChurnSchedule.generate(
            topology,
            streams.generator("churn"),
            num_cycles=args.windows,
            mean_events_per_cycle=args.churn,
        )
        if args.churn > 0
        else None
    )
    cycle = system.run_controller_cycle(incremental=args.incremental)
    print(
        f"controller: {cycle.probe_matrix.num_paths} probe paths, {cycle.num_pingers} pingers"
    )
    generator = FailureGenerator(topology, streams.generator("failures"))
    metrics = []
    for window in range(args.windows):
        if schedule is not None:
            system.watchdog.apply_delta(schedule[window])
            cycle = system.run_controller_cycle(incremental=args.incremental)
            print(
                f"cycle {cycle.version} [{cycle.mode}]: "
                f"{schedule[window].describe()} -> {cycle.probe_matrix.num_paths} paths"
            )
        scenario = generator.generate(args.failures)
        outcome = system.run_window(scenario)
        metrics.append(outcome.metrics)
        print(f"window {window}: injected {scenario.description}")
        if outcome.diagnosis.alerts:
            for alert in outcome.diagnosis.alerts:
                print(f"  ALERT {alert.describe()}")
        else:
            print("  no alerts")
    aggregated = aggregate_metrics(metrics)
    print(
        f"overall: accuracy {aggregated['accuracy']:.0%}, "
        f"false positives {aggregated['false_positive_ratio']:.0%} over {args.windows} windows"
    )
    return 0


def _build_engine_episodes(args: argparse.Namespace, topology, streams):
    """Translate an ``engine run`` scenario name into fault episodes."""
    from repro.engine import CongestionEpisode, FlappingLink, GrayFailure, SwitchOutage
    from repro.simulation import FailureScenario

    picker = streams.generator("fault-placement")
    links = [link.link_id for link in topology.switch_links]
    chosen = [int(links[i]) for i in picker.choice(len(links), size=args.links, replace=False)]
    start = args.window_seconds  # let one clean window establish the baseline
    # Fixed-length episodes need a horizon; an unbounded serve run sizes them
    # off the cycle length instead.
    duration = args.duration
    if duration is None:
        duration = 10.0 * max(args.cycle_seconds, args.window_seconds)

    if args.scenario == "flapping":
        return [
            FlappingLink(
                link_id=link,
                start_time=start,
                half_life_up_seconds=args.flap_half_life,
                half_life_down_seconds=args.flap_half_life,
            )
            for link in chosen
        ], None
    if args.scenario == "congestion":
        return [
            CongestionEpisode(
                link_id=link,
                start_time=start,
                duration_seconds=max(duration - 2 * start, args.window_seconds),
                loss_rate=args.congestion_loss_rate,
            )
            for link in chosen
        ], None
    if args.scenario == "gray":
        return [
            GrayFailure(link_id=link, start_time=start, salt=index)
            for index, link in enumerate(chosen)
        ], None
    if args.scenario == "switch-outage":
        switches = [node.name for node in topology.switches]
        switch = switches[int(picker.integers(0, len(switches)))]
        return [
            SwitchOutage(
                switch_name=switch,
                start_time=start,
                duration_seconds=max(duration - 2 * start, args.window_seconds),
            )
        ], None
    # static: a frozen scenario active from t=0, no dynamics.
    scenario = FailureScenario(description="static CLI scenario")
    from repro.simulation import LinkFailure, LossMode

    for link in chosen:
        scenario.add(LinkFailure(link_id=link, mode=LossMode.FULL))
    return [], scenario


def _build_engine(args: argparse.Namespace):
    """Build the (topology, engine) pair shared by ``run`` and ``serve``."""
    from repro import build_fattree
    from repro.engine import DynamicFaultModel, EngineConfig, TelemetryEngine
    from repro.monitor import ControllerConfig, DetectorSystem
    from repro.simulation import ChurnSchedule, SeededStreams

    topology = build_fattree(args.k)
    streams = SeededStreams(args.seed)
    system = DetectorSystem(
        topology,
        streams.generator("probing"),
        ControllerConfig(
            alpha=args.alpha,
            beta=args.beta,
            shard_by_pods=args.shard_by_pods,
            jobs=args.jobs,
            intrapod_paths=args.intrapod_paths,
        ),
    )
    episodes, static_scenario = _build_engine_episodes(args, topology, streams)
    config = EngineConfig(
        window_seconds=args.window_seconds,
        cycle_seconds=args.cycle_seconds,
        probes_per_second=args.probe_rate,
        jitter_fraction=args.jitter,
        incremental_cycles=not args.full_rebuilds,
        aggregator_shards=args.shards,
        coalesce_horizon_seconds=args.coalesce_horizon,
    )
    churn_schedule = None
    if args.churn > 0:
        horizon = args.duration if args.duration else 10.0 * args.cycle_seconds
        num_cycles = max(1, int(horizon // args.cycle_seconds))
        churn_schedule = ChurnSchedule.generate(
            topology,
            streams.generator("churn"),
            num_cycles=num_cycles,
            mean_events_per_cycle=args.churn,
        )
    if static_scenario is not None:
        model = DynamicFaultModel.static(topology, static_scenario)
        model.churn_schedule = churn_schedule
    else:
        model = DynamicFaultModel(
            topology,
            episodes=episodes,
            rng=streams.generator("fault-dynamics"),
            churn_schedule=churn_schedule,
        )
    from repro.obs import Observability

    want_trace = bool(args.trace or args.chrome_trace)
    obs = Observability.create(
        tracing=True if want_trace else None,  # None defers to REPRO_TRACE
        profile_path=args.profile,
    )
    engine = TelemetryEngine(
        system, model, config, rng=streams.generator("probe-jitter"), obs=obs
    )
    return topology, engine


def _print_ignoring_broken_pipe(line: str) -> None:
    """Print the serve epilogue, tolerating a pipe reader killed by the
    same Ctrl-C (``... serve | head`` dies downstream first)."""
    import os
    import sys

    try:
        print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # pragma: no cover - needs a dead pipe reader
        # Re-point stdout at devnull so the interpreter's exit-time flush
        # does not raise a second BrokenPipeError.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _export_observability(args: argparse.Namespace, engine) -> None:
    """Write the trace artifacts requested on the command line."""
    obs = engine.obs
    if obs.tracer is None:
        return
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(obs.tracer.export_jsonl())
        _print_ignoring_broken_pipe(f"trace written to {args.trace}")
    if args.chrome_trace:
        import json

        from repro.obs import to_chrome_trace

        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            json.dump(to_chrome_trace(obs.tracer.finished_spans()), fh)
            fh.write("\n")
        _print_ignoring_broken_pipe(f"chrome trace written to {args.chrome_trace}")


def _cmd_engine_serve(args: argparse.Namespace) -> int:
    from repro.obs import MetricsJSONWriter, format_status_line

    topology, engine = _build_engine(args)
    registry = engine.obs.registry
    bound = f"{args.windows} windows" if args.windows else (
        f"{args.duration:.0f} s" if args.duration else "unbounded"
    )
    print(f"engine serve: {args.scenario} on {topology.name} ({bound}); Ctrl-C to stop")
    writer = (
        MetricsJSONWriter(args.metrics_json, every=args.metrics_every)
        if args.metrics_json
        else None
    )
    served = 0
    wall = 0.0
    control_wall = 0.0
    try:
        for window in engine.serve(max_windows=args.windows, duration=args.duration):
            served += 1
            wall += window.wall_seconds
            control_wall += window.control_wall_seconds
            report = window.report
            suspects = list(window.window.diagnosis.suspected_links)
            print(
                f"  window {report.index:>4} [{report.start:>8.1f}s, {report.end:>8.1f}s) "
                f"probes={window.probes_sent:>8} lost={window.probes_lost:>6} "
                f"late={window.rejected_events} "
                f"rate={window.probe_events_per_second:>12,.0f}/s "
                f"x{window.realtime_factor:,.0f} realtime "
                f"suspects={suspects if suspects else '[]'}"
            )
            if writer is not None:
                writer.write(report.index, report.end, registry)
            if args.status_every and served % args.status_every == 0:
                print(f"  {format_status_line(registry, served, wall)}")
    except KeyboardInterrupt:  # pragma: no cover - interactive escape hatch
        _print_ignoring_broken_pipe("  ... interrupted")
    finally:
        if writer is not None:
            writer.close()
        _export_observability(args, engine)
    # The final summary is sourced from the metrics registry -- the same
    # totals --metrics-json exports -- not from loop-local tallies, so it is
    # identical whether the loop finished cleanly or was interrupted.
    probes = int(registry.value("probes_sent"))
    lost = int(registry.value("probes_lost"))
    rejected = int(registry.value("aggregator_events_rejected"))
    cycles = int(registry.value("controller_cycles"))
    streaming_wall = max(wall - control_wall, 0.0)
    rate = probes / streaming_wall if streaming_wall > 0 else 0.0
    _print_ignoring_broken_pipe(
        f"served {served} windows: {probes} probes ({lost} lost, {rejected} late), "
        f"{cycles} cycles, wall {wall:.3f}s ({control_wall:.3f}s control), "
        f"{rate:,.0f} probe events/s"
    )
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    if args.engine_command == "serve":
        return _cmd_engine_serve(args)
    topology, engine = _build_engine(args)
    result = engine.run(args.duration)
    if args.metrics_json:
        from repro.obs import write_snapshot

        write_snapshot(args.metrics_json, engine.obs.registry)
        print(f"metrics snapshot written to {args.metrics_json}")
    _export_observability(args, engine)

    print(f"engine: {args.scenario} on {topology.name}, {args.duration:.0f} s simulated")
    for key, value in result.summary().items():
        print(f"  {key:28s} {value}")
    for record in result.detections:
        link = topology.link(record.link_id)
        detection = (
            f"detected +{record.detection_latency:.1f}s" if record.detected else "undetected"
        )
        localization = (
            f"localized +{record.localization_latency:.1f}s"
            if record.localized
            else "not localized"
        )
        print(
            f"  fault link {record.link_id} ({link.a} <-> {link.b}) "
            f"at t={record.fault_start:.1f}s: {detection}, {localization}"
        )
    for cycle in result.cycles:
        shards = (
            f" shards={list(cycle.touched_shards)}"
            if cycle.touched_shards is not None
            else ""
        )
        print(
            f"  cycle at t={cycle.time:.0f}s [{cycle.mode}] churn={cycle.churn} "
            f"wall={cycle.wall_seconds:.3f}s paths={cycle.num_paths}{shards}"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        default_suite,
        figure4,
        figure5,
        figure6,
        pll_comparison,
        run_all,
        table2,
        table3,
        table4,
        table5,
    )

    if args.name == "all":
        from repro.parallel import resolve_jobs

        run_all(
            default_suite(args.scale),
            output_dir=args.output_dir,
            jobs=resolve_jobs(args.jobs),
            seed=args.seed,
        )
        return 0

    modules = {
        "table2": table2,
        "table3": table3,
        "table4": table4,
        "table5": table5,
        "figure4": figure4,
        "figure5": figure5,
        "figure6": figure6,
        "pll": pll_comparison,
    }
    modules[args.name].main()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import main as lint_main

    argv: List[str] = list(args.paths)
    argv += ["--baseline", args.baseline]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.json:
        argv += ["--json", args.json]
    if args.root:
        argv += ["--root", args.root]
    return lint_main(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro`` / ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "topology": _cmd_topology,
        "pmc": _cmd_pmc,
        "monitor": _cmd_monitor,
        "engine": _cmd_engine,
        "experiment": _cmd_experiment,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
