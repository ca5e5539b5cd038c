"""One workload of the e2e benchmark, run inside a fresh subprocess by ``run.py``.

The chain is the repo's whole pipeline driven closed-loop from this single
process, one operation after another on the simulated clock:

1. **set-up** (``setup_s``) -- imports, topology build, seeded input generation;
2. **cold plan** (``plan_s``) -- a fresh ``DetectorSystem`` to its first
   ``ControllerCycle`` with pinglists, then two untimed warm-up incremental
   cycles (the first one fills the CELF warm cache);
3. **churn cycles** (``cycle_s_*``) -- ``watchdog.apply_delta`` +
   ``run_controller_cycle(incremental=True)``, timed as one;
4. **served windows** (``window_ms_*``, ``probe_events_per_s``) --
   ``TelemetryEngine.serve``, timed between consecutive ``ServedWindow`` yields
   with the engine's own cycle events included;
5. **output checks** (``check_s``), outside every timed region.

It prints one JSON object on its last stdout line; ``run.py`` turns that into
the report a user (and the benchmark contract) sees.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

import scipy.sparse.csgraph  # noqa: F401  size-gated lazy import; warmed like the old benches do

from repro.contracts import informational_wall
from repro.core.incidence import shm_telemetry
from repro.core.properties import check_coverage, check_identifiability
from repro.engine import DynamicFaultModel, TelemetryEngine
from repro.monitor import Controller, ControllerConfig, DetectorSystem
from repro.obs import Observability, activated, write_snapshot
from repro.parallel import pool_telemetry, shutdown_pools
from repro.simulation import ChurnSchedule, SeededStreams
from repro.topology import build_bcube, build_vl2

from workloads import ENGINE_CONFIG, PLANS, WORKLOADS, Inputs, Workload, generate_inputs

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected" / "digests.json"

#: ``PMCStats`` fields summed over every controller cycle the chain observes.
_PMC_FIELDS = (
    "greedy_evaluations",
    "candidates_scored",
    "lazy_skips",
    "subproblems",
    "reused_subproblems",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Chain:
    """State of one chain run: the system under test, samples, checks."""

    def __init__(self, workload: Workload, topology, inputs: Inputs, streams, cycles, windows, recorder):
        self.workload = workload
        self.topology = topology
        self.inputs = inputs
        self.streams = streams
        self.cycles = cycles
        self.windows = windows
        self.recorder = recorder
        self.system: Optional[DetectorSystem] = None
        self.walls: Dict[str, List[float]] = {
            "plan": [], "warmup": [], "cycle": [], "window": [], "check": [],
        }
        self.attempted = 0
        self.failures: List[str] = []
        self.checks: Dict[str, object] = {}
        self.pmc: Counter = Counter()
        self.changed_pingers = 0
        self.plan_digests: List[str] = []
        self.window_totals: Dict[str, int] = {}

    # ---------------------------------------------------------------- timing
    @contextmanager
    @informational_wall("benchmark wall timings are the informational output by definition")
    def timed(self, kind: str, index: int):
        """Time one operation; in a traced run it is also one root span."""
        span = None
        if self.recorder is not None:
            self.recorder.op = f"{kind}-{index}"
            span = self.recorder.open(f"harness.{kind}")
        start = time.perf_counter()
        try:
            yield
        finally:
            self.walls[kind].append(time.perf_counter() - start)
            if span is not None:
                self.recorder.close(span)

    @contextmanager
    @informational_wall("check_s is printed next to the metrics, never gated on")
    def checking(self):
        """Time an output check; it is outside the measured wall and untraced."""
        if self.recorder is not None:
            self.recorder.enabled = False
        start = time.perf_counter()
        try:
            yield
        finally:
            self.walls["check"].append(time.perf_counter() - start)
            if self.recorder is not None:
                self.recorder.enabled = True

    def _observe(self, cycle) -> None:
        stats = cycle.pmc_result.stats
        for name in _PMC_FIELDS:
            self.pmc[name] += getattr(stats, name)
        self.changed_pingers += len(cycle.changed_pingers or ())

    def _op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    # ---------------------------------------------------------------- phases
    def plan(self) -> None:
        system = cycle = None
        for i in range(PLANS):
            if self.system is not None:
                self.system.controller.close()
            # Nothing of the previous plan outlives it: peak_rss_mb is one plan's.
            self.system = system = cycle = None
            gc.collect()
            with self.timed("plan", i):
                system = DetectorSystem(
                    self.topology, self.streams.generator("probing"), self.workload.controller
                )
                cycle = system.run_controller_cycle()
            self.system = system
            self._observe(cycle)
            self._op(cycle.mode == "full", f"plan {i} ran as {cycle.mode}")
            with self.checking():
                self.plan_digests.append(_sha(cycle.probe_matrix.to_json()))
        with self.checking():
            config = self.workload.controller
            matrix = self.system.probe_matrix
            stats = self.system.cycle.pmc_result.stats
            self.checks["plans_identical"] = len(set(self.plan_digests)) == 1
            # Links no candidate path crosses are excepted, and only those.
            uncoverable = set(stats.uncoverable_links)
            self.checks["alpha_coverage"] = (
                check_coverage(matrix, config.alpha)
                if not uncoverable
                else all(
                    paths >= config.alpha
                    for link, paths in matrix.link_coverage().items()
                    if link not in uncoverable
                )
            )
            self.checks["beta_identifiability"] = bool(
                check_identifiability(matrix, config.beta)
            )
        for i in range(2):
            with self.timed("warmup", i):
                self._observe(self.system.run_controller_cycle(incremental=True))

    def churn(self) -> None:
        deltas = self.inputs.churn[: self.cycles]
        # The cold-rebuild gate follows the last cycle that leaves a link down.
        failed, check_at = set(), None
        for i, delta in enumerate(deltas):
            failed = (failed | set(delta.failed_links)) - set(delta.recovered_links)
            if failed and self.workload.cold_gate:
                check_at = i
        system = self.system
        gc.collect()
        for i, delta in enumerate(deltas):
            with self.timed("cycle", i):
                system.watchdog.apply_delta(delta)
                cycle = system.run_controller_cycle(incremental=True)
            self._observe(cycle)
            self._op(cycle.mode == "incremental", f"cycle {i} fell back to {cycle.mode}")
            if i == check_at:
                # The bench_incremental gate: a masked warm-start cycle equals
                # a cold rebuild against the same health state.
                with self.checking():
                    cold = system.controller.run_cycle()
                    self.checks["incremental_equals_cold"] = (
                        cold.probe_matrix.to_json() == cycle.probe_matrix.to_json()
                    )

    def serve(self, obs: Observability):
        model = DynamicFaultModel(
            self.topology,
            episodes=list(self.inputs.episodes),
            rng=self.streams.generator("fault-dynamics"),
            churn_schedule=ChurnSchedule(self.inputs.churn[self.cycles :]),
        )
        engine = TelemetryEngine(
            self.system, model, ENGINE_CONFIG, rng=self.streams.generator("probe-jitter"), obs=obs
        )
        duration = self.windows * ENGINE_CONFIG.window_seconds
        stream = engine.serve(duration=duration)
        control_wall = 0.0
        totals: Counter = Counter()
        gc.collect()
        for i in range(self.windows):
            with self.timed("window", i):
                served = next(stream)
            totals["probes_sent"] += served.probes_sent
            totals["probes_lost"] += served.probes_lost
            totals["events_processed"] += served.events_processed
            self._op(
                served.rejected_events == 0 and served.probes_sent > 0,
                f"window {i}: {served.rejected_events} rejected events, "
                f"{served.probes_sent} probes",
            )
            if served.control_wall_seconds > 0:
                control_wall += served.control_wall_seconds
                self._observe(self.system.cycle)
        result = engine.build_result(duration, sum(self.walls["window"]))
        self.window_totals = dict(totals)
        return result, control_wall


@informational_wall("benchmark wall timings are the informational output by definition")
def _fabric_plans(recorder, smoke: bool) -> Dict[str, list]:
    """One cold plan each of a BCube and a VL2 fabric, after a traced run.

    BCube is enumerate-bound where Fattree(16) is split between enumerate,
    index and PMC, so an enumerator change tuned on fat-trees shows here if it
    costs the other fabrics.  Runs after the layer metrics are taken, so its
    spans do not count towards the workload's layers.
    """
    fabrics = (
        (("bcube41", build_bcube(4, 1)), ("vl2_4_4", build_vl2(4, 4, 2)))
        if smoke
        else (("bcube43", build_bcube(4, 3)), ("vl2_20_12", build_vl2(20, 12, 20)))
    )
    out: Dict[str, list] = {}
    for name, topology in fabrics:
        first = len(recorder.spans)
        gc.collect()
        start = time.perf_counter()
        Controller(topology, ControllerConfig(alpha=2, beta=1, jobs=1)).run_cycle()
        out[f"fabric.{name}.plan_s"] = [time.perf_counter() - start, "s"]
        out[f"fabric.{name}.enumerate_s"] = [
            sum(end - begin for span, begin, end, *_ in recorder.spans[first:] if span == "routing.enumerate"),
            "s",
        ]
    return out


#: What an unpinned serve digest reports instead of a verdict.  Not a bool, so
#: it is printed and kept out of ``correct``: nothing was compared.
UNPINNED = "unpinned: nothing is stored for this seed and --seconds (--pin stores it; --trace 1 compares two runs)"


def _check_digests(chain: Chain, keys: Dict[str, str], digests: Dict[str, str], pin: bool) -> None:
    """Compare the run's digests with ``expected/digests.json``.

    The pristine plan does not depend on the seed, so its key is always
    stored and a missing one fails.  The serve digest is stored per
    ``(workload, seed, windows)``; on any other seed there is nothing to
    compare with, and the check reads ``UNPINNED`` instead of passing.
    ``--pin`` stores this run's digests.
    """
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for kind, key in keys.items():
        if pin:
            expected.setdefault(kind, {})[key] = digests[kind]
        stored = expected.get(kind, {}).get(key)
        chain.checks[f"{kind}_digest"] = digests[kind]
        if stored is None and kind == "serve":
            chain.checks["serve_digest_matches"] = UNPINNED
        else:
            chain.checks[f"{kind}_digest_matches"] = stored == digests[kind]
    if pin:
        EXPECTED_PATH.parent.mkdir(exist_ok=True)
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def _faults(result, windows: int):
    """Ground-truth faults old enough to be judged, and those localized."""
    horizon = windows * ENGINE_CONFIG.window_seconds
    eligible = [
        r for r in result.detections
        if r.fault_start <= horizon - 2 * ENGINE_CONFIG.window_seconds
    ]
    return eligible, [r for r in eligible if r.localized]


def _digests(chain: Chain, result) -> Dict[str, str]:
    """Digest of the last cold plan, and of the serve's counts and timeline."""
    timeline = [
        [r.link_id, r.fault_start, r.first_loss_time, r.localized_time] for r in result.detections
    ]
    counts = [result.probes_sent, result.probes_lost, result.events_processed]
    return {"plan": chain.plan_digests[-1], "serve": _sha(json.dumps(counts + [timeline]))}


def _output_checks(chain: Chain, result, digests: Dict[str, str], eligible, localized, args) -> None:
    """Stored digests, and the serve checks that hold on every seed."""
    scale = "@smoke" if args.smoke else ""
    name = chain.workload.name
    keys = {"plan": f"{name}{scale}", "serve": f"{name}{scale}/seed{args.seed}/{chain.windows}w"}
    _check_digests(chain, keys, digests, args.pin)
    # The run totals are the sum of what the windows reported, a fabric
    # without faults loses no probe, and the timeline names injected links only.
    injected = {episode.link_id for episode in chain.inputs.episodes}
    chain.checks["serve_counts_consistent"] = (
        chain.window_totals
        == {
            "probes_sent": result.probes_sent,
            "probes_lost": result.probes_lost,
            "events_processed": result.events_processed,
        }
        and (bool(injected) or result.probes_lost == 0)
        and all(
            r.link_id in injected
            and (r.first_loss_time is None or r.first_loss_time >= r.fault_start)
            and (r.localized_time is None or r.localized_time >= r.first_loss_time)
            for r in result.detections
        )
    )
    # PLL is not exact under 51 concurrent faults (a gray failure matches 1/8
    # of the flow space; two links that share their lossy paths are one
    # suspect), so an unlocalized fault is an outcome, not a failed operation:
    # 1-5 of 51 on the storm over seeds 1-10, none elsewhere.  The exact
    # timeline is in the stored digest; on a fresh seed this is the floor.
    allowed = max(1, len(eligible) // 5)
    chain.checks["faults_localized"] = len(eligible) - len(localized) <= allowed


def _end_to_end(walls: Dict[str, List[float]], probes_sent: int, setup_s: float) -> Dict[str, list]:
    """``{metric: [value, unit, sample count]}`` for every end-to-end metric."""
    window_ms = [w * 1e3 for w in walls["window"][1:]]  # the first window pays the re-arm
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": [setup_s, "s", 1],
        "plan_s": [statistics.median(walls["plan"]), "s", len(walls["plan"])],
        "cycle_s_p50": [statistics.median(walls["cycle"]), "s", len(walls["cycle"])],
        "cycle_s_mean": [statistics.fmean(walls["cycle"]), "s", len(walls["cycle"])],
        "probe_events_per_s": [probes_sent / sum(walls["window"]), "1/s", len(walls["window"])],
        "window_ms_p50": [statistics.median(window_ms), "ms", len(window_ms)],
        "peak_rss_mb": [peak_kb / 1024.0, "MB", 1],
    }


@informational_wall("benchmark wall timings are the informational output by definition")
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True, help="driver's time.time() at spawn")
    parser.add_argument("--setup-only", action="store_true", help="measure set-up and exit")
    parser.add_argument("--reference", action="store_true", help="untraced twin of a traced run: digests, no checks")
    parser.add_argument("--pin", action="store_true", help="store this run's digests as expected")
    parser.add_argument("--out-dir", default=None, help="where a traced run writes its span files")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    if (os.cpu_count() or 1) < workload.controller.jobs:
        raise SystemExit(
            f"{workload.name} runs {workload.controller.jobs} PMC workers; "
            f"refusing on a box with {os.cpu_count()} core(s)"
        )
    recorder = None
    if args.trace:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)

    # ---------------------------------------------------------------- set-up
    topology = workload.topology(args.smoke)
    cycles, windows = workload.counts(args.seconds, args.smoke)
    streams = SeededStreams(args.seed)
    inputs = generate_inputs(workload, topology, streams, cycles, windows)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # -------------------------------------------------------- measured region
    chain = Chain(workload, topology, inputs, streams, cycles, windows, recorder)
    # The traced run also turns on the program's own sim-time tracer, so its
    # span stream can be compared with the harness's (obs.span_coverage_share).
    obs = Observability.create(tracing=bool(args.trace))
    with activated(obs.tracer):
        chain.plan()
        chain.churn()
    result, control_wall = chain.serve(obs)
    chain.system.controller.close()
    shutdown_pools()  # pool children are waited for, so RUSAGE_CHILDREN sees them

    eligible, localized = _faults(result, windows)
    digests = _digests(chain, result)
    if not args.reference:
        with chain.checking():
            _output_checks(chain, result, digests, eligible, localized, args)
    if chain.failures:
        chain.checks["operations"] = False

    walls = chain.walls
    measured_wall = sum(sum(walls[k]) for k in ("plan", "warmup", "cycle", "window"))
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "cycles": cycles,
        "windows": windows,
        "attempted": chain.attempted,
        "failed": len(chain.failures),
        "failures": chain.failures,
        "checks": chain.checks,
        "digests": digests,
        "metrics": _end_to_end(walls, result.probes_sent, setup_s),
        "samples_s": {k: [round(w, 4) for w in walls[k]] for k in ("plan", "warmup", "cycle")},
        "measured_wall_s": measured_wall,
        "check_s": sum(walls["check"]),
        "counts": {
            "probes_sent": result.probes_sent,
            "probes_lost": result.probes_lost,
            "events_processed": result.events_processed,
            "cycle_events": len(result.cycles),
            "faults": len(result.detections),
            "faults_eligible": len(eligible),
            "faults_localized": len(localized),
        },
    }

    if recorder is not None:
        latencies = [r.localization_latency for r in result.detections if r.localized]
        program = {
            "pmc": dict(chain.pmc),
            "changed_pingers": chain.changed_pingers,
            "pool": pool_telemetry(),
            "shm": shm_telemetry(),
            "engine": result.counters,
            "events_processed": result.events_processed,
            "control_wall_s": control_wall,
            "loc_latency_p50": statistics.median(latencies) if latencies else 0.0,
            "window_ms_p90": _p90([w * 1e3 for w in walls["window"][1:]]),
            "localized_share": len(localized) / len(eligible) if eligible else 1.0,
            "program_spans": sorted({sp.name for sp in obs.tracer.finished_spans()}),
        }
        layer_metrics, layer_checks = layers.layer_metrics(
            recorder, program, measured_wall, pods=workload.controller.shard_by_pods
        )
        report["layers"] = layer_metrics
        report["checks"].update(layer_checks)
        if args.out_dir:
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            recorder.export(out_dir)
            (out_dir / "program_spans.jsonl").write_text(
                obs.tracer.export_jsonl(include_wall=True, include_informational=True)
            )
            write_snapshot(str(out_dir / "program_metrics.json"), obs.registry)
        if workload.fabric_plans:
            report["fabrics"] = _fabric_plans(recorder, args.smoke)

    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
