"""Traced-run support: wall-clock spans around the program's layer boundaries.

``install`` wraps the public callables that separate the layers (enumeration,
incidence build and masks, decomposition, PMC, pool dispatch, pinglists, the
controller cycle, probe drains, the simulator's gather and its scalar
fallback, aggregation, PLL) *where their callers look them up*, so no file
under ``src/`` changes.  Each call becomes one span -- name, start, end, parent
and the id of the plan / cycle / window it belongs to -- kept in memory and
written out when the workload ends.  A layer's **self time** is its spans'
duration minus the part their child spans cover, so self times add up to the
measured wall and a layer is never charged for the layers it calls.

Only the traced run pays for any of this; end-to-end metrics come from a run
that never imports this module.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.contracts import informational_wall

__all__ = ["EXPECTED_LAYERS", "PROGRAM_SPANS", "Recorder", "install", "layer_metrics"]

#: Program span (``repro.obs`` tracer) that already brackets a harness layer.
#: Layers missing here have no span in the program's own tracer today -- the
#: input of the later in-program tracing issue.
PROGRAM_SPANS = {
    "core.pmc.solve": "pmc.construct",
    "monitor.watchdog.delta": "watchdog.delta",
    "engine.aggregator.close": "aggregator.close",
    "monitor.diagnoser.diagnose": "pll.diagnose",
    "localization.pll.localize": "pll.diagnose",
}

#: Layers every workload must exercise; a traced run in which one of these
#: wrappers never fired fails.  ``parallel.pool_map`` is checked separately
#: (it must fire on the pod-sharded workload and nowhere else).
EXPECTED_LAYERS = (
    "routing.enumerate",
    "core.incidence.build",
    "core.incidence.mask",
    "core.decomposition",
    "core.pmc.solve",
    "core.probe_matrix.build",
    "monitor.watchdog.delta",
    "monitor.controller.pinglist",
    "monitor.controller.cycle",
    "monitor.system.cycle",
    "engine.loop",
    "engine.rearm",
    "engine.probes.drain",
    "engine.aggregator.record_batch",
    "engine.aggregator.close",
    "simulation.prime",
    "simulation.bulk",
    "monitor.diagnoser.diagnose",
    "localization.pll.localize",
)


class Recorder:
    """In-memory span store plus the tallies read at the same boundaries."""

    def __init__(self) -> None:
        #: rows of ``[name, start, end, parent index or -1, op id]``
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[str] = None
        self.enabled = True  # switched off around the untimed output checks
        self.tallies: Counter = Counter()
        self.samples: Dict[str, List[int]] = defaultdict(list)
        self.largest_index = None  # the biggest IncidenceIndex built (candidates)
        self.largest_shard_row_share = 0.0

    @informational_wall("harness span timestamps are the benchmark's informational output")
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    @informational_wall("harness span timestamps are the benchmark's informational output")
    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span (the caller's layer)."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    # ---------------------------------------------------------------- analysis
    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, children's time subtracted."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return dict(totals)

    def inclusive_times(self) -> Dict[str, float]:
        """Seconds per span name, nested same-name spans counted once."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                totals[name] += end - start
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def root_wall(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    # ----------------------------------------------------------------- exports
    def export(self, out_dir: Path) -> None:
        """Write ``spans.jsonl`` and a ``chrome://tracing`` file."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(out_dir / "spans.jsonl", "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": None if parent < 0 else parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"op": op},
            }
            for name, start, end, _, op in self.spans
        ]
        with open(out_dir / "trace.chrome.json", "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _wrap(rec: Recorder, layer: str, fn: Callable, tally: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        index = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if tally is not None:
            tally(rec, args, result)
        return result

    return wrapper


def _patch(rec: Recorder, owner, attr: str, layer: str, tally: Optional[Callable] = None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap(rec, layer, raw.__func__, tally)))
    else:
        setattr(owner, attr, _wrap(rec, layer, raw, tally))


def _patch_components(rec: Recorder, index_class) -> None:
    """``IncidenceIndex.components`` is the masked cycle's decomposition --
    and PLL's own component split (§5.3), which stays PLL's time."""
    raw = index_class.components
    traced = _wrap(rec, "core.decomposition", raw, _tally_decomposition)

    @functools.wraps(raw)
    def components(*args, **kwargs):
        if rec.parent_name() == "localization.pll.localize":
            return raw(*args, **kwargs)
        return traced(*args, **kwargs)

    index_class.components = components


# ------------------------------------------------------------------- tallies
def _tally_enumerate(rec, args, result) -> None:
    rec.tallies["routing.paths_enumerated"] += len(result)


def _tally_index(rec, args, result) -> None:
    index = args[0].incidence
    if rec.largest_index is None or index.nnz > rec.largest_index.nnz:
        rec.largest_index = index


def _tally_decomposition(rec, args, result) -> None:
    if rec.parent_name() == "core.decomposition":
        return  # the cold path nests components() inside decompose_routing_matrix()
    sizes = [
        sub.num_paths if hasattr(sub, "num_paths") else len(sub[1]) for sub in result
    ]
    rec.tallies["core.decomposition.subproblems"] += len(sizes)
    if sizes and sum(sizes):
        rec.largest_shard_row_share = max(sizes) / sum(sizes)


def _tally_pool_map(rec, args, result) -> None:
    walls = [telemetry.wall_seconds for _, _, telemetry in result]
    rec.tallies["parallel.worker_busy_s"] += sum(walls)
    rec.tallies["parallel.slowest_shard_s"] += max(walls, default=0.0)


def _tally_bulk(rec, args, result) -> None:
    rows = len(args[2])  # (self, path_indices, counts, ...)
    rec.tallies["simulation.rows_submitted"] += rows
    rec.samples["rows_per_drain"].append(rows)


def _tally_fallback(rec, args, result) -> None:
    rec.tallies["simulation.scalar_fallback_calls"] += 1
    if rec.parent_name() != "simulation.bulk":
        # A scalar-path row (small drains skip the columnar expansion).
        rec.tallies["simulation.rows_submitted"] += 1


def _tally_diagnose(rec, args, result) -> None:
    rec.samples["lossy_paths"].append(len(result.lossy_paths))
    rec.samples["suspects"].append(len(result.suspected_links))


def install(rec: Recorder) -> None:
    """Wrap every layer boundary; call once, before any program object exists."""
    import repro.core.pmc as pmc
    import repro.monitor.controller as controller
    from repro.core import ProbeMatrix
    from repro.core.incidence import IncidenceIndex
    from repro.engine import EventLoop, ProbeScheduler, StreamAggregator
    from repro.localization import PLLLocalizer
    from repro.monitor import Controller, DetectorSystem, Diagnoser, Watchdog
    from repro.routing import RoutingMatrix
    from repro.simulation import ProbeSimulator

    _patch(rec, controller, "enumerate_candidate_paths", "routing.enumerate", _tally_enumerate)
    _patch(rec, RoutingMatrix, "__init__", "core.incidence.build", _tally_index)
    _patch(rec, IncidenceIndex, "apply_link_mask", "core.incidence.mask")
    _patch(rec, IncidenceIndex, "revert_link_mask", "core.incidence.mask")
    _patch(rec, pmc, "decompose_routing_matrix", "core.decomposition", _tally_decomposition)
    _patch(rec, pmc, "pod_shards_for_matrix", "core.decomposition", _tally_decomposition)
    _patch_components(rec, IncidenceIndex)
    _patch(rec, controller, "construct_probe_matrix", "core.pmc.solve")
    _patch(rec, controller, "construct_probe_matrix_masked", "core.pmc.solve")
    _patch(rec, ProbeMatrix, "from_selection", "core.probe_matrix.build")
    _patch(rec, pmc, "pool_map", "parallel.pool_map", _tally_pool_map)
    _patch(rec, Watchdog, "apply_delta", "monitor.watchdog.delta")
    _patch(rec, Controller, "build_pinglists", "monitor.controller.pinglist")
    _patch(rec, Controller, "run_cycle", "monitor.controller.cycle")
    _patch(rec, Controller, "run_incremental_cycle", "monitor.controller.cycle")
    _patch(rec, DetectorSystem, "run_controller_cycle", "monitor.system.cycle")
    _patch(rec, DetectorSystem, "build_pingers", "engine.rearm")
    _patch(rec, ProbeScheduler, "set_pingers", "engine.rearm")
    _patch(rec, StreamAggregator, "__init__", "engine.rearm")
    _patch(rec, EventLoop, "run_until", "engine.loop")
    _patch(rec, ProbeScheduler, "drain", "engine.probes.drain")
    _patch(rec, StreamAggregator, "record_batch", "engine.aggregator.record_batch")
    _patch(rec, StreamAggregator, "close_window", "engine.aggregator.close")
    _patch(rec, ProbeSimulator, "prime_paths", "simulation.prime")
    _patch(rec, ProbeSimulator, "probe_paths_bulk", "simulation.bulk", _tally_bulk)
    _patch(rec, ProbeSimulator, "probe_path_batch", "simulation.scalar_fallback", _tally_fallback)
    _patch(rec, Diagnoser, "diagnose", "monitor.diagnoser.diagnose", _tally_diagnose)
    _patch(rec, PLLLocalizer, "localize", "localization.pll.localize")


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def layer_metrics(rec: Recorder, program: Dict[str, object], measured_wall: float, pods: bool):
    """Per-layer metrics of one traced run, plus the traced-run checks.

    Times are layer **self times** summed over the measured region unless the
    name says otherwise; counts come from what the program exports
    (``PMCStats``, ``KernelCounters``, ``EngineResult.counters``,
    ``pool_telemetry()``, ``shm_telemetry()``) read by ``chain.py`` at the
    same boundaries.  Returns ``({name: [value, unit]}, {check: bool})``.
    """
    own = defaultdict(float, rec.self_times())
    inclusive = defaultdict(float, rec.inclusive_times())
    calls = rec.calls()
    tallies = rec.tallies
    pmc, pool, shm, engine = program["pmc"], program["pool"], program["shm"], program["engine"]
    kernel = rec.largest_index.counters.as_dict() if rec.largest_index is not None else {}
    evaluations = pmc["greedy_evaluations"]
    rows = tallies["simulation.rows_submitted"]
    gathered = rows - tallies["simulation.scalar_fallback_calls"]
    pool_map_s = inclusive["parallel.pool_map"]
    harness_self = sum(seconds for name, seconds in own.items() if name.startswith("harness."))
    layer_self = sum(seconds for name, seconds in own.items() if not name.startswith("harness."))
    spanned = sum(
        own[layer] for layer, span in PROGRAM_SPANS.items() if span in program["program_spans"]
    )

    s, count, share = "s", "count", "ratio"
    metrics = {
        "routing.enumerate_s": [own["routing.enumerate"], s],
        "routing.paths_enumerated": [tallies["routing.paths_enumerated"], count],
        "core.incidence.build_s": [own["core.incidence.build"], s],
        "core.incidence.nnz": [rec.largest_index.nnz if rec.largest_index is not None else 0, count],
        "core.incidence.mask_s": [own["core.incidence.mask"], s],
        "core.incidence.kernel_calls": [
            sum(v for k, v in kernel.items() if k.endswith("_calls")), count
        ],
        "core.incidence.kernel_elements": [
            sum(v for k, v in kernel.items() if k.endswith("_elements")), count
        ],
        "core.decomposition.s": [own["core.decomposition"], s],
        "core.decomposition.subproblems": [tallies["core.decomposition.subproblems"], count],
        "core.decomposition.largest_shard_row_share": [rec.largest_shard_row_share, share],
        "core.pmc.solve_s": [own["core.pmc.solve"], s],
        "core.pmc.greedy_evaluations": [evaluations, count],
        "core.pmc.candidates_scored": [pmc["candidates_scored"], count],
        "core.pmc.rescore_useful_ratio": [_ratio(evaluations, pmc["candidates_scored"]), share],
        "core.pmc.lazy_skips": [pmc["lazy_skips"], count],
        "core.pmc.reused_subproblem_share": [
            _ratio(pmc["reused_subproblems"], pmc["subproblems"]), share
        ],
        "core.pmc.s_per_kilo_evaluation": [
            _ratio(inclusive["core.pmc.solve"] * 1e3, evaluations), s
        ],
        "core.probe_matrix.build_s": [own["core.probe_matrix.build"], s],
        "parallel.pool_map_s": [pool_map_s, s],
        "parallel.worker_busy_s": [float(tallies["parallel.worker_busy_s"]), s],
        "parallel.straggler_share": [
            _ratio(tallies["parallel.slowest_shard_s"], pool_map_s), share
        ],
        "parallel.pool_spawns": [pool["pool_spawns"], count],
        "parallel.pool_reuses": [pool["pool_reuses"], count],
        "parallel.tasks": [pool["pool_tasks_dispatched"], count],
        "parallel.payload_bytes": [pool["dispatch_payload_bytes"], "bytes"],
        "parallel.context_bytes": [pool["dispatch_context_bytes"], "bytes"],
        "parallel.shm_bytes_exported": [shm["shm_bytes_exported"], "bytes"],
        "monitor.watchdog.delta_s": [own["monitor.watchdog.delta"], s],
        "monitor.controller.pinglist_s": [own["monitor.controller.pinglist"], s],
        "monitor.controller.changed_pingers": [program["changed_pingers"], count],
        "monitor.controller.cycle_self_s": [own["monitor.controller.cycle"], s],
        "monitor.system.cycle_self_s": [own["monitor.system.cycle"], s],
        "engine.cycle_event_s": [program["control_wall_s"], s],
        "engine.rearm_s": [own["engine.rearm"], s],
        "engine.loop.self_s": [own["engine.loop"], s],
        "engine.loop.events_processed": [program["events_processed"], count],
        "engine.probes.drain_s": [own["engine.probes.drain"], s],
        "engine.probes.drains": [calls["engine.probes.drain"], count],
        "engine.probes.rows_per_drain_p50": [p50(rec.samples["rows_per_drain"]), count],
        "engine.aggregator.record_batch_s": [own["engine.aggregator.record_batch"], s],
        "engine.aggregator.close_s": [own["engine.aggregator.close"], s],
        "engine.aggregator.events_rejected": [engine.get("aggregator_events_rejected", 0), count],
        "engine.window_ms_p90": [program["window_ms_p90"], "ms"],
        "engine.loc_latency_sim_s_p50": [program["loc_latency_p50"], "sim_s"],
        "engine.faults_localized_share": [program["localized_share"], share],
        "simulation.bulk_s": [own["simulation.bulk"], s],
        "simulation.scalar_fallback_s": [own["simulation.scalar_fallback"], s],
        "simulation.scalar_fallback_calls": [tallies["simulation.scalar_fallback_calls"], count],
        "simulation.fastpath_row_share": [_ratio(gathered, rows, empty=1.0), share],
        "simulation.prime_s": [own["simulation.prime"], s],
        "monitor.diagnoser.diagnose_s": [own["monitor.diagnoser.diagnose"], s],
        "localization.pll.localize_s": [own["localization.pll.localize"], s],
        "localization.pll.calls": [calls["localization.pll.localize"], count],
        "localization.pll.lossy_paths_p50": [p50(rec.samples["lossy_paths"]), count],
        "localization.pll.suspects_p50": [p50(rec.samples["suspects"]), count],
        "obs.spans": [len(rec.spans), count],
        "obs.traced_wall_s": [measured_wall, s],
        "obs.attributed_share": [_ratio(layer_self, layer_self + harness_self), share],
        "obs.span_coverage_share": [_ratio(spanned, layer_self), share],
    }
    parallel_total = sum(
        value for name, (value, _) in metrics.items() if name.startswith("parallel.")
    )
    checks = {
        "layers_fired": sorted(layer for layer in EXPECTED_LAYERS if not calls[layer]) == [],
        "parallel_only_on_pods": (parallel_total > 0) == pods,
        "wall_attributed": abs(rec.root_wall() - measured_wall) <= 0.1 * measured_wall
        and metrics["obs.attributed_share"][0] >= 0.9,
    }
    return metrics, checks
