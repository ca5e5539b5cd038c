"""Wall-clock gates for the streaming serve mode (ISSUE 6).

Absolute gate: a modest floor the small CI instance clears comfortably -- the
hard >= 5M events/s Fattree(16) gate lives in ``bench_engine.py --min-rate
5000000``, which the CI benchmark job runs on the full instance.  Storm gate:
with the three fault classes on ~6 % of the switch links -- the regime the
gate above does not enter -- the bulk probing kernel must beat row-by-row
dispatch of the same rows.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.contracts import informational_wall
from repro.engine import DynamicFaultModel, EngineConfig, FlappingLink, TelemetryEngine
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
from repro.topology import build_fattree


def _run(topology, duration: float = 120.0):
    streams = SeededStreams(2017)
    system = DetectorSystem(
        topology, streams.generator("probing"), ControllerConfig(alpha=2, beta=1)
    )
    system.run_controller_cycle()
    links = [link.link_id for link in topology.switch_links]
    picker = streams.generator("fault-placement")
    flapped = [int(links[i]) for i in picker.choice(len(links), size=3, replace=False)]
    config = EngineConfig(
        window_seconds=30.0,
        cycle_seconds=60.0,
        probes_per_second=100.0,
        aggregator_shards=8,
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
    engine = TelemetryEngine(system, model, config, rng=streams.generator("probe-jitter"))
    return engine.run(duration)


@informational_wall("kernel wall times feed the non-blocking storm-mix gate only")
def _storm_mix_walls(topology, drains: int = 20, toggle: bool = False) -> "tuple":
    """Wall seconds of ``drains`` whole-table drains through the bulk kernel
    and through one ``probe_path_batch`` call per row, same rows, same seed.
    ``toggle`` fails and heals one more link between every two drains, so the
    bulk kernel patches its plan for a new scenario version before each one."""
    streams = SeededStreams(2017)
    system = DetectorSystem(
        topology, streams.generator("probing"), ControllerConfig(alpha=2, beta=1)
    )
    system.run_controller_cycle()
    paths = system.probe_matrix.paths
    links = [int(link.link_id) for link in topology.switch_links]
    picker = streams.generator("fault-placement")
    per_class = max(1, len(links) // 50)  # three classes: ~6 % of the links
    faulty = picker.choice(len(links), size=3 * per_class, replace=False)
    scenario = FailureScenario(description="storm mix")
    for position, index in enumerate(faulty):
        mode = list(LossMode)[position % 3]
        scenario.add(
            LinkFailure(links[int(index)], mode, loss_rate=0.05, match_fraction=0.125,
                        salt=position)
        )
    config = ProbeConfig()
    rows = np.arange(len(paths), dtype=np.int64)
    counts = 3 + rows % 5
    firing = np.zeros(len(rows), dtype=np.int64)

    bulk = ProbeSimulator(topology, scenario, streams.generator("bulk"))
    bulk.prime_paths(paths)
    scalar = ProbeSimulator(topology, scenario, streams.generator("bulk"))
    crossed = {link for path in paths for link in path.link_ids}
    flapping = next(link for link in links if link in crossed and link not in scenario.failures)
    bulk_wall = scalar_wall = 0.0
    for drain in range(drains):
        if toggle and drain % 2:
            scenario.add(LinkFailure(flapping, LossMode.FULL))
        elif toggle:
            scenario.remove(flapping)
        dirty = [row for row, path in enumerate(paths) if path.link_ids & scenario.failures.keys()]
        starts = counts * drain
        started = time.perf_counter()
        sent, lost = bulk.probe_paths_bulk(rows, counts, starts, [config], firing, [2])
        bulk_wall += time.perf_counter() - started
        # Row-by-row dispatch of the rows the mask cannot answer, as
        # probe_paths_bulk did it before the columnar kernel.
        expected = counts.copy(), np.zeros(len(rows), dtype=np.int64)
        started = time.perf_counter()
        for row in dirty:
            expected[0][row], expected[1][row] = scalar.probe_path_batch(
                paths[row], config, int(counts[row]), int(starts[row]), confirm_losses=2
            )
        scalar_wall += time.perf_counter() - started
        assert sent.tolist() == expected[0].tolist() and lost.tolist() == expected[1].tolist()
    assert bulk.drops_per_link == scalar.drops_per_link
    telemetry = bulk.telemetry()
    assert telemetry["rows_stochastic"] > 0 < telemetry["rows_deterministic"]
    assert telemetry["scenario_compiles"] == (drains if toggle else 1)
    return bulk_wall, scalar_wall


@pytest.mark.wallclock
class TestStreamingThroughput:
    def test_absolute_floor_on_small_instance(self):
        """Fattree(8) must clear 1M probe events/s on the streaming plane
        (the full Fattree(16) >= 5M gate runs in bench_engine.py)."""
        result = _run(build_fattree(8))
        assert result.probe_events_per_second > 1_000_000, (
            f"{result.probe_events_per_second:,.0f} events/s"
        )

    @pytest.mark.parametrize("toggle", [False, True], ids=["static", "flapping"])
    def test_bulk_kernel_beats_row_dispatch_in_a_storm(self, toggle):
        """Unhealthy fabric: the columnar dirty-row kernel must stay well
        ahead of one scalar call per dirty row, on a static scenario and with
        one link flipping between drains (3x gate vs ~9x static and ~8x
        flapping measured on Fattree(8), 2 cores; their equality on every
        observable is covered in tier-1)."""
        bulk_wall, scalar_wall = _storm_mix_walls(build_fattree(8), toggle=toggle)
        assert scalar_wall > 3.0 * bulk_wall, (
            f"bulk {bulk_wall * 1e3:.1f} ms vs row-by-row {scalar_wall * 1e3:.1f} ms"
        )
