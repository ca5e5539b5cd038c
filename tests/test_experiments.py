"""Tests for the experiment harnesses: structure, scaling knobs and qualitative shapes.

The heavier "does the trend match the paper" checks live in benchmarks/; here
we verify that every harness runs end to end on tiny instances and produces
well-formed tables with the expected columns and reference data.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments import (
    ExperimentTable,
    default_suite,
    figure4,
    figure5,
    figure6,
    pll_comparison,
    protocol,
    table2,
    table3,
    table4,
    run_all,
    table5,
)
from repro.experiments.common import format_value
from repro.monitor import DetectorSystem
from repro.simulation import FailureScenario, LinkFailure, LossMode
from repro.topology import build_bcube, build_fattree, build_vl2


class TestExperimentTable:
    def test_add_row_and_render(self):
        table = ExperimentTable(title="t", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a=None, b="x")
        table.add_note("a note")
        rendered = table.render()
        assert "t" in rendered and "a note" in rendered
        assert "2.5" in rendered
        assert "-" in rendered  # the None cell

    def test_column_values(self):
        table = ExperimentTable(title="t", columns=["a"])
        table.add_row(a=1)
        table.add_row(a=3)
        assert table.column_values("a") == [1, 3]

    @pytest.mark.parametrize(
        "value, expected",
        [(None, "-"), (True, "yes"), (False, "no"), (1234567, "1,234,567"), (0.0, "0")],
    )
    def test_format_value(self, value, expected):
        assert format_value(value) == expected


class TestTable2:
    def test_paper_reference_rows(self):
        reference = table2.paper_reference()
        assert len(reference.rows) == 9
        fattree72 = next(r for r in reference.rows if r["dcn"] == "Fattree(72)")
        assert fattree72["symmetry"] == pytest.approx(17.054)
        assert fattree72["strawman"] is None  # "> 24h"

    def test_run_tiny(self):
        instances = [table2.Table2Instance("Fattree(4)", lambda: build_fattree(4))]
        table = table2.run(instances=instances)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row["candidate_paths"] == 112
        for column in ("strawman", "decomposition", "lazy_update", "symmetry"):
            assert row[column] is not None and row[column] >= 0

    def test_strawman_skipped_over_limit(self):
        instances = [table2.Table2Instance("Fattree(6)", lambda: build_fattree(6))]
        table = table2.run(instances=instances, strawman_path_limit=10)
        assert table.rows[0]["strawman"] is None
        assert table.rows[0]["lazy_update"] is not None

    def test_default_instances_scales(self):
        assert len(table2.default_instances("small")) >= 3
        assert len(table2.default_instances("medium")) >= 3
        with pytest.raises(ValueError):
            table2.default_instances("huge")


class TestTable3:
    def test_paper_reference_rows(self):
        reference = table3.paper_reference()
        fattree64 = next(r for r in reference.rows if r["dcn"] == "Fattree(64)")
        assert fattree64["paths(1,1)"] == 61_440

    def test_run_tiny(self):
        instances = [table3.Table3Instance("Fattree(4)", lambda: build_fattree(4), fattree_k=4)]
        table = table3.run(instances=instances, alpha_beta=((1, 0), (1, 1)))
        row = table.rows[0]
        assert row["paths(1,0)"] < row["paths(1,1)"]
        assert row["fattree_lower_bound"] == pytest.approx(12.8)

    def test_beta_clamping_noted(self):
        instances = [table3.Table3Instance("Fattree(4)", lambda: build_fattree(4))]
        table = table3.run(instances=instances, alpha_beta=((1, 3),), max_beta=1)
        assert any("clamped" in note for note in table.notes)


class TestTable4:
    def test_paper_reference_trend(self):
        reference = table4.paper_reference()
        by_setting = {row["alpha_beta"]: row for row in reference.rows}
        assert by_setting["(1,1)"]["acc_1"] > by_setting["(3,0)"]["acc_1"]

    def test_run_tiny(self):
        table = table4.run(
            radix=4,
            alpha_beta=((1, 0), (1, 1)),
            failure_counts=(1, 2),
            trials=3,
            probes_per_path=60,
        )
        assert len(table.rows) == 2
        for row in table.rows:
            for count in (1, 2):
                assert 0.0 <= row[f"acc_{count}_failures"] <= 100.0

    def test_failure_count_exceeding_links_is_skipped(self):
        table = table4.run(
            radix=4, alpha_beta=((1, 0),), failure_counts=(1, 10_000), trials=1, probes_per_path=10
        )
        assert table.rows[0]["acc_10000_failures"] is None


class TestTable5:
    def test_paper_reference(self):
        reference = table5.paper_reference()
        assert all(row["false_positive_pct"] < 1.0 for row in reference.rows)

    def test_run_tiny(self):
        table = table5.run(radix=4, beta=1, failure_counts=(1, 2), trials=3, probes_per_path=80)
        assert len(table.rows) == 2
        for row in table.rows:
            total = row["accuracy_pct"] + row["false_negative_pct"]
            assert total == pytest.approx(100.0, abs=1e-6)


class TestFigure4:
    def test_run_tiny(self):
        table = figure4.run(radix=4, frequencies=(2, 20), trials_per_frequency=3)
        assert len(table.rows) == 2
        low, high = table.rows
        assert high["bandwidth_kbps"] > low["bandwidth_kbps"]
        assert high["cpu_pct"] > low["cpu_pct"]
        assert high["workload_rtt_us"] >= low["workload_rtt_us"] * 0.9
        assert figure4.paper_reference_notes()


class TestFigure5:
    def test_run_tiny(self):
        table = figure5.run(
            radix=4,
            trials=3,
            detector_frequencies=(5,),
            baseline_probes_per_pair=(5,),
        )
        systems = {row["system"] for row in table.rows}
        assert systems == {"deTector", "Pingmesh+Netbouncer", "NetNORAD+fbtracert"}
        detector_row = next(r for r in table.rows if r["system"] == "deTector")
        assert detector_row["time_to_localization_s"] == 30.0
        baseline_rows = [r for r in table.rows if r["system"] != "deTector"]
        assert all(r["time_to_localization_s"] >= 30.0 for r in baseline_rows)

    def test_paper_reference(self):
        reference = figure5.paper_reference()
        values = {row["system"]: row["probes_per_minute"] for row in reference.rows}
        assert values["deTector"] < values["NetNORAD+fbtracert"] < values["Pingmesh+Netbouncer"]


class TestFigure6:
    def test_run_tiny(self):
        table = figure6.run(radix=4, probe_budget_per_minute=4000, failure_counts=(1, 2), trials=3)
        detector_rows = [r for r in table.rows if r["system"] == "deTector"]
        assert len(detector_rows) == 2
        assert all(0.0 <= r["accuracy_pct"] <= 100.0 for r in table.rows)
        assert figure6.paper_reference_notes()

    def test_systems_replay_the_same_scenarios(self, monkeypatch):
        from repro.baselines.common import ECMPBaseline

        received = {}
        for cls in (DetectorSystem, ECMPBaseline):

            def spy(self, scenario, *args, _run=cls.run_window, **kwargs):
                received.setdefault(self, []).append(scenario)
                return _run(self, scenario, *args, **kwargs)

            monkeypatch.setattr(cls, "run_window", spy)
        counts = (1, 2)
        figure6.run(radix=4, probe_budget_per_minute=4000, failure_counts=counts, trials=3)
        # Group the systems by the exact scenario objects they monitored.
        groups = {}
        for system, scenarios in received.items():
            groups.setdefault(tuple(map(id, scenarios)), (scenarios, []))[1].append(
                type(system).__name__
            )
        assert len(groups) == len(counts)
        for scenarios, systems in groups.values():
            assert sorted(systems) == ["DetectorSystem", "NetNORADSystem", "PingmeshSystem"]
            assert len(scenarios) == 3
            assert len({len(scenario.bad_link_ids) for scenario in scenarios}) == 1


class TestPLLComparison:
    def test_run_tiny(self):
        table = pll_comparison.run(radix=4, trials=4, failures_per_trial=1, probes_per_path=60)
        algorithms = [row["algorithm"] for row in table.rows]
        assert algorithms == ["PLL", "Tomo", "SCORE", "OMP"]
        pll_row = table.rows[0]
        assert pll_row["accuracy_pct"] >= 70.0
        assert pll_row["mean_runtime_ms"] >= 0.0

    def test_localizers_share_one_observation_set(self, monkeypatch):
        from repro.localization import OMPLocalizer, PLLLocalizer, ScoreLocalizer, TomoLocalizer

        seen = {}
        for cls in (PLLLocalizer, TomoLocalizer, ScoreLocalizer, OMPLocalizer):

            def spy(self, probe_matrix, observations, _localize=cls.localize):
                seen.setdefault(type(self).__name__, []).append(observations)
                return _localize(self, probe_matrix, observations)

            monkeypatch.setattr(cls, "localize", spy)
        pll_comparison.run(radix=4, trials=3, failures_per_trial=1, probes_per_path=60)
        per_localizer = {tuple(map(id, observations)) for observations in seen.values()}
        assert len(seen) == 4 and len(per_localizer) == 1
        assert len(set(next(iter(per_localizer)))) == 3


class TestProtocol:
    def test_scenarios_are_drawn_lazily_and_paired(self):
        events = []

        class Recorder(protocol.System):
            links = [1, 2, 3]

            def __init__(self, name):
                self.name = name

            def run(self, scenario):
                events.append(("run", self.name, scenario.description))
                return [1], 5

        def scenarios():
            for index in range(2):
                events.append(("draw", index))
                yield FailureScenario(
                    failures={1: LinkFailure(1, LossMode.FULL)}, description=str(index)
                )

        summaries = protocol.evaluate([Recorder("a"), Recorder("b")], scenarios())
        assert events == [
            ("draw", 0), ("run", "a", "0"), ("run", "b", "0"),
            ("draw", 1), ("run", "a", "1"), ("run", "b", "1"),
        ]
        assert [summary.probes for summary in summaries] == [[5, 5], [5, 5]]
        assert all(c.accuracy == 1.0 for summary in summaries for c in summary.counts)

    def test_add_row_follows_the_table_columns(self):
        summary = protocol.Summary(counts=[], probes=[10, 20])
        table = ExperimentTable(
            title="t", columns=["system", "probes_per_minute", "accuracy_pct", "false_negative_pct"]
        )
        protocol.add_row(table, summary, system="x", ignored=1)
        assert table.rows == [
            {"system": "x", "probes_per_minute": 30.0, "accuracy_pct": 100.0,
             "false_negative_pct": 0.0}
        ]
        assert list(table.rows[0]) == list(table.columns)


# ---------------------------------------------------------------------------
# Output pins: the quick suite and the pinger window, digested
# ---------------------------------------------------------------------------

#: Wall-clock columns: the only cells of the quick suite that may differ
#: between two runs at one seed.
TIMING_COLUMNS = {
    "table2": {"strawman", "decomposition", "lazy_update", "symmetry"},
    "pll_comparison": {"mean_runtime_ms"},
}

#: sha256 of every non-timing cell, per experiment of ``default_suite("quick")``
#: at root seed 2017.
QUICK_SUITE_DIGESTS = {
    "table2": "205f3429e2a1689da9e04f20c35586f286d9da9890919e49f50fbf2560c04140",
    "table3": "e68dc7a2050882d86fc69976e9a69cb7cb0df77d0e442a50588bbedb4d272bfd",
    "table4": "57f30d8b18888fcb53d6aee7d5aaf957e98b2fc368aaf1257ef58c0aa5d18289",
    "table5": "80016a722db488112f85f4ad6749f2371505568fca12bad487f858e64f15faf3",
    "figure4": "dee7e2b5a8731964ead85e05fd0a7b4359cddefb98ad09bc59138ff67279734d",
    "figure5": "3a30f8b3704bd6bf39835121c4f4798807005d65277f6a3940682d7e4bf64852",
    "figure6": "507c65897c384a5a1ce5c05eeebf21bee05d8ffea6be81148ef24d01b16cbe0b",
    "pll_comparison": "a4aa533c86c9037c7003f2649d6965ac6f54e78b10b664f6197764c5366764ff",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _table_digest(name, table) -> str:
    kept = [column for column in table.columns if column not in TIMING_COLUMNS.get(name, ())]
    return _digest([kept] + [[row.get(column) for column in kept] for row in table.rows])


@pytest.fixture(scope="module")
def quick_suite_runs():
    return {run.name: run for run in run_all(default_suite("quick"), verbose=False, seed=2017)}


class TestQuickSuitePins:
    @pytest.mark.parametrize("name", sorted(QUICK_SUITE_DIGESTS))
    def test_non_timing_columns(self, quick_suite_runs, name):
        assert _table_digest(name, quick_suite_runs[name].table) == QUICK_SUITE_DIGESTS[name]


def _random_partial_scenarios(topology):
    """Two windows' scenarios: three, then two random-partial switch links."""
    links = [link.link_id for link in topology.switch_links]
    picks = ((1, 0.05), (len(links) // 2, 0.2), (len(links) - 2, 0.5)), ((3, 0.1), (7, 0.3))
    return [
        FailureScenario(
            failures={
                links[i]: LinkFailure(links[i], LossMode.RANDOM_PARTIAL, loss_rate=rate, salt=i)
                for i, rate in window
            }
        )
        for window in picks
    ]


#: Per topology: each window's suspects and probes sent, then a sha256 of
#: every window's per-pinger ``(server, sent, lost)`` with its per-path
#: observations, and the generator's next draw.
RUN_WINDOW_PINS = {
    "fattree4": (
        [[32, 46, 1], [11, 3]],
        [5210, 5006],
        "4250cc2b20732a8efb541fb06d55b138343cdd60ce1ca53f10ce75e533549f9e",
    ),
    "vl2": (
        [[140, 48, 1], [7, 3]],
        [13204, 12276],
        "6d643107bc8d2fc59680e2683138b83ff0aee23761e5e15cc6fdf2e17cb4f61e",
    ),
    # BCube models its servers as switches and has no ToR tier, so the
    # controller places no pinger: the window is empty and draws nothing.
    "bcube": (
        [[], []],
        [0, 0],
        "28b085ef292e234a45f7c0e565bf35229081f00b879c5a5cf280a6a6b870ad91",
    ),
}

_TOPOLOGIES = {
    "fattree4": lambda: build_fattree(4),
    "vl2": lambda: build_vl2(12, 8, 2),
    "bcube": lambda: build_bcube(4, 1),
}


class TestRunWindowPins:
    @pytest.mark.parametrize("name", sorted(RUN_WINDOW_PINS))
    def test_random_partial_windows(self, name):
        topology = _TOPOLOGIES[name]()
        system = DetectorSystem(topology, np.random.default_rng(2017))
        system.run_controller_cycle()
        suspects, probes_sent, reports = [], [], []
        for scenario in _random_partial_scenarios(topology):
            outcome = system.run_window(scenario)
            suspects.append(outcome.suspected_links)
            probes_sent.append(outcome.probes_sent)
            reports.append(
                [
                    (r.pinger_server, r.probes_sent, r.probes_lost)
                    + tuple((o.path_index, o.sent, o.lost) for o in r.observations)
                    for r in outcome.pinger_reports
                ]
            )
        digest = _digest((reports, float(system.rng.random())))
        assert (suspects, probes_sent, digest) == RUN_WINDOW_PINS[name]


#: sha256 of ``deterministic_rows()`` of Figures 5 and 6 on Fattree(8), at
#: sizes where both baselines raise alarms: Netbouncer and fbtracert run in
#: some windows, under Figure 6's budget cap and without it in Figure 5.
RADIX8_FIGURE_PINS = {
    "figure5": "781ee4c8b023cfdeb1e1c3818f3ce116dbed992e1d2ebe31f249c9468e53b799",
    "figure6": "29404a8983612196e3595209e7134326427d524cb9242a36016735c0d3c71157",
}

_RADIX8_FIGURES = {
    "figure5": lambda: figure5.run(
        radix=8, trials=3, detector_frequencies=(5,), baseline_probes_per_pair=(2, 10)
    ),
    "figure6": lambda: figure6.run(radix=8, failure_counts=(1, 5), trials=4),
}


class TestRadix8FigurePins:
    @pytest.mark.parametrize("name", sorted(RADIX8_FIGURE_PINS))
    def test_deterministic_rows(self, monkeypatch, name):
        from repro.baselines import Fbtracert, Netbouncer

        localized = []
        for tool in (Netbouncer, Fbtracert):

            def spy(self, *args, _localize=tool.localize, **kwargs):
                result = _localize(self, *args, **kwargs)
                localized.append(type(self).__name__)
                return result

            monkeypatch.setattr(tool, "localize", spy)
        table = _RADIX8_FIGURES[name]()
        assert {"Netbouncer", "Fbtracert"} <= set(localized)
        assert _digest(table.deterministic_rows()) == RADIX8_FIGURE_PINS[name]
