"""Tier-1 smoke of the e2e benchmark: ``--all --smoke`` with ``--trace 0`` and ``--trace 1``.

Fattree(4), a handful of cycles and four windows per workload -- seconds in
total -- but the same code paths, checks and output contract as the full run.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="pods_ft12 runs two PMC workers"),
]


def _run(*flags: str):
    """One ``run.py`` invocation -> (human-readable stdout, one result per workload)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--smoke", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    return done.stdout, dict(zip(WORKLOADS, results))


@pytest.fixture(scope="module")
def untraced():
    # Seed 5 has no stored smoke digest: the run must say so and still pass.
    return _run("--seed", "5")


@pytest.fixture(scope="module")
def traced():
    return [_run("--trace", "1") for _ in range(2)]


def test_spec_meets_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()


def test_untraced_run_prints_every_end_to_end_metric(untraced):
    stdout, results = untraced
    for workload, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0, (workload, metric["name"])
            assert re.search(rf"^  {re.escape(metric['name'])} +[0-9.]+ {re.escape(metric['unit'])} +n=\d+$",
                             stdout, re.M), metric["name"]
    assert "REPRO_* variables stripped" in stdout
    assert stdout.count("check plan_digest_matches: ok") == len(WORKLOADS)
    assert stdout.count("check serve_digest_matches: unpinned") == len(WORKLOADS)


def test_traced_run_prints_every_per_layer_metric(traced):
    stdout, results = traced[0]
    for result in results.values():
        # ``correct`` covers the traced checks: every expected wrapper fired,
        # parallel.* moved only on the pod-sharded workload, >= 90 % of the
        # measured wall is attributed to a named layer.
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        for metric in SPEC["per_layer"]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert re.search(rf"^  {re.escape(metric['name'])} ", stdout, re.M), metric["name"]
    # The stored serve digest of seed 2017 matches, and the traced run and its
    # untraced reference agree on every output digest.
    for name in ("layers_fired", "parallel_only_on_pods", "wall_attributed",
                 "serve_digest_matches", "digests_repeat"):
        assert stdout.count(f"check {name}: ok") == len(WORKLOADS)
    # The BCube and VL2 cold plans ride on the traced Fattree(16) workload only.
    for fabric in ("bcube41", "vl2_4_4"):
        for metric in ("plan_s", "enumerate_s"):
            assert len(re.findall(rf"^  fabric\.{fabric}\.{metric} +[0-9.]+ s$", stdout, re.M)) == 1


def test_parallel_layer_reads_zero_off_the_pod_sharded_workload(traced):
    _, results = traced[0]
    for workload, result in results.items():
        moved = {
            name: entry["value"]
            for name, entry in result["metrics"].items()
            if name.startswith("parallel.") and entry["value"]
        }
        if workload == "pods_ft12":
            assert moved["parallel.tasks"] > 0 and moved["parallel.shm_bytes_exported"] > 0
        else:
            assert moved == {}


def test_count_type_metrics_repeat_exactly(traced):
    (_, first), (_, second) = traced
    # The pickled pool context carries the shm segment name, whose length
    # follows the pid; every other count is a pure function of the inputs.
    counted = [
        m["name"]
        for m in SPEC["per_layer"]
        if m["unit"] in ("count", "bytes", "sim_s") and m["name"] != "parallel.context_bytes"
    ]
    assert len(counted) >= 20
    for workload in WORKLOADS:
        for name in counted:
            assert first[workload]["metrics"][name] == second[workload]["metrics"][name], (workload, name)


def test_span_files_load(traced):
    for workload in WORKLOADS:
        out = HERE / "out" / f"{workload}-smoke"
        spans = [json.loads(line) for line in (out / "spans.jsonl").read_text().splitlines()]
        assert spans and all(span["end"] >= span["start"] for span in spans)
        assert {span["name"] for span in spans if span["parent"] is None} == {
            "harness.plan", "harness.warmup", "harness.cycle", "harness.window",
        }
        chrome = json.loads((out / "trace.chrome.json").read_text())
        assert len(chrome["traceEvents"]) == len(spans)
        assert (out / "program_spans.jsonl").read_text().strip()
        assert json.loads((out / "program_metrics.json").read_text())
