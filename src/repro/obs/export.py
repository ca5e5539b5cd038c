"""One exporter for every BENCH writer: shared schema for counter blocks.

Before the observability plane, each benchmark harness hand-rolled its
counter serialization (slightly different shapes across ``bench_engine.py``,
``bench_podshard.py``, ``bench_incremental.py`` and ``bench_runner.py``).
Everything now funnels through two helpers:

* :func:`counters_block` -- the per-row counter block.  Keys stay sorted
  (JSON-stable), values are exact ints, and the ``counters_schema`` tag lets
  downstream tooling detect the shape without guessing;
* :func:`write_bench_report` -- the report envelope every ``BENCH_*.json``
  shares (benchmark name, config, python version, rows, schema tag).

Both render deterministically for deterministic inputs; wall-clock fields
live in the rows the harnesses build, never in the envelope itself.
"""

from __future__ import annotations

import json
import platform
from typing import Dict, List, Mapping, Optional, Union

__all__ = ["COUNTERS_SCHEMA", "REPORT_SCHEMA", "counters_block", "write_bench_report"]

#: Schema tags for the shared BENCH shapes; bump on incompatible change.
COUNTERS_SCHEMA = "repro.obs/counters-v1"
REPORT_SCHEMA = "repro.obs/bench-report-v1"

Number = Union[int, float]


def counters_block(counters: Mapping[str, Number]) -> Dict[str, object]:
    """The shared per-row counter block: ``{"counters_schema", "cost_counters"}``.

    Accepts any flat counter mapping (a
    :meth:`~repro.core.costmodel.CostModel.as_dict`,
    :meth:`~repro.core.PMCStats.cost_counters`, an
    :class:`~repro.obs.registry.MetricsRegistry` counter section) and renders
    it sorted, with integral values as exact ints.
    """
    rendered: Dict[str, Number] = {}
    for name in sorted(counters):
        value = counters[name]
        rendered[name] = int(value) if isinstance(value, bool) or value == int(value) else value
    return {"counters_schema": COUNTERS_SCHEMA, "cost_counters": rendered}


def write_bench_report(
    path: str,
    benchmark: str,
    config: Mapping[str, object],
    rows: List[Mapping[str, object]],
    **extra: object,
) -> Dict[str, object]:
    """Write the standard ``BENCH_*.json`` envelope; returns the report dict.

    ``extra`` keys (e.g. a churn-isolation section, sweep-level timings) merge
    into the top level after the shared fields, so existing consumers keep
    their keys.
    """
    report: Dict[str, object] = {
        "benchmark": benchmark,
        "report_schema": REPORT_SCHEMA,
        "config": dict(config),
        "python_version": platform.python_version(),
        "rows": list(rows),
    }
    for key, value in extra.items():
        report[key] = value
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report
