"""The repo's benchmark: one command for the whole chain, end to end and per layer.

    python benchmarks/e2e/run.py --workload NAME|--all [--seed S] [--seconds N]
                                 [--trace 0|1] [--smoke] [--pin] [--out PATH]

Each workload runs in a fresh subprocess (``chain.py``), one after another,
with every ``REPRO_*`` variable stripped from its environment: the workloads
pin backend, jobs, dispatch and tracing through config arguments, and an
inherited ``REPRO_JOBS=4`` or ``REPRO_SHM=0`` would silently measure a
different program.  The untraced run gives the end-to-end metrics; the traced
run (``--trace 1``) installs the wrappers of ``layers.py``, gives the per-layer
metrics and is preceded by an untraced reference run of the same inputs, so
the difference between the two is reported as ``obs.trace_overhead_share``
and two runs that disagree on an output digest fail.

Every metric is printed by name with its unit and sample count, every output
check runs, and a failed check exits non-zero.  The last stdout line of each
workload is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` untraced, its
per-layer metrics traced.  See ``README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-ups measured per run (fresh subprocesses; ``setup_s`` is their median).
SETUP_SAMPLES = 3


def _workload_env() -> Tuple[Dict[str, str], List[str]]:
    """The subprocess environment: ``src`` importable, no ``REPRO_*`` switch."""
    stripped = sorted(key for key in os.environ if key.startswith("REPRO_"))
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([inherited] if inherited else []))
    return env, stripped


# ``repro`` is imported for the REP002 marker only; a checkout without
# ``src/`` fails here, before anything is printed.
sys.path.insert(0, str(ROOT / "src"))
try:
    from repro.contracts import informational_wall  # noqa: E402
except ModuleNotFoundError as error:
    raise SystemExit(f"run.py measures the program under src/ of its checkout: {error}")


@informational_wall("the spawn timestamp feeds setup_s, an informational benchmark output")
def _chain(env: Dict[str, str], *flags: str) -> dict:
    """Run ``chain.py`` once and return the JSON object on its last stdout line."""
    command = [sys.executable, str(HERE / "chain.py"), *flags, "--spawned-at", repr(time.time())]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"chain.py exited with code {done.returncode}: {' '.join(flags)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool, pin: bool) -> dict:
    """Measure one workload; returns its full report (see ``chain.py``)."""
    env, stripped = _workload_env()
    flags = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    if smoke:
        flags.append("--smoke")
    setups = [_chain(env, *flags, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    if trace:
        reference = _chain(env, *flags, "--reference")
        flags += ["--pin"] if pin else []
        out_dir = HERE / "out" / (name + ("-smoke" if smoke else ""))
        report = _chain(env, *flags, "--trace", "1", "--out-dir", str(out_dir))
        report["layers"]["obs.trace_overhead_share"] = [
            report["measured_wall_s"] / reference["measured_wall_s"] - 1.0, "ratio",
        ]
        report["checks"]["digests_repeat"] = report["digests"] == reference["digests"]
        report["trace_files"] = str(out_dir.relative_to(ROOT))
    else:
        report = _chain(env, *flags, *(["--pin"] if pin else []))
    setups.append(report["metrics"]["setup_s"][0])
    report["metrics"]["setup_s"] = [statistics.median(setups), "s", len(setups)]
    report["stripped_env"] = stripped
    report["correct"] = all(v for k, v in report["checks"].items() if isinstance(v, bool))
    return report


def _number(value) -> str:
    return f"{value:>16d}" if isinstance(value, int) else f"{value:>16.4f}"


def _print_report(report: dict, traced: bool) -> None:
    stripped = ", ".join(report["stripped_env"]) or "none set"
    print(f"== {report['workload']}  seed {report['seed']}  {'traced' if traced else 'untraced'} ==")
    print(f"REPRO_* variables stripped from the workload's environment: {stripped}")
    print(
        f"work: {report['cycles']} churn cycles, {report['windows']} served windows, "
        f"{report['counts']['cycle_events']} cycle events, {report['counts']['probes_sent']} probes; "
        f"operations failed/attempted {report['failed']}/{report['attempted']}; "
        f"faults localized {report['counts']['faults_localized']}/{report['counts']['faults_eligible']}"
    )
    for kind, samples in report["samples_s"].items():
        print(f"  {kind} samples (s): {' '.join(f'{w:.3f}' for w in samples)}")
    for failure in report["failures"]:
        print(f"  FAILED operation: {failure}")
    for name, (value, unit, samples) in report["metrics"].items():
        print(f"  {name:<46} {_number(value)} {unit:<6} n={samples}")
    print(f"  {'check_s':<46} {_number(report['check_s'])} {'s':<6} (outside every timed region)")
    if traced:
        for name, (value, unit) in sorted({**report["layers"], **report.get("fabrics", {})}.items()):
            print(f"  {name:<46} {_number(value)} {unit}")
        print(f"  span files: {report['trace_files']}/")
    for name, value in report["checks"].items():
        verdict = {True: "ok", False: "FAILED"}.get(value, value)
        print(f"  check {name}: {verdict}")


def _contract_line(report: dict, traced: bool) -> str:
    """The result object of the benchmark contract (exactly four keys)."""
    spec, measured = (SPEC["per_layer"], report["layers"]) if traced else (SPEC["end_to_end"], report["metrics"])
    values = {}
    for metric in spec:
        values[metric["name"]] = measured[metric["name"]]
        if values[metric["name"]][1] != metric["unit"]:
            raise SystemExit(f"{metric['name']}: unit differs from BENCHMARK.json")
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in values.items()},
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    names = [w["name"] for w in SPEC["workloads"]]
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true", help="every workload, sequentially")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="nominal length of the measured cycles + windows; scales the work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics and span files")
    parser.add_argument("--smoke", action="store_true", help="Fattree(4), seconds in total")
    parser.add_argument("--pin", action="store_true",
                        help="store this run's output digests in expected/digests.json")
    parser.add_argument("--out", default=None, help="also write the full reports and the environment as JSON")
    args = parser.parse_args()

    traced = bool(args.trace)
    reports = {}
    for name in names if args.all else [args.workload]:
        report = run_workload(name, args.seed, args.seconds, args.trace, args.smoke, args.pin)
        reports[name] = report
        _print_report(report, traced)
        print(_contract_line(report, traced), flush=True)
    if args.out:
        import numpy
        import scipy

        environment = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.platform(),
        }
        Path(args.out).write_text(
            json.dumps({"environment": environment, "reports": reports}, indent=1, sort_keys=True) + "\n"
        )
    return 0 if all(report["correct"] for report in reports.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
