"""Run-to-run spread of every end-to-end metric: the benchmark's own steadiness check.

    python benchmarks/e2e/spread.py [--runs 10] [--sets 2] [--first-seed 1 | --repeat-seed S]
                                    [--workload NAME] [--out PATH]

Runs ``run.py`` in back-to-back sets of ``--runs`` runs on each workload and
prints, per metric and set, the median and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median -- the figure a metric's ``bound`` in ``BENCHMARK.json`` has to stay
above -- and how much worse the second set's median is than the first's.

``--repeat-seed S`` runs one seed every time, so the spread is the machine's
alone: two sets of the same code and inputs.  Without it every run of a set
takes the next seed from ``--first-seed`` on (the same seeds in every set),
which adds the variance of the inputs; that is how the benchmark's driver
measures.  A stored serve digest (``expected/digests.json``) makes every run
of a pinned seed also an exact comparison of the outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def _run(name: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{name} seed {seed}: incorrect run")
    return {metric: entry["value"] for metric, entry in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--first-seed", type=int, default=1)
    seeds.add_argument("--repeat-seed", type=int, default=None)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", default=None, help="write every run's metrics as JSON")
    args = parser.parse_args()

    if args.repeat_seed is None:
        seed_list = list(range(args.first_seed, args.first_seed + args.runs))
    else:
        seed_list = [args.repeat_seed] * args.runs
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    recorded = {}
    for name in args.workload or [w["name"] for w in SPEC["workloads"]]:
        sets = [[_run(name, seed) for seed in seed_list] for _ in range(args.sets)]
        recorded[name] = {"seeds": seed_list, "sets": sets}
        print(f"== {name}: {args.sets} sets of {args.runs} runs, seeds {seed_list} ==")
        for metric, spec in metrics.items():
            medians = []
            for index, runs in enumerate(sets):
                values = [run[metric] for run in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                flag = ""
                if spread > spec["bound"]:
                    flag = "  <-- ABOVE BOUND"
                elif spread * 3 > spec["bound"]:
                    flag = "  <-- above bound/3"
                drift = ""
                if medians:
                    worse = (median - medians[0]) / medians[0] * (1 if spec["better"] == "lower" else -1)
                    drift = f"  vs set 1: {worse:+.3f}" + ("  <-- WORSE THAN BOUND" if worse > spec["bound"] else "")
                medians.append(median)
                print(
                    f"  {metric:<20} set {index + 1}  median {median:>16.4f}  "
                    f"spread {spread:6.3f}  bound {spec['bound']}{flag}{drift}"
                )
    if args.out:
        Path(args.out).write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
