"""Run every experiment harness in one go and collect the outputs.

Used by ``python -m repro experiment all`` and by release checklists: it runs
each table/figure harness at a chosen scale, writes the plain-text and CSV
renderings to an output directory and returns the tables for programmatic
inspection.

Sweeps are embarrassingly parallel -- each harness is a pure function of its
keyword arguments -- so :func:`run_all` accepts ``jobs=N`` and fans the
declarative :class:`ExperimentSpec` entries out over a process pool, one
worker process per experiment.  Parallel runs produce *identical* tables to
serial ones: a spec carries every input (including its seed, derived from the
sweep's root seed through a named
:class:`~repro.simulation.SeededStreams` stream in the parent before any
worker starts), and the workers only compute, never share state.  Suites can
still hold plain callables (:meth:`ExperimentSuite.add`); those are not
picklable and always run serially in the parent process.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..contracts import informational_fields, informational_wall, pool_payload
from . import figure4, figure5, figure6, pll_comparison, table2, table3, table4, table5
from .common import ExperimentTable

__all__ = [
    "ExperimentRun",
    "ExperimentSpec",
    "ExperimentSuite",
    "default_suite",
    "execute_spec",
    "run_all",
]


@informational_fields("elapsed_seconds")
@dataclass(frozen=True)
class ExperimentRun:
    """One completed experiment: its table plus how long it took."""

    name: str
    table: ExperimentTable
    elapsed_seconds: float


@pool_payload
@dataclass(slots=True)
class ExperimentSpec:
    """A picklable experiment description: registry key + keyword arguments.

    ``experiment`` names an entry of the runner registry (``"table2"``,
    ``"figure5"``, ...); ``kwargs`` are passed to that harness's ``run``
    verbatim.  Because the spec is plain data it can cross a process
    boundary, which is what lets :func:`run_all` parallelise sweeps.
    """

    experiment: str
    kwargs: Dict[str, object] = field(default_factory=dict)


def _run_table2(scale: str = "small", **kwargs) -> ExperimentTable:
    return table2.run(instances=table2.default_instances(scale), **kwargs)


def _run_table3(scale: str = "small", **kwargs) -> ExperimentTable:
    return table3.run(instances=table3.default_instances(scale), **kwargs)


#: Registry key -> module-level harness callable (picklable by reference).
_REGISTRY: Dict[str, Callable[..., ExperimentTable]] = {
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": table4.run,
    "table5": table5.run,
    "figure4": figure4.run,
    "figure5": figure5.run,
    "figure6": figure6.run,
    "pll_comparison": pll_comparison.run,
}


def execute_spec(spec: ExperimentSpec) -> ExperimentTable:
    """Run one spec (also the entry point worker processes import)."""
    runner = _REGISTRY.get(spec.experiment)
    if runner is None:
        raise ValueError(
            f"unknown experiment {spec.experiment!r}; registry has {sorted(_REGISTRY)}"
        )
    return runner(**spec.kwargs)


@informational_wall("ExperimentRun.elapsed_seconds is informational; tables gate on counters")
def _execute_spec_timed(spec: ExperimentSpec) -> Tuple[ExperimentTable, float]:
    start = time.perf_counter()
    table = execute_spec(spec)
    return table, time.perf_counter() - start


Entry = Union[ExperimentSpec, Callable[[], ExperimentTable]]


@dataclass
class ExperimentSuite:
    """A named set of experiments, each producing an ExperimentTable.

    Entries are either :class:`ExperimentSpec` (declarative, picklable,
    parallelisable -- use :meth:`add_spec`) or bare callables (legacy
    :meth:`add`; always run in the parent process).
    """

    name: str
    experiments: Dict[str, Entry] = field(default_factory=dict)

    def add(self, name: str, runner: Callable[[], ExperimentTable]) -> None:
        self.experiments[name] = runner

    def add_spec(self, name: str, experiment: str, **kwargs: object) -> None:
        self.experiments[name] = ExperimentSpec(experiment=experiment, kwargs=kwargs)

    def names(self) -> List[str]:
        return list(self.experiments)


def default_suite(scale: str = "quick") -> ExperimentSuite:
    """The standard suite covering every table and figure.

    ``scale="quick"`` takes about 2 s serially on a 2-core Xeon (the CLI
    process included); ``scale="full"`` uses larger scaled-down instances
    and more trials (7-9 s on the same box) for numbers closer to the
    paper's.  Every entry is a spec, so both suites parallelise under
    ``run_all(..., jobs=N)``.
    """
    if scale == "quick":
        suite = ExperimentSuite(name="quick")
        suite.add_spec("table2", "table2")
        suite.add_spec("table3", "table3")
        suite.add_spec("table4", "table4", radix=4, trials=5, probes_per_path=80,
                       alpha_beta=((1, 0), (2, 0), (1, 1)), failure_counts=(1, 2))
        suite.add_spec("table5", "table5", radix=6, beta=2, trials=4,
                       failure_counts=(1, 5), probes_per_path=100)
        suite.add_spec("figure4", "figure4", radix=4, frequencies=(2, 10, 30),
                       trials_per_frequency=6)
        suite.add_spec("figure5", "figure5", radix=4, trials=6,
                       detector_frequencies=(2, 10),
                       baseline_probes_per_pair=(5, 20))
        suite.add_spec("figure6", "figure6", radix=4, trials=6, failure_counts=(1, 3, 5))
        suite.add_spec("pll_comparison", "pll_comparison", radix=6, trials=10)
        return suite
    if scale == "full":
        suite = ExperimentSuite(name="full")
        suite.add_spec("table2", "table2", scale="medium")
        suite.add_spec("table3", "table3", scale="medium")
        suite.add_spec("table4", "table4", radix=6, trials=10, probes_per_path=120)
        suite.add_spec("table5", "table5", radix=6, beta=2, trials=10, probes_per_path=150)
        suite.add_spec("figure4", "figure4", radix=4, trials_per_frequency=12)
        suite.add_spec("figure5", "figure5", radix=4, trials=12)
        suite.add_spec("figure6", "figure6", radix=4, trials=12)
        suite.add_spec("pll_comparison", "pll_comparison", radix=6, trials=25)
        return suite
    raise ValueError(f"unknown scale {scale!r}; use 'quick' or 'full'")


def _derive_seeds(selected: Sequence[Tuple[str, Entry]], seed: Optional[int]) -> List[Tuple[str, Entry]]:
    """Pin a per-experiment seed on every spec that accepts one.

    Seeds come from named streams of one root ``SeededStreams``, so they
    depend only on (root seed, experiment name) -- not on suite order or on
    which worker runs the spec.  Specs that already pin ``seed`` and
    harnesses without a ``seed`` parameter are left untouched.
    """
    if seed is None:
        return list(selected)
    from ..simulation.rng import SeededStreams

    streams = SeededStreams(seed)
    derived: List[Tuple[str, Entry]] = []
    for name, entry in selected:
        if isinstance(entry, ExperimentSpec) and "seed" not in entry.kwargs:
            runner = _REGISTRY.get(entry.experiment)
            accepts_seed = (
                runner is not None and "seed" in inspect.signature(runner).parameters
            )
            if accepts_seed:
                entry = ExperimentSpec(
                    experiment=entry.experiment,
                    kwargs={**entry.kwargs, "seed": streams.spawn_seed(name)},
                )
        derived.append((name, entry))
    return derived


@informational_wall("ExperimentRun.elapsed_seconds is informational; tables gate on counters")
def run_all(
    suite: Optional[ExperimentSuite] = None,
    output_dir: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
    verbose: bool = True,
    jobs: int = 1,
    seed: Optional[int] = None,
) -> List[ExperimentRun]:
    """Run (a subset of) a suite, optionally writing text/CSV outputs.

    Parameters
    ----------
    suite:
        The experiment suite; defaults to :func:`default_suite` at "quick" scale.
    output_dir:
        When given, ``<name>.txt`` (pretty table) and ``<name>.csv`` files are
        written there.
    only:
        Restrict to the named experiments.
    verbose:
        Print progress and the rendered tables as they complete.
    jobs:
        Worker processes for spec entries; ``1`` (the default) runs everything
        serially in this process.  Dispatch rides the shared
        :func:`repro.parallel.pool_map` (the same plumbing the pod-sharded
        control plane uses), so results are identical either way -- the pool
        only changes wall-clock time.
    seed:
        Optional root seed: every spec whose harness accepts ``seed`` gets a
        per-experiment seed derived from it (see :meth:`SeededStreams.spawn_seed`),
        the same value at any ``jobs`` setting.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    suite = suite or default_suite()
    selected = list(suite.experiments.items())
    if only is not None:
        wanted = set(only)
        unknown = wanted - set(suite.experiments)
        if unknown:
            raise ValueError(f"unknown experiments requested: {sorted(unknown)}")
        selected = [(name, runner) for name, runner in selected if name in wanted]
    selected = _derive_seeds(selected, seed)

    output_path = Path(output_dir) if output_dir is not None else None
    if output_path is not None:
        output_path.mkdir(parents=True, exist_ok=True)

    results: Dict[str, Tuple[ExperimentTable, float]] = {}
    if jobs > 1:
        spec_entries = [
            (name, entry) for name, entry in selected if isinstance(entry, ExperimentSpec)
        ]
        if spec_entries:
            from ..parallel import pool_map

            # Spec payloads are self-contained plain data, so every run_all
            # shares one persistent pool context: ``experiment all`` pays a
            # single pool spawn however many suites it sweeps.
            outputs = pool_map(
                _execute_spec_timed,
                [entry for _, entry in spec_entries],
                jobs=jobs,
                context_key="experiments.run_all",
            )
            results = {name: output for (name, _), output in zip(spec_entries, outputs)}

    runs: List[ExperimentRun] = []
    for name, entry in selected:
        if name in results:
            table, elapsed = results[name]
        elif isinstance(entry, ExperimentSpec):
            table, elapsed = _execute_spec_timed(entry)
        else:
            start = time.perf_counter()
            table = entry()
            elapsed = time.perf_counter() - start
        runs.append(ExperimentRun(name=name, table=table, elapsed_seconds=elapsed))
        if verbose:
            print(f"[{suite.name}] {name} finished in {elapsed:.1f} s")
            print(table.render())
            print()
        if output_path is not None:
            (output_path / f"{name}.txt").write_text(table.render() + "\n", encoding="utf-8")
            table.write_csv(output_path / f"{name}.csv")
    return runs
