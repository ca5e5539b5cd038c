"""Experiment harnesses: one module per table/figure of the paper's evaluation.

Every module exposes ``run(...) -> ExperimentTable`` (measured, scaled-down by
default) and ``main()`` which prints the paper's reference numbers next to the
measured rows.  The localization experiments (Tables 4-5, Figures 4-6 and the
PLL comparison) share one trial loop, :mod:`repro.experiments.protocol`.  Run
them as scripts, e.g.::

    python -m repro.experiments.table2
    python -m repro.experiments.figure5
"""

from . import figure4, figure5, figure6, pll_comparison, protocol, table2, table3, table4, table5
from .common import ExperimentTable
from .runner import (
    ExperimentRun,
    ExperimentSpec,
    ExperimentSuite,
    default_suite,
    execute_spec,
    run_all,
)

__all__ = [
    "ExperimentTable",
    "ExperimentRun",
    "ExperimentSpec",
    "ExperimentSuite",
    "execute_spec",
    "default_suite",
    "run_all",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure4",
    "figure5",
    "figure6",
    "pll_comparison",
    "protocol",
]
