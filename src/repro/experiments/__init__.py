"""Experiment registry and runners regenerating every paper claim.

The paper has no numeric tables (it is a theory paper), so each
"experiment" regenerates one quantitative claim — see the "Experiments"
section of README.md for the full index.  Each runner returns ``(rows, meta)`` where ``rows`` is
a list of table-row dicts and ``meta`` holds fits/derived scalars; the
benches in ``benchmarks/`` and the CLI print them via
:func:`repro.analysis.format_table`.
"""

from .registry import EXPERIMENTS, ExperimentSpec, get_experiment, list_experiments
from .smoke import run_plan_smoke
from .runners import (
    run_e01_completion,
    run_e02_work,
    run_e03_max_load,
    run_e04_burned_fraction,
    run_e05_dominance,
    run_e06_c_threshold,
    run_e07_degree_sweep,
    run_e08_almost_regular,
    run_e09_baselines,
    run_e10_stage1,
    run_e11_alive_decay,
    run_e12_dynamic,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "get_experiment",
    "list_experiments",
    "run_plan_smoke",
    "run_e01_completion",
    "run_e02_work",
    "run_e03_max_load",
    "run_e04_burned_fraction",
    "run_e05_dominance",
    "run_e06_c_threshold",
    "run_e07_degree_sweep",
    "run_e08_almost_regular",
    "run_e09_baselines",
    "run_e10_stage1",
    "run_e11_alive_decay",
    "run_e12_dynamic",
]
