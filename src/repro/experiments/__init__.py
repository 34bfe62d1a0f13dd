"""Experiment harness: scenario construction, runs, and the paper's artefacts.

:func:`run_scenario` builds a complete simulated deployment (simulator,
network, keys, replicas with the chosen pacemaker, corruption plan, metrics)
from a declarative :class:`ScenarioConfig`, runs it, and returns a
:class:`RunResult` with the measured quantities.  It is the single
low-level entry point; sweeps over it are expressed as
:class:`~repro.runner.Campaign` grids (see :mod:`repro.runner`) with
:meth:`~repro.runner.Campaign.run` as the single high-level one.

The ``table1``, ``figure1``, ``responsiveness`` and ``steady_state`` modules
build campaigns that regenerate the corresponding artefacts from the paper;
``gauntlet`` runs every pacemaker against the named adversarial scenario
library (:mod:`repro.faults`).
"""

from repro.experiments.scenario import RunResult, ScenarioConfig, run_scenario
from repro.experiments.table1 import (
    Table1Row,
    eventual_complexity_sweep,
    table1_rows,
    worst_case_complexity_sweep,
)
from repro.experiments.figure1 import Figure1Result, figure1_sweep, run_figure1
from repro.experiments.gauntlet import (
    DEFAULT_GAUNTLET_SCENARIOS,
    GauntletCell,
    gauntlet_table,
    scenario_gauntlet,
)
from repro.experiments.responsiveness import ResponsivenessPoint, responsiveness_sweep
from repro.experiments.steady_state import HeavySyncResult, heavy_sync_count, heavy_sync_sweep

__all__ = [
    "DEFAULT_GAUNTLET_SCENARIOS",
    "Figure1Result",
    "GauntletCell",
    "HeavySyncResult",
    "ResponsivenessPoint",
    "RunResult",
    "ScenarioConfig",
    "Table1Row",
    "eventual_complexity_sweep",
    "figure1_sweep",
    "gauntlet_table",
    "heavy_sync_count",
    "heavy_sync_sweep",
    "responsiveness_sweep",
    "run_figure1",
    "run_scenario",
    "scenario_gauntlet",
    "table1_rows",
    "worst_case_complexity_sweep",
]
