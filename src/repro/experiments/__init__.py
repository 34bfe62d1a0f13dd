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

from repro import lazy_exports

# Resolved on first access: a run imports none of the sweep modules.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "scenario": ("RunResult", "ScenarioConfig", "run_scenario"),
    "table1": (
        "Table1Row", "eventual_complexity_sweep", "table1_rows", "worst_case_complexity_sweep",
    ),
    "figure1": ("Figure1Result", "figure1_sweep", "run_figure1"),
    "gauntlet": (
        "DEFAULT_GAUNTLET_SCENARIOS", "GauntletCell", "gauntlet_table", "scenario_gauntlet",
    ),
    "responsiveness": ("ResponsivenessPoint", "responsiveness_sweep"),
    "steady_state": ("HeavySyncResult", "heavy_sync_count", "heavy_sync_sweep"),
})
