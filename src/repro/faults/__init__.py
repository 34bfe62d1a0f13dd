"""The adversary: which processors are corrupt, GST, and each message's fate.

* :mod:`repro.faults.delays` — the partial-synchrony envelope
  (:class:`NetworkConfig`, GST included) and the composable
  :class:`DelayModel` family deciding each message's delay, or its loss
  (:class:`Lossy`), within it;
* :mod:`repro.faults.transport` — :class:`FaultyTransport`, the one place a
  delay model is imposed, over any transport on every lane;
* :mod:`repro.faults.corruption`, :mod:`repro.faults.behaviours` and
  :mod:`repro.faults.attacks` — corruption plans of up to ``f`` Byzantine
  behaviours (whose hooks are :mod:`repro.consensus.behaviour`'s) and the
  pre-packaged attacks the benchmarks use;
* :mod:`repro.faults.library` — named, parameterised scenarios combining
  the two.  A scenario name is a :class:`~repro.runner.campaign.Sweep`
  axis value via ``ScenarioConfig(scenario=...)``.
"""

from repro.faults.attacks import (
    epoch_tail_corruption,
    lp22_tail_attack_plan,
    spread_corruption,
    worst_case_clock_dispersion_model,
)
from repro.faults.behaviours import (
    ChurnBehaviour,
    CrashBehaviour,
    EquivocatingBehaviour,
    MuteViewSyncBehaviour,
    SilentLeaderBehaviour,
    SlowLeaderBehaviour,
    WithholdQCBehaviour,
)
from repro.faults.corruption import CorruptionPlan
from repro.faults.delays import (
    MESSAGE_CLASSES,
    AdversarialDelay,
    DelayContext,
    DelayModel,
    FixedDelay,
    IntermittentSynchrony,
    Lossy,
    MessageClassDelay,
    NetworkConfig,
    PartitionSchedule,
    PendingSend,
    PreGSTChaos,
    RotatingLeaderDelay,
    TargetedDelay,
    UniformDelay,
)
from repro.faults.library import (
    FaultScenario,
    ScenarioParameter,
    available_scenarios,
    get_scenario,
    scenario,
    scenario_catalogue,
)
from repro.faults.transport import FaultyTransport

__all__ = [
    "MESSAGE_CLASSES",
    "AdversarialDelay",
    "ChurnBehaviour",
    "CorruptionPlan",
    "CrashBehaviour",
    "DelayContext",
    "DelayModel",
    "EquivocatingBehaviour",
    "FaultScenario",
    "FaultyTransport",
    "FixedDelay",
    "IntermittentSynchrony",
    "Lossy",
    "MessageClassDelay",
    "MuteViewSyncBehaviour",
    "NetworkConfig",
    "PartitionSchedule",
    "PendingSend",
    "PreGSTChaos",
    "RotatingLeaderDelay",
    "ScenarioParameter",
    "SilentLeaderBehaviour",
    "SlowLeaderBehaviour",
    "TargetedDelay",
    "UniformDelay",
    "WithholdQCBehaviour",
    "available_scenarios",
    "epoch_tail_corruption",
    "get_scenario",
    "lp22_tail_attack_plan",
    "scenario",
    "scenario_catalogue",
    "spread_corruption",
    "worst_case_clock_dispersion_model",
]
