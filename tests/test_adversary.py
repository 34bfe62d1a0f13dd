"""Unit tests for corruption plans, behaviours and attack helpers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.consensus.behaviour import Behaviour, HonestBehaviour
from repro.faults.attacks import (
    epoch_tail_corruption,
    lp22_tail_attack_plan,
    spread_corruption,
    worst_case_clock_dispersion_model,
)
from repro.faults.behaviours import (
    CrashBehaviour,
    EquivocatingBehaviour,
    MuteViewSyncBehaviour,
    SilentLeaderBehaviour,
    SlowLeaderBehaviour,
    WithholdQCBehaviour,
)
from repro.faults.corruption import CorruptionPlan
from repro.config import ProtocolConfig
from repro.errors import ConfigurationError
from repro.faults.delays import PreGSTChaos


def test_honest_behaviour_never_deviates():
    behaviour = HonestBehaviour()
    assert not behaviour.is_byzantine
    assert not behaviour.suppress_proposal(1)
    assert not behaviour.suppress_vote(1)
    assert not behaviour.suppress_qc_broadcast(1)
    assert not behaviour.suppress_view_sync("view", 1)
    assert behaviour.proposal_delay(1) == 0.0
    assert behaviour.crash_time() is None


def test_silent_leader_suppresses_proposals_and_qcs():
    behaviour = SilentLeaderBehaviour()
    assert behaviour.is_byzantine
    assert behaviour.suppress_proposal(3)
    assert behaviour.suppress_qc_broadcast(3)
    assert not behaviour.suppress_vote(3)


def test_slow_leader_delays_by_configured_amount():
    behaviour = SlowLeaderBehaviour(delay=2.5)
    assert behaviour.proposal_delay(0) == 2.5
    assert behaviour.qc_broadcast_delay(0) == 2.5


def test_crash_behaviour_reports_crash_time():
    behaviour = CrashBehaviour(at_time=12.0)
    assert behaviour.crash_time() == 12.0
    assert behaviour.is_byzantine


def test_other_behaviour_flags():
    assert EquivocatingBehaviour().equivocate(1)
    assert MuteViewSyncBehaviour().suppress_view_sync("epoch_view", 5)
    assert WithholdQCBehaviour().suppress_qc_broadcast(2)


def test_corruption_plan_respects_resilience_bound():
    config = ProtocolConfig(n=4)
    with pytest.raises(ConfigurationError):
        CorruptionPlan.uniform(config, [0, 1], SilentLeaderBehaviour)


def test_corruption_plan_rejects_unknown_ids():
    config = ProtocolConfig(n=4)
    with pytest.raises(ConfigurationError):
        CorruptionPlan(config=config, behaviours={9: SilentLeaderBehaviour()})


def test_corruption_plan_queries():
    config = ProtocolConfig(n=7)
    plan = CorruptionPlan.uniform(config, [1, 4], SilentLeaderBehaviour)
    assert plan.f_actual == 2
    assert plan.corrupted_ids == {1, 4}
    assert plan.honest_ids == {0, 2, 3, 5, 6}
    assert isinstance(plan.behaviour_for(1), SilentLeaderBehaviour)
    assert isinstance(plan.behaviour_for(0), HonestBehaviour)
    assert plan.describe() == {1: "SilentLeaderBehaviour", 4: "SilentLeaderBehaviour"}


def test_none_plan_has_no_faults():
    config = ProtocolConfig(n=4)
    plan = CorruptionPlan.none(config)
    assert plan.f_actual == 0
    assert plan.honest_ids == set(range(4))


def test_spread_corruption_respects_f_actual_and_avoid():
    config = ProtocolConfig(n=13)
    plan = spread_corruption(config, 3, SilentLeaderBehaviour, avoid={0})
    assert plan.f_actual == 3
    assert 0 not in plan.corrupted_ids
    assert len(plan.corrupted_ids) == 3


def test_spread_corruption_zero_faults():
    config = ProtocolConfig(n=7)
    assert spread_corruption(config, 0).f_actual == 0


def test_spread_corruption_caps_at_f():
    config = ProtocolConfig(n=7)
    with pytest.raises(ConfigurationError):
        spread_corruption(config, 5)


def test_epoch_tail_corruption_targets_last_view_leader():
    config = ProtocolConfig(n=7)
    epoch_length = config.f + 1
    plan = epoch_tail_corruption(config, epoch_length=epoch_length, epoch_index=1)
    expected = (2 * epoch_length - 1) % config.n
    assert plan.corrupted_ids == {expected}


def test_lp22_tail_attack_uses_single_fault():
    config = ProtocolConfig(n=13)
    plan = lp22_tail_attack_plan(config)
    assert plan.f_actual == 1


def test_worst_case_dispersion_model_is_chaotic_before_gst():
    config = ProtocolConfig(n=4)
    model = worst_case_clock_dispersion_model(config, actual_delay=0.1)
    assert isinstance(model, PreGSTChaos)
    assert model.pre_gst_max_delay > config.delta


def test_custom_behaviour_subclass_hooks_are_picked_up():
    class OnlyViewFive(Behaviour):
        is_byzantine = True

        def suppress_vote(self, view: int) -> bool:
            return view == 5

    behaviour = OnlyViewFive()
    assert behaviour.suppress_vote(5)
    assert not behaviour.suppress_vote(6)


#: The wall-clock stack: what the sockets, rings and worker processes need.
_LIVE_STDLIB = ("asyncio", "socket", "ssl", "selectors", "multiprocessing", "mmap")
_LIVE_REPRO = tuple(f"repro.runtime.{m}" for m in ("wallclock", "tcp", "shm", "codec")) + tuple(
    f"repro.runner.{m}" for m in ("process_cluster", "shard", "campaign", "executor", "cache", "record", "live")
)


def _above_the_protocol_core(module: str) -> bool:
    """The adversary, the lanes and the fabrics are layered on the core (the
    hooks a replica consults live in repro.consensus.behaviour)."""
    return module.split(".")[0] in _LIVE_STDLIB or module.split(".")[:2] in (
        ["repro", "faults"], ["repro", "runner"], ["repro", "experiments"], ["repro", "runtime"],
    )


def _outside_the_sim_lane(module: str) -> bool:
    """A virtual-time run needs no live stack, no campaign runner, no sweep
    module and no pacemaker but the one it runs."""
    package, _, leaf = module.rpartition(".")
    return (
        module.split(".")[0] in _LIVE_STDLIB
        or module in _LIVE_REPRO
        or (package == "repro.experiments" and leaf != "scenario")
        or (package == "repro.pacemakers" and leaf not in ("base", "registry"))
    )


@pytest.mark.parametrize(
    "statement, forbidden",
    [
        pytest.param(
            "import repro.consensus, repro.core; from repro.pacemakers import *",
            _above_the_protocol_core, id="protocol_core",
        ),
        pytest.param(
            "from repro.experiments.scenario import ScenarioConfig, run_scenario; "
            "run_scenario(ScenarioConfig(n=4, duration=50.0))",
            _outside_the_sim_lane, id="sim_lane",
        ),
    ],
)
def test_a_layer_loads_only_what_it_runs(statement, forbidden):
    probe = f"import sys; {statement}; print('\\n'.join(sys.modules))"
    src = Path(__file__).resolve().parents[1] / "src"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout.split()
    assert sorted(m for m in loaded if forbidden(m)) == []
