"""Tests for the fault-injection subsystem: schedules, churn, and the library."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.consensus.behaviour import Behaviour
from repro.consensus.messages import ConsensusMessage
from repro.errors import ConfigurationError
from repro.experiments.gauntlet import build_gauntlet_config
from repro.experiments.scenario import ScenarioConfig, build_scenario, run_scenario
from repro.faults import (
    ChurnBehaviour,
    CorruptionPlan,
    CrashBehaviour,
    DelayContext,
    FaultyTransport,
    FixedDelay,
    IntermittentSynchrony,
    MessageClassDelay,
    NetworkConfig,
    PartitionSchedule,
    PendingSend,
    RotatingLeaderDelay,
    available_scenarios,
    get_scenario,
    scenario_catalogue,
)
from repro.pacemakers.base import PacemakerMessage
from repro.runner import Campaign, Sweep, spec_key
from repro.runtime import LocalTransport, SimRuntime
from repro.sim.events import Simulator


class Sink:
    """Minimal process recording (payload, sender, arrival_time) deliveries."""

    def __init__(self, pid: int, sim: Simulator) -> None:
        self.pid = pid
        self.sim = sim
        self.received: list[tuple[object, int, float]] = []

    def deliver(self, payload, sender):
        self.received.append((payload, sender, self.sim.now))


def build_network(n=4, gst=0.0, delta=1.0, actual=0.1, model=None):
    sim = Simulator(seed=1)
    net = FaultyTransport(
        LocalTransport(),
        schedule=model or FixedDelay(actual),
        network=NetworkConfig(delta=delta, gst=gst, actual_delay=actual),
        schedule_seed=1,
    )
    SimRuntime(sim, net)
    sinks = [Sink(i, sim) for i in range(n)]
    for sink in sinks:
        net.register(sink)
    return sim, net, sinks


# ----------------------------------------------------------------------
# PartitionSchedule: the partial-synchrony delivery window
# ----------------------------------------------------------------------
def partition_model(split=0.0, heal=25.0, flush=0.0, actual=0.1):
    return PartitionSchedule(
        FixedDelay(actual),
        groups=((0, 1), (2, 3)),
        split_at=split,
        heal_at=heal,
        flush_delay=flush,
    )


def test_cross_partition_messages_wait_for_the_heal():
    gst, delta, heal = 30.0, 2.0, 25.0
    sim, net, sinks = build_network(gst=gst, delta=delta, model=partition_model(heal=heal))
    send_times = (0.0, 5.0, 12.5, 24.9)
    for send_time in send_times:
        sim.run(until=send_time)
        net.send(0, 2, f"cross@{send_time}")
    sim.run()
    assert len(sinks[2].received) == len(send_times)
    for _, _, arrival in sinks[2].received:
        # Never delivered before the heal...
        assert arrival >= heal - 1e-9
        # ...and always by max(GST, heal) + Delta, per the model envelope.
        assert arrival <= max(gst, heal) + delta + 1e-9


def test_cross_partition_flush_is_clamped_to_the_envelope():
    # A huge flush delay cannot push delivery past max(GST, send) + Delta.
    gst, delta = 30.0, 2.0
    sim, net, sinks = build_network(
        gst=gst, delta=delta, model=partition_model(heal=25.0, flush=1000.0)
    )
    net.send(0, 2, "flushed")
    sim.run()
    assert sinks[2].received[0][2] == pytest.approx(gst + delta)


def test_same_group_traffic_ignores_the_partition():
    sim, net, sinks = build_network(gst=30.0, model=partition_model(heal=25.0))
    net.send(0, 1, "local")
    sim.run(until=5.0)
    assert sinks[1].received[0][2] == pytest.approx(0.1)


def test_cross_partition_traffic_after_the_heal_is_normal():
    sim, net, sinks = build_network(gst=30.0, model=partition_model(heal=25.0))
    sim.run(until=26.0)
    net.send(0, 2, "healed")
    sim.run()
    assert sinks[2].received[0][2] == pytest.approx(26.1)


def test_unassigned_processors_cross_the_split_freely():
    model = PartitionSchedule(
        FixedDelay(0.1), groups=((0,), (1,)), split_at=0.0, heal_at=50.0
    )
    sim, net, sinks = build_network(n=3, gst=60.0, model=model)
    net.send(2, 0, "observer")  # pid 2 is in no group
    sim.run(until=1.0)
    assert sinks[0].received[0][2] == pytest.approx(0.1)


def test_partition_rejects_overlapping_groups():
    with pytest.raises(ConfigurationError):
        PartitionSchedule(FixedDelay(0.1), groups=((0, 1), (1, 2)), split_at=0.0, heal_at=1.0)


def test_partition_rejects_heal_before_split():
    with pytest.raises(ConfigurationError):
        PartitionSchedule(FixedDelay(0.1), groups=((0,), (1,)), split_at=5.0, heal_at=5.0)


def test_partition_rejects_a_single_group():
    with pytest.raises(ConfigurationError):
        PartitionSchedule(FixedDelay(0.1), groups=((0, 1),), split_at=0.0, heal_at=1.0)


# ----------------------------------------------------------------------
# IntermittentSynchrony
# ----------------------------------------------------------------------
def test_intermittent_synchrony_switches_models_by_window():
    model = IntermittentSynchrony(
        calm=FixedDelay(0.1), chaotic=FixedDelay(0.8), calm_duration=10.0, chaos_duration=5.0
    )
    assert not model.in_chaos(0.0)
    assert not model.in_chaos(9.9)
    assert model.in_chaos(10.0)
    assert model.in_chaos(14.9)
    assert not model.in_chaos(15.0)  # next cycle's calm window
    assert model.in_chaos(25.0)


def test_intermittent_synchrony_is_calm_before_start():
    model = IntermittentSynchrony(
        calm=FixedDelay(0.1),
        chaotic=FixedDelay(0.8),
        calm_duration=1.0,
        chaos_duration=100.0,
        start=50.0,
    )
    assert not model.in_chaos(10.0)
    assert model.in_chaos(52.0)


def test_intermittent_synchrony_delivery():
    model = IntermittentSynchrony(
        calm=FixedDelay(0.1), chaotic=FixedDelay(0.8), calm_duration=10.0, chaos_duration=5.0
    )
    sim, net, sinks = build_network(model=model)
    net.send(0, 1, "calm")
    sim.run(until=11.0)
    net.send(0, 1, "chaos")
    sim.run()
    arrivals = [arrival for _, _, arrival in sinks[1].received]
    assert arrivals[0] == pytest.approx(0.1)
    assert arrivals[1] == pytest.approx(11.8)


def test_intermittent_synchrony_rejects_empty_windows():
    with pytest.raises(ConfigurationError):
        IntermittentSynchrony(FixedDelay(0.1), FixedDelay(0.8), 0.0, 5.0)


# ----------------------------------------------------------------------
# RotatingLeaderDelay
# ----------------------------------------------------------------------
def test_rotating_leader_delay_tracks_the_round_robin():
    model = RotatingLeaderDelay(FixedDelay(0.1), n=4, view_duration=2.0, target_delay=0.9)
    assert model.victim_at(0.0) == 0
    assert model.victim_at(1.9) == 0
    assert model.victim_at(2.0) == 1
    assert model.victim_at(9.0) == 0  # wraps around after n views


def test_rotating_leader_delay_slows_only_the_current_victim():
    model = RotatingLeaderDelay(FixedDelay(0.1), n=4, view_duration=10.0, target_delay=0.9)
    sim, net, sinks = build_network(model=model)
    net.send(1, 0, "to-victim")  # victim at t=0 is pid 0
    net.send(1, 2, "to-bystander")
    sim.run()
    assert sinks[0].received[0][2] == pytest.approx(0.9)
    assert sinks[2].received[0][2] == pytest.approx(0.1)


def test_rotating_leader_delay_supports_custom_schedules():
    model = RotatingLeaderDelay(
        FixedDelay(0.1),
        n=4,
        view_duration=1.0,
        target_delay=0.9,
        leader_fn=lambda view: (view * 2) % 4,
        name="double-stride",
    )
    assert model.victim_at(3.5) == 2
    assert "double-stride" in model.describe()


def test_rotating_leader_delay_requires_a_name_for_custom_schedules():
    with pytest.raises(ConfigurationError):
        RotatingLeaderDelay(
            FixedDelay(0.1), n=4, view_duration=1.0, target_delay=0.9, leader_fn=lambda v: 0
        )


# ----------------------------------------------------------------------
# MessageClassDelay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FakeSyncMessage(PacemakerMessage):
    view: int = 0


@dataclass(frozen=True)
class FakeConsensusMessage(ConsensusMessage):
    pass


def test_message_class_delay_throttles_only_view_sync_traffic():
    model = MessageClassDelay(FixedDelay(0.1), match="view-sync", delay=0.9)
    sim, net, sinks = build_network(model=model)
    net.send(0, 1, FakeSyncMessage(view=3))
    net.send(0, 1, FakeConsensusMessage(view=3))
    net.send(0, 1, "plain-payload")
    sim.run()
    arrivals = sorted(arrival for _, _, arrival in sinks[1].received)
    assert arrivals == [pytest.approx(0.1), pytest.approx(0.1), pytest.approx(0.9)]


def test_message_class_delay_throttles_only_consensus_traffic():
    model = MessageClassDelay(FixedDelay(0.1), match="consensus", delay=0.9)
    sim, net, sinks = build_network(model=model)
    net.send(0, 1, FakeSyncMessage(view=3))
    net.send(0, 1, FakeConsensusMessage(view=3))
    sim.run()
    by_payload = {type(p).__name__: arrival for p, _, arrival in sinks[1].received}
    assert by_payload["FakeSyncMessage"] == pytest.approx(0.1)
    assert by_payload["FakeConsensusMessage"] == pytest.approx(0.9)


def test_message_class_delay_rejects_unknown_classes():
    with pytest.raises(ConfigurationError):
        MessageClassDelay(FixedDelay(0.1), match="gossip", delay=0.5)


# ----------------------------------------------------------------------
# A schedule counts the faults it injects itself, in the branch that shaped
# the message — and only there
# ----------------------------------------------------------------------
def _send(sender, recipient, time, payload="x"):
    return PendingSend(sender, recipient, payload, time, True)


SELF_COUNTING_CASES = {
    "partition": (
        lambda: partition_model(split=1.0, heal=5.0),
        # Two crossings inside the window, one inside a group, one after the heal.
        [_send(0, 2, 1.0), _send(3, 1, 4.9), _send(0, 1, 2.0), _send(0, 2, 5.0)],
        {"partition_epochs": 1, "partitioned_messages": 2},
    ),
    "intermittent": (
        lambda: IntermittentSynchrony(
            FixedDelay(0.1), partition_model(split=0.0, heal=100.0),
            calm_duration=5.0, chaos_duration=5.0,
        ),
        # Calm; first chaotic window twice (one crossing); second chaotic window.
        [_send(0, 2, 1.0), _send(0, 2, 6.0), _send(0, 1, 7.0), _send(0, 1, 16.0)],
        {"chaos_windows": 2, "partition_epochs": 1, "partitioned_messages": 1},
    ),
    "rotating": (
        lambda: RotatingLeaderDelay(FixedDelay(0.1), n=4, view_duration=1.0, target_delay=9.0),
        # The victim at time t is pid int(t) % 4; direction "to".
        [_send(0, 1, 1.5), _send(1, 0, 1.5), _send(0, 2, 2.0)],
        {"dos_hits": 2},
    ),
    "message-class": (
        lambda: MessageClassDelay(FixedDelay(0.1), match="view-sync", delay=0.8),
        [_send(0, 1, 0.0, PacemakerMessage()), _send(0, 1, 0.0, ConsensusMessage(view=0))],
        {"throttled_messages": 1},
    ),
}


@pytest.mark.parametrize("case", sorted(SELF_COUNTING_CASES))
def test_schedule_counts_exactly_the_messages_it_shapes(case):
    build, sends, expected = SELF_COUNTING_CASES[case]
    model, ctx = build(), DelayContext(random.Random(0))
    for pending in sends:
        model.propose_delay(pending, ctx)
    counts = {name: count for name, count in ctx.faults.as_dict().items() if count}
    assert counts == expected


# ----------------------------------------------------------------------
# Crash/recovery churn
# ----------------------------------------------------------------------
def test_default_behaviour_has_no_downtime():
    assert Behaviour().downtime_windows() == []


def test_crash_behaviour_windows_derive_from_crash_and_recover_times():
    assert CrashBehaviour(at_time=5.0).downtime_windows() == [(5.0, None)]
    assert CrashBehaviour(at_time=5.0, recover_at=9.0).downtime_windows() == [(5.0, 9.0)]


def test_churn_behaviour_generates_staggered_windows():
    churn = ChurnBehaviour(first_crash=2.0, downtime=1.0, period=10.0, cycles=3)
    assert churn.downtime_windows() == [(2.0, 3.0), (12.0, 13.0), (22.0, 23.0)]


def test_churn_behaviour_validates_windows():
    with pytest.raises(ValueError):
        ChurnBehaviour(downtime=5.0, period=5.0)
    with pytest.raises(ValueError):
        ChurnBehaviour(downtime=1.0, period=2.0, cycles=0)


def test_replica_rejects_a_recovery_that_does_not_follow_its_crash():
    config = ScenarioConfig(n=4, duration=10.0)
    config.corruption = CorruptionPlan(
        config.protocol_config(), {3: CrashBehaviour(at_time=5.0, recover_at=2.0)}
    )
    with pytest.raises(ConfigurationError, match="does not follow"):
        run_scenario(config)


def test_replica_counts_kills_and_restarts_as_they_happen():
    config = ScenarioConfig(n=4, duration=10.0)
    result = build_scenario(config)
    replica, counters = result.replicas[2], result.metrics.counters
    replica.recover()  # not down: nothing restarted
    assert result.metrics.counts["restarts"] == 0
    replica.crash()
    replica.crash()  # already down: nothing killed
    assert replica.crashed and counters.as_dict()["kills"] == 1
    replica.recover()
    replica.recover()
    assert not replica.crashed
    counts = result.metrics.counts
    assert (counts["kills"], counts["restarts"]) == (1, 1)
    # One row per transition, like the counts.
    assert [event.kind for event in result.metrics.events(pid=2)] == ["crash", "recover"]


@dataclass
class _DowntimeWindows(Behaviour):
    windows: tuple = ()
    is_byzantine: bool = True

    def downtime_windows(self):
        return list(self.windows)


@pytest.mark.parametrize("windows", [
    ((5.0, None), (10.0, 12.0)),  # a permanently crashed replica would come back up
    ((5.0, 15.0), (10.0, 12.0)),  # the inner window would end the outer outage at 12
    ((10.0, 12.0), (5.0, 6.0)),   # out of order
])
def test_replica_rejects_downtime_windows_that_overlap_or_follow_a_permanent_crash(windows):
    config = ScenarioConfig(n=4, duration=20.0)
    config.corruption = CorruptionPlan(config.protocol_config(), {3: _DowntimeWindows(windows)})
    with pytest.raises(ConfigurationError, match="overlap"):
        build_scenario(config)
    # Back-to-back windows are disjoint: accepted, two kills and two restarts.
    config.corruption = CorruptionPlan(
        config.protocol_config(), {3: _DowntimeWindows(((5.0, 10.0), (10.0, 12.0)))}
    )
    counts = run_scenario(config).metrics.counts
    assert (counts["kills"], counts["restarts"]) == (2, 2)


def test_replica_recovers_after_a_crash_window():
    result = run_scenario(
        ScenarioConfig(n=4, duration=80.0, scenario="crash_churn",
                       scenario_params={"downtime": 5.0, "period": 20.0, "cycles": 2})
    )
    # Every churned replica's last window has closed by t=80: nobody ends down.
    assert all(not replica.crashed for replica in result.replicas.values())
    assert result.ledgers_are_consistent()
    assert result.honest_decisions() > 0


# ----------------------------------------------------------------------
# The scenario library
# ----------------------------------------------------------------------
def test_library_has_at_least_ten_scenarios():
    assert len(available_scenarios()) >= 10


def test_every_scenario_is_documented():
    for entry in scenario_catalogue():
        assert entry.intent
        assert entry.claim
        for parameter in entry.parameters:
            assert parameter.doc


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        get_scenario("no-such-scenario")


def test_unknown_scenario_parameter_rejected():
    config = ScenarioConfig(n=4, gst=10.0, scenario="silent_spread",
                            scenario_params={"bogus": 1})
    with pytest.raises(ConfigurationError, match="bogus"):
        run_scenario(config)


def test_scenario_excludes_explicit_delay_model():
    config = ScenarioConfig(n=4, gst=10.0, scenario="silent_spread",
                            delay_model=FixedDelay(0.1))
    with pytest.raises(ConfigurationError, match="determines the adversary"):
        run_scenario(config)


def test_partition_scenarios_require_positive_gst():
    with pytest.raises(ConfigurationError, match="gst"):
        run_scenario(ScenarioConfig(n=4, gst=0.0, scenario="split_brain_at_gst"))


def test_every_scenario_builds_a_cache_stable_effect():
    for entry in scenario_catalogue():
        config = ScenarioConfig(n=4, gst=20.0, duration=60.0, scenario=entry.name)
        delay_model, corruption = entry.build(config)
        if delay_model is not None:
            # Must survive the campaign's stable-description validation.
            description = delay_model.describe()
            assert "0x" not in description and "<lambda>" not in description
        if corruption is not None:
            assert corruption.f_actual <= config.protocol_config().f


def test_scenario_name_and_params_change_the_spec_key():
    base = ScenarioConfig(n=4, gst=20.0, scenario="silent_spread")
    other = ScenarioConfig(n=4, gst=20.0, scenario="rotating_leader_dos")
    tuned = ScenarioConfig(n=4, gst=20.0, scenario="silent_spread",
                           scenario_params={"faults": 1})
    keys = {spec_key(base), spec_key(other), spec_key(tuned)}
    assert len(keys) == 3


# ----------------------------------------------------------------------
# Campaigns sweep the scenario axis
# ----------------------------------------------------------------------
def test_campaign_sweeps_eight_named_scenarios():
    scenarios = (
        "calm_chaos_waves",
        "crash_churn",
        "equivocator_mix",
        "flaky_half",
        "proposal_throttle",
        "rotating_leader_dos",
        "silent_spread",
        "view_sync_throttle",
    )
    campaign = Campaign(
        name="scenario-axis",
        build=build_gauntlet_config,
        sweeps=(Sweep("scenario", scenarios),),
        fixed={
            "protocol": "lumiere",
            "n": 4,
            "delta": 1.0,
            "actual_delay": 0.1,
            "gst": 10.0,
            "duration": 70.0,
            "seed": 0,
        },
    )
    assert len(campaign) == 8
    result = campaign.run(backend="serial")
    assert len(result) == 8
    assert {record.params["scenario"] for record in result} == set(scenarios)
    assert all(record.ledgers_consistent for record in result)
    assert all(record.decisions > 0 for record in result)
    # Run ids carry the scenario name, so reports and caches line up.
    assert any("scenario=silent_spread" in record.run_id for record in result)
