"""Unit tests for the partial-synchrony network model, as the virtual-time
fabric applies it: a :class:`~repro.runtime.transports.LocalTransport` on the
simulator kernel, the delay model imposed by a
:class:`~repro.faults.transport.FaultyTransport`."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults.delays import (
    AdversarialDelay,
    FixedDelay,
    NetworkConfig,
    PreGSTChaos,
    TargetedDelay,
    UniformDelay,
)
from repro.faults.transport import FaultyTransport
from repro.runtime import LocalTransport, SimRuntime
from repro.runtime.transports import Envelope
from repro.sim.events import Simulator


class Sink:
    """Minimal process: records (payload, sender, time) deliveries."""

    def __init__(self, pid: int, sim: Simulator) -> None:
        self.pid = pid
        self.sim = sim
        self.received: list[tuple[object, int, float]] = []

    def deliver(self, payload, sender):
        self.received.append((payload, sender, self.sim.now))


def fabric(sim, config, model):
    """``model`` imposed under ``config`` on ``sim``, as ``build_scenario`` wires it."""
    net = FaultyTransport(
        LocalTransport(), schedule=model, network=config, schedule_seed=sim.seed
    )
    SimRuntime(sim, net)
    return net


def build(n=3, gst=0.0, delta=1.0, actual=0.1, model=None):
    sim = Simulator(seed=1)
    net = fabric(
        sim, NetworkConfig(delta=delta, gst=gst, actual_delay=actual), model or FixedDelay(actual)
    )
    sinks = [Sink(i, sim) for i in range(n)]
    for sink in sinks:
        net.register(sink)
    return sim, net, sinks


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
def test_config_rejects_nonpositive_delta():
    with pytest.raises(ConfigurationError):
        NetworkConfig(delta=0.0)


def test_config_rejects_actual_delay_above_delta():
    with pytest.raises(ConfigurationError):
        NetworkConfig(delta=1.0, actual_delay=2.0)


def test_config_rejects_negative_gst():
    with pytest.raises(ConfigurationError):
        NetworkConfig(delta=1.0, gst=-1.0)


def test_fixed_delay_rejects_negative():
    with pytest.raises(ConfigurationError):
        FixedDelay(-0.5)


def test_uniform_delay_rejects_bad_range():
    with pytest.raises(ConfigurationError):
        UniformDelay(2.0, 1.0)


def test_targeted_delay_rejects_bad_direction():
    with pytest.raises(ConfigurationError):
        TargetedDelay(FixedDelay(0.1), targets=[0], target_delay=1.0, direction="sideways")


# ----------------------------------------------------------------------
# Delivery semantics
# ----------------------------------------------------------------------
def test_point_to_point_delivery_with_fixed_delay():
    sim, net, sinks = build(model=FixedDelay(0.25))
    net.send(0, 1, "hello")
    sim.run()
    assert sinks[1].received == [("hello", 0, pytest.approx(0.25))]


def test_self_message_delivered_immediately():
    sim, net, sinks = build(model=FixedDelay(0.9))
    net.send(2, 2, "note-to-self")
    sim.run()
    assert sinks[2].received[0][2] == pytest.approx(0.0)


def test_broadcast_reaches_everyone_including_sender():
    sim, net, sinks = build(n=4)
    net.broadcast(1, "ping")
    sim.run()
    for sink in sinks:
        assert [payload for payload, _, _ in sink.received] == ["ping"]


def test_broadcast_can_exclude_sender():
    sim, net, sinks = build(n=3)
    net.broadcast(0, "ping", include_self=False)
    sim.run()
    assert sinks[0].received == []
    assert len(sinks[1].received) == 1


def test_multicast_targets_only_listed_recipients():
    # The grouped-send primitive is the fabric's multicast: one entry per
    # recipient, one event for the entries that share a delay.
    sim, net, sinks = build(n=4)
    net.inner.send_grouped(0, "sel", [(1, 0.1, True), (3, 0.1, True)])
    sim.run()
    assert sim.events_processed == 1
    assert len(sinks[1].received) == 1
    assert len(sinks[3].received) == 1
    assert sinks[2].received == []
    with pytest.raises(SimulationError):
        net.inner.send_grouped(0, "sel", [(1, 0.1, True), (99, 0.1, True)])


def test_unknown_recipient_rejected():
    sim, net, sinks = build()
    with pytest.raises(SimulationError):
        net.send(0, 99, "nobody")


def test_duplicate_registration_rejected():
    sim, net, sinks = build()
    with pytest.raises(SimulationError):
        net.register(sinks[0])


# ----------------------------------------------------------------------
# The partial synchrony guarantee
# ----------------------------------------------------------------------
def test_post_gst_messages_respect_delta_bound():
    slow = AdversarialDelay(lambda info, sim: 100.0, name="always-slow")
    sim, net, sinks = build(gst=0.0, delta=1.0, model=slow)
    net.send(0, 1, "bounded")
    sim.run()
    assert sinks[1].received[0][2] == pytest.approx(1.0)


def test_pre_gst_messages_delivered_by_gst_plus_delta():
    slow = AdversarialDelay(lambda info, sim: 1000.0, name="always-slow")
    sim, net, sinks = build(gst=50.0, delta=2.0, model=slow)
    net.send(0, 1, "eventually")
    sim.run()
    assert sinks[1].received[0][2] == pytest.approx(52.0)


def test_pre_gst_chaos_uses_post_model_after_gst():
    model = PreGSTChaos(FixedDelay(0.1), pre_gst_max_delay=40.0)
    sim, net, sinks = build(gst=10.0, delta=1.0, model=model)
    sim.run(until=10.0)
    net.send(0, 1, "after-gst")
    sim.run()
    assert sinks[1].received[0][2] == pytest.approx(10.1)


def test_targeted_delay_slows_only_targets():
    model = TargetedDelay(FixedDelay(0.1), targets=[2], target_delay=0.9, direction="to")
    sim, net, sinks = build(n=3, model=model)
    net.send(0, 1, "fast")
    net.send(0, 2, "slow")
    sim.run()
    assert sinks[1].received[0][2] == pytest.approx(0.1)
    assert sinks[2].received[0][2] == pytest.approx(0.9)


def test_uniform_delay_stays_within_range():
    sim, net, sinks = build(n=2, model=UniformDelay(0.2, 0.4), delta=1.0)
    for _ in range(20):
        net.send(0, 1, "x")
    sim.run()
    for _, _, arrival in sinks[1].received:
        assert 0.2 - 1e-9 <= arrival <= 0.4 + 1e-9


# ----------------------------------------------------------------------
# The min_delay floor (zero-delay livelock guard)
# ----------------------------------------------------------------------
def test_config_rejects_negative_min_delay():
    with pytest.raises(ConfigurationError):
        NetworkConfig(min_delay=-0.1)


def test_config_rejects_min_delay_above_delta():
    with pytest.raises(ConfigurationError):
        NetworkConfig(delta=1.0, actual_delay=1.0, min_delay=2.0)


def test_config_rejects_min_delay_above_actual_delay():
    """A floor above the actual post-GST bound is a contradiction, not a tweak."""
    with pytest.raises(ConfigurationError, match="actual_delay"):
        NetworkConfig(delta=1.0, actual_delay=0.1, min_delay=0.5)


def test_config_accepts_min_delay_equal_to_actual_delay():
    config = NetworkConfig(delta=1.0, actual_delay=0.1, min_delay=0.1)
    assert config.min_delay == pytest.approx(0.1)


def test_min_delay_floors_a_zero_delay_model():
    sim = Simulator(seed=1)
    net = fabric(sim, NetworkConfig(delta=1.0, actual_delay=0.1, min_delay=0.05), FixedDelay(0.0))
    sinks = [Sink(i, sim) for i in range(2)]
    for sink in sinks:
        net.register(sink)
    net.send(0, 1, "floored")
    sim.run()
    assert sinks[1].received[0][2] == pytest.approx(0.05)


def test_min_delay_does_not_slow_self_messages():
    sim = Simulator(seed=1)
    net = fabric(sim, NetworkConfig(actual_delay=0.5, min_delay=0.5), FixedDelay(0.0))
    sink = Sink(0, sim)
    net.register(sink)
    net.send(0, 0, "to-self")
    sim.run()
    assert sink.received[0][2] == pytest.approx(0.0)


class PingPong(Sink):
    """Replies to every delivery, creating an unbounded message chain."""

    def __init__(self, pid: int, sim: Simulator, net: FaultyTransport) -> None:
        super().__init__(pid, sim)
        self.net = net

    def deliver(self, payload, sender):
        super().deliver(payload, sender)
        self.net.send(self.pid, sender, payload)


def test_zero_delay_model_without_floor_raises_instead_of_hanging():
    sim = Simulator(seed=1)
    sim.MAX_EVENTS_PER_TIMESTAMP = 100
    net = fabric(sim, NetworkConfig(delta=1.0, actual_delay=0.1), FixedDelay(0.0))
    players = [PingPong(i, sim, net) for i in range(2)]
    for player in players:
        net.register(player)
    net.send(0, 1, "ball")
    with pytest.raises(SimulationError, match="timestamp"):
        sim.run(until=5.0)


def test_zero_delay_model_with_floor_terminates():
    sim = Simulator(seed=1)
    net = fabric(sim, NetworkConfig(delta=1.0, actual_delay=0.1, min_delay=0.01), FixedDelay(0.0))
    players = [PingPong(i, sim, net) for i in range(2)]
    for player in players:
        net.register(player)
    net.send(0, 1, "ball")
    sim.run(until=5.0)
    assert sim.now == 5.0  # virtual time advances; run(until=...) returns


# ----------------------------------------------------------------------
# Observation hooks
# ----------------------------------------------------------------------
def test_send_and_deliver_listeners_fire():
    sim, net, sinks = build()
    sent: list[Envelope] = []
    delivered: list[Envelope] = []
    net.send_listeners.append(sent.append)
    net.deliver_listeners.append(delivered.append)
    net.send(0, 1, "observed")
    sim.run()
    assert len(sent) == 1 and len(delivered) == 1
    assert sent[0].payload == "observed"
    assert net.inner.messages_sent == 1
    assert net.inner.messages_delivered == 1


def test_envelope_identifies_self_messages():
    sim, net, sinks = build()
    sent: list[Envelope] = []
    net.send_listeners.append(sent.append)
    net.send(1, 1, "me")
    net.send(1, 2, "you")
    assert [envelope.is_self_message for envelope in sent] == [True, False]
