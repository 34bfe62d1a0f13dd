"""Delay-model edge cases: the partial-synchrony clamp, targeted delays,
and pre/post-GST straddling.

These pin down the exact boundary semantics the protocols rely on:

* a message sent at ``t`` is delivered by ``max(GST, t) + Delta`` no matter
  what the adversary proposes — and a maximally adversarial model lands
  *exactly* on that deadline;
* :class:`TargetedDelay` applies its delay according to ``direction`` and
  falls back to the base model otherwise;
* :class:`PreGSTChaos` switches models at GST: the chaotic draw applies to
  sends strictly before GST, the wrapped model from GST onwards.
"""

from __future__ import annotations

import random

import pytest

from repro.faults.delays import (
    AdversarialDelay,
    DelayContext,
    FixedDelay,
    NetworkConfig,
    PendingSend,
    PreGSTChaos,
    TargetedDelay,
)
from repro.faults.transport import FaultyTransport
from repro.runtime import LocalTransport, Transport
from repro.sim.events import Simulator


class Sink:
    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.received: list[tuple[object, int]] = []

    def deliver(self, payload, sender):
        self.received.append((payload, sender))


class Fabric:
    """``model`` imposed under ``config`` on ``sim`` as ``build_scenario``
    wires it; ``send`` hands back the envelope the transport minted."""

    def __init__(self, sim: Simulator, config: NetworkConfig, model, n: int = 3) -> None:
        self.transport = FaultyTransport(
            LocalTransport(), schedule=model, network=config, schedule_seed=sim.seed
        )
        self.transport.bind(sim)
        self.sent = []
        self.transport.send_listeners.append(self.sent.append)
        for pid in range(n):
            self.transport.register(Sink(pid))

    def send(self, sender: int, recipient: int, payload):
        self.transport.send(sender, recipient, payload)
        return self.sent[-1]


def build_network(gst: float, delta: float, model, n: int = 3):
    sim = Simulator(seed=3)
    return sim, Fabric(sim, NetworkConfig(delta=delta, gst=gst, actual_delay=delta / 2), model, n)


HUGE_DELAY = AdversarialDelay(lambda pending, sim: 1e9, name="huge")


# ----------------------------------------------------------------------
# The one rule: NetworkConfig.delivery_time
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "send_time,proposed,expected",
    [
        (0.0, 0.25, 0.25),     # benign proposal before GST: taken as is
        (0.0, 1e9, 11.5),      # hostile proposal before GST: GST + Delta
        (10.0, 1e9, 11.5),     # exactly at GST: both branches agree
        (25.0, 1e9, 26.5),     # after GST: send + Delta
        (25.0, 0.01, 25.05),   # below the floor: min_delay
        (25.0, -5.0, 25.05),   # negative proposal: floored too
        (25.0, 1.5, 26.5),     # exactly Delta: on the deadline
        (9.0, 2.0, 11.0),      # straddles GST inside the envelope: untouched
    ],
)
def test_delivery_time_floors_then_clamps(send_time, proposed, expected):
    config = NetworkConfig(delta=1.5, gst=10.0, actual_delay=0.1, min_delay=0.05)
    assert config.delivery_time(send_time, proposed) == pytest.approx(expected)


@pytest.mark.parametrize("site", ["unicast", "constant-broadcast", "drawn-broadcast", "transport"])
def test_every_send_path_decides_arrival_through_the_one_rule(site, monkeypatch):
    # Replace the rule; every call site must follow it — none re-states it.
    # ("transport" is the inherited per-recipient broadcast every socket
    # lane runs; the others go through the grouped paths.)
    monkeypatch.setattr(
        NetworkConfig, "delivery_time", lambda self, send_time, proposed: send_time + 0.75
    )
    config = NetworkConfig(delta=1.0, gst=0.0, actual_delay=0.1)
    sim = Simulator(seed=3)
    drawn = AdversarialDelay(lambda pending, ctx: 0.2, name="drawn")
    model = FixedDelay(0.2) if site == "constant-broadcast" else drawn
    fabric = FaultyTransport(LocalTransport(), schedule=model, network=config)
    fabric.bind(sim)
    sinks = [Sink(pid) for pid in range(3)]
    arrivals = []
    for sink in sinks:
        sink.deliver = lambda payload, sender, pid=sink.pid: arrivals.append((pid, sim.now))
        fabric.register(sink)
    sim.run(until=1.0)
    if site == "unicast":
        fabric.send(0, 1, "x")
        expected = [(1, 1.75)]
    else:
        broadcast = Transport.broadcast if site == "transport" else FaultyTransport.broadcast
        broadcast(fabric, 0, "x")
        expected = [(0, 1.0), (1, 1.75), (2, 1.75)]
    sim.run()
    assert arrivals == expected


# ----------------------------------------------------------------------
# The partial-synchrony clamp: delivery by exactly max(GST, t) + Delta
# ----------------------------------------------------------------------
def test_pre_gst_send_clamped_to_exactly_gst_plus_delta():
    gst, delta = 10.0, 1.5
    sim, net = build_network(gst, delta, HUGE_DELAY)
    envelope = net.send(0, 1, "early")  # sent at t=0 < GST
    assert envelope.deliver_time == pytest.approx(gst + delta)


def test_post_gst_send_clamped_to_exactly_send_time_plus_delta():
    gst, delta = 10.0, 1.5
    sim, net = build_network(gst, delta, HUGE_DELAY)
    sim.run(until=25.0)  # advance past GST
    envelope = net.send(0, 1, "late")
    assert envelope.deliver_time == pytest.approx(25.0 + delta)


def test_send_exactly_at_gst_uses_post_gst_deadline():
    gst, delta = 10.0, 2.0
    sim, net = build_network(gst, delta, HUGE_DELAY)
    sim.run(until=gst)  # now == GST exactly
    envelope = net.send(0, 1, "at-gst")
    # max(GST, t) + Delta with t == GST: both branches agree, and the
    # message counts as post-GST for the delay model.
    assert envelope.deliver_time == pytest.approx(gst + delta)


def test_benign_delay_is_not_clamped():
    gst, delta = 0.0, 1.0
    sim, net = build_network(gst, delta, FixedDelay(0.25))
    envelope = net.send(0, 1, "benign")
    assert envelope.deliver_time == pytest.approx(0.25)


def test_negative_proposed_delay_is_floored_at_zero():
    sim, net = build_network(0.0, 1.0, AdversarialDelay(lambda p, s: -5.0, name="negative"))
    envelope = net.send(0, 1, "eager")
    assert envelope.deliver_time == pytest.approx(0.0)


# ----------------------------------------------------------------------
# TargetedDelay directions
# ----------------------------------------------------------------------
def _pending(sender: int, recipient: int) -> PendingSend:
    return PendingSend(
        sender=sender, recipient=recipient, payload="x", send_time=0.0, after_gst=True
    )


@pytest.mark.parametrize(
    "direction,expectations",
    [
        # (sender, recipient) -> whether the targeted delay applies
        ("to", {(0, 1): True, (1, 0): False, (0, 2): False}),
        ("from", {(0, 1): False, (1, 0): True, (1, 2): True}),
        ("both", {(0, 1): True, (1, 0): True, (0, 2): False}),
    ],
)
def test_targeted_delay_directions(direction, expectations):
    ctx = DelayContext(random.Random(0))
    model = TargetedDelay(FixedDelay(0.1), targets=[1], target_delay=0.9, direction=direction)
    for (sender, recipient), hit in expectations.items():
        expected = 0.9 if hit else 0.1
        assert model.propose_delay(_pending(sender, recipient), ctx) == pytest.approx(expected), (
            f"direction={direction}, sender={sender}, recipient={recipient}"
        )
    # The schedule counted exactly the messages it shaped, itself.
    assert ctx.faults.as_dict()["targeted_delays"] == sum(expectations.values())


def test_targeted_delay_end_to_end_delivery_times():
    sim, net = build_network(
        0.0, 1.0, TargetedDelay(FixedDelay(0.1), targets=[1], target_delay=0.8, direction="to")
    )
    slowed = net.send(0, 1, "to-target")
    normal = net.send(0, 2, "to-other")
    assert slowed.deliver_time == pytest.approx(0.8)
    assert normal.deliver_time == pytest.approx(0.1)


# ----------------------------------------------------------------------
# PreGSTChaos straddling GST
# ----------------------------------------------------------------------
def test_pre_gst_chaos_switches_to_post_model_at_gst():
    gst, delta = 20.0, 1.0
    post = FixedDelay(0.05)
    sim, net = build_network(gst, delta, PreGSTChaos(post, pre_gst_max_delay=500.0))

    before = net.send(0, 1, "before")  # t = 0 < GST: chaotic, clamped
    assert before.deliver_time <= gst + delta
    assert before.deliver_time > 0.05 + 1e-9  # the chaotic draw is not the post model

    sim.run(until=gst)  # t == GST: the post model takes over
    at_gst = net.send(0, 1, "at")
    assert at_gst.deliver_time == pytest.approx(gst + 0.05)

    sim.run(until=gst + 5.0)
    after = net.send(0, 1, "after")
    assert after.deliver_time == pytest.approx(gst + 5.0 + 0.05)


def test_pre_gst_chaos_draw_is_deterministic_per_seed():
    def deliver_times(seed: int) -> list[float]:
        net = Fabric(
            Simulator(seed=seed),
            NetworkConfig(delta=1.0, gst=50.0, actual_delay=0.1),
            PreGSTChaos(FixedDelay(0.1), pre_gst_max_delay=30.0),
        )
        return [net.send(0, 1, i).deliver_time for i in range(5)]

    assert deliver_times(11) == deliver_times(11)
    assert deliver_times(11) != deliver_times(12)


def test_pre_gst_chaos_message_straddles_gst_but_arrives_by_gst_plus_delta():
    """A message sent just before GST may be drawn far past GST; the clamp
    guarantees it still lands within Delta of GST."""
    gst, delta = 10.0, 1.0
    sim, net = build_network(gst, delta, PreGSTChaos(FixedDelay(0.1), pre_gst_max_delay=1000.0))
    sim.run(until=gst - 0.01)
    envelope = net.send(0, 1, "straddler")
    assert envelope.send_time < gst
    assert envelope.deliver_time <= gst + delta
    assert envelope.deliver_time >= envelope.send_time
