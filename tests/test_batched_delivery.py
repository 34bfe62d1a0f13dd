"""Equivalence of grouped and per-recipient delivery, across delay models.

The virtual-time fabric groups a broadcast's deliveries:
:meth:`LocalTransport.broadcast <repro.runtime.transports.LocalTransport.broadcast>`
and :meth:`FaultyTransport.broadcast <repro.faults.transport.FaultyTransport.broadcast>`
decide every recipient's delay up front and schedule one runtime event per
distinct delay (:meth:`~repro.runtime.transports.LocalTransport.send_grouped`).
The reference is the inherited per-recipient loop every socket lane runs —
``Transport.broadcast(transport, ...)``, one ``send`` and one event per
envelope — so no toggle and no second implementation is needed to compare
them.  These property-style tests assert the two are *observationally
identical* — same envelopes, same delivery times, same delivery order, same
RNG streams afterwards, same decision sequences, commit ledgers and metrics
totals — across seeds, every shipped delay model (latency noise included)
and drop / duplicate injection, in virtual time and once on an asyncio loop; plus
regression tests that the simulator's handle-free ``call_after`` lane
respects the same-timestamp event budget.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import SimulationError
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.faults import (
    AdversarialDelay,
    DelayModel,
    FaultyTransport,
    FixedDelay,
    Lossy,
    NetworkConfig,
    PreGSTChaos,
    TargetedDelay,
    UniformDelay,
)
from repro.runtime import LocalTransport, Transport, WallClockKernel
from repro.sim.events import Simulator

CONFIG = NetworkConfig(delta=1.0, gst=2.0, actual_delay=0.9, pre_gst_max_delay=10.0)


class RecordingSink:
    """Minimal process logging (pid, payload, sender, time) per delivery."""

    def __init__(self, pid: int, runtime, log: list) -> None:
        self.pid = pid
        self.runtime = runtime
        self.log = log

    def deliver(self, payload, sender):
        self.log.append((self.pid, payload, sender, self.runtime.now))


def delay_models() -> dict[str, DelayModel]:
    """One instance of every shipped delay-model family (fresh per call)."""
    return {
        "fixed": FixedDelay(0.25),
        "uniform": UniformDelay(0.05, 0.8),
        "targeted": TargetedDelay(
            UniformDelay(0.05, 0.3), targets=[1, 4], target_delay=0.9, direction="both"
        ),
        "adversarial": AdversarialDelay(
            lambda info, ctx: 0.1 + 0.05 * ((info.sender + info.recipient) % 7),
            name="sum-mod-7",
        ),
        "pre-gst-chaos": PreGSTChaos(UniformDelay(0.05, 0.2), pre_gst_max_delay=10.0),
        # Half the messages land at the send instant: exercises delivery
        # ordering when the self-copy and zero-delay peers share a timestamp
        # (the self-copy must keep its pid-order position in the group).
        "zero-or-slow": AdversarialDelay(
            lambda info, ctx: 0.0 if (info.sender + info.recipient) % 2 else 0.35,
            name="zero-or-slow",
        ),
        "all-zero": FixedDelay(0.0),
    }


def fabrics() -> dict:
    """``name -> (seed -> transport)``: every delay model under a
    :class:`FaultyTransport`, plus the fabrics no delay model reaches."""
    lossy = lambda seed, base=None: Lossy(
        base, drop_rate=0.2, duplicate_rate=0.25, seed=seed + 1
    )
    made = {
        name: lambda seed, name=name: FaultyTransport(
            LocalTransport(),
            schedule=delay_models()[name], network=CONFIG, schedule_seed=seed,
        )
        for name in delay_models()
    }
    made["bare-fixed"] = lambda seed: LocalTransport(delay=0.25)
    # Latency noise is a delay model: a constant fabric plus a uniform band,
    # alone and under loss.
    made["bare-jitter"] = lambda seed: FaultyTransport(
        LocalTransport(), schedule=UniformDelay(0.1, 0.7), network=CONFIG,
        schedule_seed=seed,
    )
    made["uniform-lossy"] = lambda seed: FaultyTransport(
        LocalTransport(), schedule=lossy(seed, UniformDelay(0.05, 0.8)),
        network=CONFIG, schedule_seed=seed,
    )
    made["lattice-lossy"] = lambda seed: FaultyTransport(
        LocalTransport(), schedule=lossy(seed, delay_models()["adversarial"]),
        network=CONFIG, schedule_seed=seed,
    )
    made["jitter-lossy"] = lambda seed: FaultyTransport(
        LocalTransport(), lossy(seed, UniformDelay(0.1, 0.7)), CONFIG, schedule_seed=seed
    )
    # Loss with no base: every copy takes the fabric's own constant delay.
    made["fabric-lossy"] = lambda seed: FaultyTransport(
        LocalTransport(delay=0.1), lossy(seed), CONFIG, schedule_seed=seed
    )
    return made


def rng_probes(transport: Transport) -> list[float]:
    """The next draw of every RNG a send path consumes: equal probes mean
    both paths drew the same numbers (delays, drops, duplicates)."""
    if not isinstance(transport, FaultyTransport):
        return []
    ctx = transport._ctx
    return [ctx.rng.random(), *(rng.random() for rng in ctx._streams.values())]


def observe(transport: Transport, runtime) -> dict:
    """Register seven sinks and record everything either path can influence."""
    trace = {"sent": [], "delivered": [], "deliveries": []}
    for pid in range(7):
        transport.register(RecordingSink(pid, runtime, trace["deliveries"]))
    for kind, listeners in (
        ("sent", transport.send_listeners), ("delivered", transport.deliver_listeners)
    ):
        listeners.append(
            lambda e, log=trace[kind]: log.append(
                (e.msg_id, e.sender, e.recipient, e.send_time, e.deliver_time)
            )
        )
    return trace


def burst(transport: Transport, grouped: bool, round_index: int) -> None:
    """A broadcast, a broadcast to the others and a unicast."""
    broadcast = type(transport).broadcast if grouped else Transport.broadcast
    sender = round_index % 7
    broadcast(transport, sender, ("bcast", round_index))
    broadcast(transport, (sender + 1) % 7, ("others", round_index), include_self=False)
    transport.send(sender, (sender + 2) % 7, ("uni", round_index))


def run_workload(make_transport, seed: int, grouped: bool) -> tuple[dict, int]:
    """A mixed workload in virtual time; returns the full trace — every
    envelope's metadata in send order, every delivery in execution order,
    the counters, each RNG's position at the end — and the kernel's event
    count."""
    sim = Simulator(seed=seed)
    transport = make_transport(seed)
    transport.bind(sim)
    trace = observe(transport, sim)
    for round_index in range(12):
        sim.set_timer(0.4 * round_index, burst, transport, grouped, round_index)
    sim.run(until=20.0)
    base = getattr(transport, "inner", transport)
    trace.update(
        rng_probes=rng_probes(transport),
        messages_sent=base.messages_sent,
        messages_delivered=base.messages_delivered,
    )
    if isinstance(transport, FaultyTransport):
        trace["fault_counts"] = transport.counters.as_dict()
    return trace, sim.events_processed


@pytest.mark.parametrize("model_name", sorted(fabrics()))
@pytest.mark.parametrize("seed", [0, 7, 91])
def test_batched_and_reference_paths_produce_identical_traces(model_name, seed):
    grouped, grouped_events = run_workload(fabrics()[model_name], seed, grouped=True)
    reference, reference_events = run_workload(fabrics()[model_name], seed, grouped=False)
    assert grouped == reference
    assert len(grouped["deliveries"]) > 100
    # Continuous random delays rarely collide, so grouping may not merge
    # anything — but it must never add events.
    assert grouped_events <= reference_events
    if model_name.endswith("lossy"):
        counts = grouped["fault_counts"]
        assert counts["drops"] > 0 and counts["duplicates"] > 0
        assert grouped["messages_delivered"] == (
            grouped["messages_sent"] - counts["drops"]
        )


def test_grouped_and_per_recipient_broadcast_agree_on_an_asyncio_loop():
    """Wall time: the delays sit on a 50 ms lattice, far apart next to the
    microseconds between two sends, so the order of arrival is determined."""

    def make_transport() -> FaultyTransport:
        return FaultyTransport(
            LocalTransport(),
            schedule=Lossy(
                AdversarialDelay(
                    lambda info, ctx: 0.05 * ((info.sender + info.recipient) % 3),
                    name="lattice",
                ),
                drop_rate=0.2, duplicate_rate=0.25, seed=3,
            ),
            network=NetworkConfig(delta=1.0, actual_delay=0.2),
        )

    async def run(grouped: bool) -> dict:
        transport = make_transport()
        runtime = WallClockKernel()
        transport.bind(runtime)
        trace = observe(transport, runtime)
        for round_index in range(4):
            burst(transport, grouped, round_index)
        inner = transport.inner
        sent = inner.messages_sent - transport.counters.as_dict()["drops"]
        deadline = runtime.now + 2.0
        while inner.messages_delivered != sent and runtime.now < deadline:
            await asyncio.sleep(0.02)
        await transport.stop()
        assert inner.messages_delivered == sent
        return {
            # Wall-clock readings differ between two runs; the imposed
            # latency and the order of everything do not.
            "sent": [(i, s, r, round(due - at, 9)) for i, s, r, at, due in trace["sent"]],
            "delivered": [(i, s, r) for i, s, r, _, _ in trace["delivered"]],
            "deliveries": [(pid, payload, s) for pid, payload, s, _ in trace["deliveries"]],
            "rng_probes": rng_probes(transport),
            "fault_counts": transport.counters.as_dict(),
        }

    grouped, reference = asyncio.run(run(True)), asyncio.run(run(False))
    assert grouped == reference
    assert grouped["fault_counts"]["drops"] > 0 and grouped["fault_counts"]["duplicates"] > 0


def scenario_pair(monkeypatch, model: DelayModel, seed: int):
    """Run one scenario twice — grouped broadcasts, then the inherited
    per-recipient loop in their place — and return both results."""

    def run():
        return run_scenario(
            ScenarioConfig(
                n=7, pacemaker="lumiere", delta=1.0, actual_delay=0.5, gst=0.0,
                duration=40.0, seed=seed, delay_model=model,
            )
        )

    grouped = run()
    monkeypatch.setattr(FaultyTransport, "broadcast", Transport.broadcast)
    monkeypatch.setattr(LocalTransport, "broadcast", Transport.broadcast)
    return grouped, run()


def _decisions(result):
    return [(d.time, d.view, d.leader) for d in result.metrics.honest_decisions()]


def _ledgers(result):
    return [r.ledger.block_ids for r in result.honest_replicas]


@pytest.mark.parametrize("seed", [0, 5])
def test_scenario_runs_are_equivalent_under_batched_delivery(monkeypatch, seed):
    batched, reference = scenario_pair(monkeypatch, UniformDelay(0.05, 0.45), seed)

    assert _decisions(batched) == _decisions(reference)
    assert len(_decisions(batched)) > 5  # the runs actually made progress
    assert _ledgers(batched) == _ledgers(reference)
    assert (
        batched.metrics.total_honest_messages
        == reference.metrics.total_honest_messages
    )
    assert batched.metrics.message_kinds_between(0.0, float("inf")) == (
        reference.metrics.message_kinds_between(0.0, float("inf"))
    )
    assert (
        batched.metrics.counts["messages_delivered"]
        == reference.metrics.counts["messages_delivered"]
    )
    assert batched.events_processed <= reference.events_processed


def test_batched_delivery_merges_events_under_discrete_delays(monkeypatch):
    """With delays on a lattice, many recipients share a deliver-time and the
    grouped path executes strictly fewer kernel events for the same trace."""
    lattice = AdversarialDelay(
        lambda info, ctx: 0.2 + 0.1 * ((info.sender + info.recipient) % 3),
        name="lattice",
    )
    batched, reference = scenario_pair(monkeypatch, lattice, seed=1)
    assert _decisions(batched) == _decisions(reference)
    assert _ledgers(batched) == _ledgers(reference)
    assert (
        batched.metrics.counts["messages_delivered"]
        == reference.metrics.counts["messages_delivered"]
    )
    assert batched.events_processed < reference.events_processed


# ----------------------------------------------------------------------
# call_after and the same-timestamp event budget
# ----------------------------------------------------------------------
def test_call_after_chain_respects_the_event_budget():
    sim = Simulator()
    sim.MAX_EVENTS_PER_TIMESTAMP = 50

    def reschedule():
        sim.call_after(0.0, reschedule)

    sim.call_after(0.0, reschedule)
    with pytest.raises(SimulationError, match="timestamp"):
        sim.run(until=10.0)
    assert sim.now == 0.0


def test_zero_delay_batched_deliveries_respect_the_event_budget():
    """A zero-delay *message* chain through the grouped path still trips the
    guard instead of livelocking ``run(until=...)``."""
    sim = Simulator(seed=1)
    sim.MAX_EVENTS_PER_TIMESTAMP = 100
    net = FaultyTransport(
        LocalTransport(), schedule=FixedDelay(0.0),
        network=NetworkConfig(delta=1.0, actual_delay=0.1),
    )
    net.bind(sim)

    class Echo(RecordingSink):
        def deliver(self, payload, sender):
            super().deliver(payload, sender)
            net.broadcast(self.pid, payload, include_self=False)

    for pid in range(3):
        net.register(Echo(pid, sim, []))
    net.broadcast(0, "storm", include_self=False)
    with pytest.raises(SimulationError, match="timestamp"):
        sim.run(until=5.0)


def test_call_after_interleaves_with_handles_in_insertion_order():
    sim = Simulator()
    order: list[str] = []
    sim.set_timer(1.0, order.append, "handle-1")
    sim.call_after(1.0, order.append, "fired-1")
    sim.set_timer_at(1.0, order.append, "handle-2")
    sim.call_after(1.0, order.append, "fired-2")
    sim.run()
    assert order == ["handle-1", "fired-1", "handle-2", "fired-2"]


def test_call_after_rejects_a_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-0.1, lambda: None)


def test_call_after_events_count_and_survive_compaction():
    sim = Simulator()
    sim.COMPACTION_MIN_CANCELLED = 2
    fired: list[int] = []
    sim.call_after(2.0, fired.append, 1)
    doomed = [sim.set_timer(0.5 + i, lambda: fired.append(-1)) for i in range(5)]
    for handle in doomed:
        handle.cancel()  # triggers an in-place compaction sweep
    sim.run()
    assert fired == [1]
    assert sim.events_processed == 1
