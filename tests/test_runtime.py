"""Unit tests for the runtime seam: the runtime contract on the Simulator and
AsyncioRuntime, transports bound to them, codec, dispatch."""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import pytest

from repro.consensus.messages import ConsensusMessage, NewView, Proposal, Vote
from repro.core.messages import ViewMessage
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.faults import AdversarialDelay, FaultyTransport, FixedDelay, NetworkConfig
from repro.runtime import (
    AsyncioRuntime,
    LocalTransport,
    MonotonicClock,
    Runtime,
    WireCodecError,
    default_codec,
)
from repro.runtime.codec import WireCodec
from repro.sim.clock import LocalClock
from repro.sim.events import Simulator
from repro.runtime.transports import Envelope


# ----------------------------------------------------------------------
# The runtime contract, on both runtimes
# ----------------------------------------------------------------------
def _on_simulator():
    sim = Simulator(seed=0)

    async def advance(seconds):
        sim.run(until=sim.now + seconds)

    return sim, advance, 0.0


def _on_asyncio():
    async def advance(seconds):
        await asyncio.sleep(seconds)

    # A loop timer may fire up to the monotonic clock's resolution before
    # its due time (asyncio's own end-of-tick slack).
    return AsyncioRuntime(), advance, time.get_clock_info("monotonic").resolution + 1e-9


@pytest.mark.parametrize("make", [_on_simulator, _on_asyncio], ids=["simulator", "asyncio"])
def test_every_runtime_honours_the_contract(make):
    async def exercise():
        runtime, advance, slack = make()
        assert isinstance(runtime, Runtime)
        fired = []

        # Timers never fire early, relative or absolute.
        start = runtime.now
        runtime.set_timer(0.03, lambda: fired.append(("rel", runtime.now - (start + 0.03))))
        runtime.set_timer_at(
            start + 0.02, lambda: fired.append(("abs", runtime.now - (start + 0.02)))
        )
        # A cancelled timer never fires; cancelling twice is safe.
        doomed = runtime.set_timer(0.01, lambda: fired.append(("cancelled", 0.0)))
        assert doomed.pending
        doomed.cancel()
        doomed.cancel()
        assert not doomed.pending
        await advance(0.1)
        assert [kind for kind, _ in fired] == ["abs", "rel"]
        assert all(lateness >= -slack for _, lateness in fired)

        # spawn runs after the current callback; zero-delay call_after is FIFO.
        order = []

        def callback():
            runtime.spawn(order.append, "spawned")
            for index in range(5):
                runtime.call_after(0.0, order.append, index)
            order.append("callback returned")

        runtime.set_timer(0.0, callback)
        await advance(0.05)
        assert order == ["callback returned", "spawned", 0, 1, 2, 3, 4]

        # The one divergence: a past absolute time.
        past = []
        if isinstance(runtime, Simulator):
            with pytest.raises(SimulationError, match="before now"):
                runtime.set_timer_at(runtime.now - 0.01, past.append, "past")
        else:
            runtime.set_timer_at(runtime.now - 0.01, past.append, "past")
            await advance(0.05)
            assert past == ["past"]

    asyncio.run(exercise())


# ----------------------------------------------------------------------
# The simulator as the runtime of a LocalTransport
# ----------------------------------------------------------------------
class _Sink:
    def __init__(self, pid):
        self.pid = pid
        self.received = []

    def deliver(self, payload, sender):
        self.received.append((payload, sender))


def _transport_runtime(**transport_kwargs):
    sim = Simulator(seed=0)
    transport = LocalTransport(**transport_kwargs)
    transport.bind(sim)
    return sim, transport


def test_sim_runtime_timers_and_messaging():
    sim, transport = _transport_runtime(delay=0.1)
    a, b = _Sink(0), _Sink(1)
    transport.register(a)
    transport.register(b)
    assert list(transport.process_ids) == [0, 1]

    fired = []
    handle = sim.set_timer(0.5, lambda: fired.append("t"))
    assert handle.pending
    sim.call_after(0.2, lambda: fired.append("f"))
    transport.send(0, 1, "hello")
    transport.broadcast(1, "all")
    sim.run(until=2.0)
    assert fired == ["f", "t"]
    assert ("hello", 0) in b.received
    assert ("all", 1) in a.received and ("all", 1) in b.received
    assert sim.now == 2.0


def test_sim_runtime_timer_cancellation():
    sim, _ = _transport_runtime()
    fired = []
    handle = sim.set_timer_at(1.0, lambda: fired.append("x"))
    handle.cancel()
    assert not handle.pending
    sim.run(until=2.0)
    assert fired == []


def test_sim_runtime_binds_the_transport_it_is_built_over():
    unbound = LocalTransport()
    with pytest.raises(ConfigurationError, match="not bound to a runtime"):
        unbound.runtime
    sim, transport = _transport_runtime()
    assert transport.runtime is sim
    # References run one way: the runtime holds no transport.
    assert not any(value is transport for value in vars(sim).values())


def test_transport_runtime_orders_timers_by_time_then_insertion():
    sim, _ = _transport_runtime()
    fired = []
    sim.set_timer(1.0, lambda: fired.append("b"))
    sim.set_timer(0.5, lambda: fired.append("a"))
    sim.set_timer(1.0, lambda: fired.append("c"))  # same time: insertion order
    sim.run(until=2.0)
    assert fired == ["a", "b", "c"]
    assert sim.now == 2.0
    assert sim.events_processed == 3


def test_transport_runtime_cancellation_and_validation():
    sim, _ = _transport_runtime()
    fired = []
    handle = sim.set_timer(0.5, lambda: fired.append("x"))
    handle.cancel()
    assert not handle.pending
    with pytest.raises(SimulationError):
        sim.set_timer(-1.0, lambda: None)
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.set_timer_at(0.25, lambda: None)  # before now
    assert fired == []


def test_transport_runtime_delivers_self_at_once_and_peers_never_early():
    sim, transport = _transport_runtime(delay=0.1)
    arrivals = []

    class _Timed(_Sink):
        def deliver(self, payload, sender):
            arrivals.append((self.pid, sim.now))
            super().deliver(payload, sender)

    a, b = _Timed(0), _Timed(1)
    transport.register(a)
    transport.register(b)
    assert list(transport.process_ids) == [0, 1]
    sim.run(until=0.5)
    transport.broadcast(0, "ping")
    sim.run(until=1.0)
    # Self-copy at the sending instant, peer copy after the transport delay.
    assert arrivals == [(0, 0.5), (1, 0.6)]
    assert a.received == [("ping", 0)]
    assert b.received == [("ping", 0)]
    assert transport.messages_sent == 2
    assert transport.messages_delivered == 2


def test_transport_runtime_zero_delay_chain_trips_budget():
    sim, _ = _transport_runtime()

    def rearm():
        sim.call_after(0.0, rearm)

    sim.call_after(0.0, rearm)
    with pytest.raises(SimulationError, match="zero-delay event chain"):
        sim.run(until=1.0)


@pytest.mark.parametrize("scheduled", [False, True], ids=["bare", "scheduled"])
def test_an_all_to_all_round_at_n_320_stays_far_below_the_real_budget(scheduled):
    # n^2 = 102 400 deliveries land inside one round; one event per broadcast
    # per distinct delivery time keeps every instant far below the budget.
    n = 320
    transport = LocalTransport(delay=0.1)
    if scheduled:
        # Three delivery times a broadcast: at most 3n events an instant.
        transport = FaultyTransport(
            LocalTransport(),
            schedule=AdversarialDelay(
                lambda pending, ctx: 0.1 * ctx.rng.randrange(1, 4), name="three-steps"
            ),
            network=NetworkConfig(delta=1.0),
        )
    sim = Simulator(seed=0)
    transport.bind(sim)
    sinks = [_Sink(pid) for pid in range(n)]
    for sink in sinks:
        transport.register(sink)
    for pid in range(n):
        transport.broadcast(pid, "all-to-all")
    sim.run(until=1.0)
    assert all(len(sink.received) == n for sink in sinks)
    delivered = getattr(transport, "inner", transport).messages_delivered
    assert delivered == n * n > Simulator.MAX_EVENTS_PER_TIMESTAMP
    assert sim.events_processed <= 4 * n


def test_a_zero_delay_schedule_without_min_delay_still_raises(monkeypatch):
    # The guard's one honest cause: a message chain that never advances time.
    monkeypatch.setattr(Simulator, "MAX_EVENTS_PER_TIMESTAMP", 1000)

    def storm(network):
        sim = Simulator(seed=0)
        transport = FaultyTransport(LocalTransport(), schedule=FixedDelay(0.0), network=network)
        transport.bind(sim)

        class _Echo(_Sink):
            def deliver(self, payload, sender):
                transport.broadcast(self.pid, payload, include_self=False)

        for pid in range(4):
            transport.register(_Echo(pid))
        transport.broadcast(0, "storm", include_self=False)
        return sim

    sim = storm(NetworkConfig(delta=1.0))
    with pytest.raises(SimulationError, match="zero-delay event chain.*min_delay floor"):
        sim.run(until=1.0)
    assert sim.now == 0.0
    sim = storm(NetworkConfig(delta=1.0, min_delay=0.05))
    sim.run(until=0.2)
    assert sim.now == 0.2


def test_local_clock_runs_on_a_transport_runtime():
    sim, transport = _transport_runtime()
    clock = LocalClock(transport.runtime)
    fired = []
    clock.schedule_at_local(2.0, lambda: fired.append(clock.read()))
    clock.pause()
    sim.run(until=1.0)
    assert fired == []  # paused: local time frozen below the target
    clock.unpause()
    clock.bump_to(2.0)
    sim.run(until=1.5)
    assert len(fired) == 1 and fired[0] >= 2.0


# ----------------------------------------------------------------------
# AsyncioRuntime: wall clock
# ----------------------------------------------------------------------
def test_wall_clock_runtime_requires_loop_for_timers():
    runtime = AsyncioRuntime()
    assert isinstance(runtime.clock, MonotonicClock)
    with pytest.raises(RuntimeError):
        runtime.set_timer(0.1, lambda: None)  # no running loop


def test_wall_clock_set_timer_at_clamps_past_times():
    # The monotonic clock keeps moving between a caller computing
    # max(target, now) and the scheduling call; a hair-in-the-past target
    # must fire immediately instead of raising (unlike virtual mode, where
    # time cannot advance in between and a past target is a real bug).
    async def scenario():
        runtime = AsyncioRuntime(clock=MonotonicClock())
        fired = []
        runtime.set_timer_at(runtime.now - 1.0, lambda: fired.append("past"))
        await asyncio.sleep(0.1)
        return fired

    assert asyncio.run(scenario()) == ["past"]


def test_wall_clock_runtime_fires_timers_and_delivers():
    async def scenario():
        transport = LocalTransport(delay=0.01)
        runtime = AsyncioRuntime(clock=MonotonicClock())
        transport.bind(runtime)
        sink = _Sink(0)
        transport.register(sink)
        fired = []
        runtime.set_timer(0.02, lambda: fired.append("t"))
        cancelled = runtime.set_timer(0.02, lambda: fired.append("never"))
        cancelled.cancel()
        transport.send(0, 0, "self")
        await asyncio.sleep(0.2)
        return fired, sink.received, runtime.events_processed

    fired, received, events = asyncio.run(scenario())
    assert fired == ["t"]
    assert received == [("self", 0)]
    assert events == 2  # the timer and the delivery


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
def test_codec_roundtrips_a_full_proposal():
    result = build_scenario(
        ScenarioConfig(n=4, pacemaker="lumiere", duration=20.0)
    )
    for replica in result.replicas.values():
        replica.start()
    result.simulator.run(until=20.0)

    codec = default_codec()
    replica = result.replicas[0]
    qc = replica.safety.high_qc
    assert qc is not None, "scenario produced no QC to round-trip"
    block = replica.tree.get(qc.block_id)
    proposal = Proposal(view=qc.view + 1, block=block, justify=qc)

    frame = codec.encode_frame(0, proposal)
    sender, decoded = codec.decode_body(frame[4:])
    assert sender == 0
    assert decoded == proposal
    assert decoded.justify.signers == qc.signers
    assert isinstance(decoded.justify.signers, frozenset)
    assert isinstance(decoded.block.payload, tuple)
    # The recomputed block id matches: a content hash of the decoded fields.
    assert decoded.block.block_id == block.block_id


def test_codec_roundtrips_pacemaker_messages():
    from repro.crypto.signatures import PKI
    from repro.crypto.threshold import ThresholdScheme

    pki, keys = PKI.setup(range(4))
    scheme = ThresholdScheme(pki)
    partial = scheme.partial_sign(keys[2], ("lumiere-view", 7))
    message = ViewMessage(view=7, partial=partial)
    codec = default_codec()
    frame = codec.encode_frame(2, message)
    sender, decoded = codec.decode_body(frame[4:])
    assert sender == 2 and decoded == message
    # The share still verifies after crossing the wire.
    assert scheme.verify_partial(decoded.partial, ("lumiere-view", 7))


def test_codec_knows_every_library_message_type():
    names = set(default_codec().registered_names)
    assert {
        "NewView", "Proposal", "Vote", "QCAnnounce",
        "ViewMessage", "ViewCertificate", "EpochViewMessage",
        "FeverViewMessage", "LP22EpochViewMessage", "WishMessage",
        "ViewChangeMessage", "Block", "QuorumCertificate",
        "PartialSignature", "ThresholdSignature", "Signature",
    } <= names


def test_codec_rejects_unregistered_and_malformed():
    codec = WireCodec()

    @dataclass(frozen=True)
    class Unregistered:
        x: int

    with pytest.raises(WireCodecError, match="not registered"):
        codec.encode_frame(0, Unregistered(1))
    with pytest.raises(WireCodecError, match="cannot encode"):
        codec.encode_frame(0, object())
    with pytest.raises(WireCodecError, match="unknown wire class id"):
        codec.decode_body(bytes([0, 0x0B, 0]))  # sender 0, class id 0: none yet
    with pytest.raises(WireCodecError, match="malformed frame body"):
        codec.decode_body(b"not a frame")

    codec.register(Unregistered)
    frame = codec.encode_frame(3, Unregistered(5))
    assert codec.decode_body(frame[4:]) == (3, Unregistered(5))
    assert codec.registered_classes == (Unregistered,)
    with pytest.raises(WireCodecError, match="not a dataclass"):
        codec.register(type("Plain", (), {}))


# ----------------------------------------------------------------------
# Dispatch tables (replica routing + engine handlers)
# ----------------------------------------------------------------------
def _fresh_replica():
    result = build_scenario(
        ScenarioConfig(n=4, pacemaker="lumiere", duration=10.0)
    )
    return result.replicas[0]


def test_replica_routes_by_concrete_type_and_caches():
    replica = _fresh_replica()
    seen = []
    replica.engine.on_message = lambda m, s: seen.append(("engine", m))
    replica.pacemaker.on_message = lambda m, s: seen.append(("pacemaker", m))

    nv = NewView(view=0, high_qc=None)
    replica.on_message(nv, 1)
    vm = ViewMessage(view=0, partial=None)
    replica.on_message(vm, 2)
    assert [kind for kind, _ in seen] == ["engine", "pacemaker"]
    assert set(replica._routes) == {NewView, ViewMessage}
    # Second delivery of a known type goes straight through the cache.
    replica.on_message(NewView(view=1, high_qc=None), 3)
    assert [kind for kind, _ in seen] == ["engine", "pacemaker", "engine"]


def test_engine_dispatch_handles_subclasses_and_unknowns():
    replica = _fresh_replica()
    engine = replica.engine

    @dataclass(frozen=True)
    class FancyVote(Vote):
        pass

    @dataclass(frozen=True)
    class Mystery(ConsensusMessage):
        pass

    calls = []
    engine._handle_vote = lambda m, s: calls.append(m)
    engine._handlers[Vote] = engine._handle_vote  # rebind after monkeypatch

    engine.on_message(FancyVote(view=0, block_id="b", partial=None), 1)
    assert calls and isinstance(calls[0], FancyVote)
    assert engine._handlers[FancyVote] is engine._handle_vote

    engine.on_message(Mystery(view=0), 1)  # ignored, cached as None
    assert engine._handlers[Mystery] is None
    engine.on_message(Mystery(view=1), 2)  # still ignored via cache
    assert len(calls) == 1


# ----------------------------------------------------------------------
# Tuple-backed Envelope
# ----------------------------------------------------------------------
def test_envelope_is_tuple_backed_and_keyword_compatible():
    positional = Envelope(1, 0, 1, "p", 0.0, 0.5)
    keyword = Envelope(
        msg_id=1, sender=0, recipient=1, payload="p",
        send_time=0.0, deliver_time=0.5,
    )
    assert positional == keyword
    assert isinstance(positional, tuple)
    assert positional.payload == "p" and positional.deliver_time == 0.5
    assert not positional.is_self_message
    assert Envelope(2, 3, 3, "x", 0.0, 0.0).is_self_message
