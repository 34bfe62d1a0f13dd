"""Unit tests for the fault layer: delay models, loss among them, on a transport.

Each fault is exercised on its own — seeded determinism for drop, delay,
duplicate and partition shaping — plus the transparency property: a
:class:`~repro.faults.transport.FaultyTransport` under a loss-free
:class:`~repro.faults.delays.Lossy` is byte-for-byte invisible over a
:class:`~repro.runtime.transports.LocalTransport` (identical envelope
streams, wire-encoded payloads included).  Whole-scenario conformance lives
in ``tests/test_live_faults.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenario import (
    RunResult,
    ScenarioConfig,
    build_scenario,
    build_stack,
    make_replica,
    run_scenario,
)
from repro.faults import (
    AdversarialDelay,
    DelayContext,
    FaultyTransport,
    FixedDelay,
    Lossy,
    NetworkConfig,
    PartitionSchedule,
    PendingSend,
    UniformDelay,
)
from repro.metrics.collector import MetricsCollector, merge_metrics_states
from repro.metrics.counters import BASE_COUNTS, BASE_FAULT_COUNTS, Counters
from repro.runner import spec_key
from repro.runtime import LocalTransport, TcpTransport
from repro.runtime.codec import default_codec
from repro.sim.events import Simulator


def _scenario(seed: int = 0, **overrides) -> ScenarioConfig:
    defaults = dict(
        n=4,
        pacemaker="lumiere",
        delta=1.0,
        actual_delay=0.1,
        gst=0.0,
        duration=20.0,
        seed=seed,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _build_over(config, transport):
    """``build_scenario``'s wiring over a transport of the test's choosing."""
    stack = build_stack(config)
    simulator = Simulator(seed=config.seed)
    transport.bind(simulator)
    stack.metrics.attach_transport(transport)
    return RunResult(
        config=config, protocol_config=stack.protocol_config, metrics=stack.metrics,
        corruption=stack.corruption, simulator=simulator, transport=transport,
        replicas={
            pid: make_replica(stack, pid, transport) for pid in stack.protocol_config.processor_ids
        },
    )


def _run_built(config, transport=None):
    """Build, record every envelope's metadata, run to duration.

    Payload bytes are excluded here (each build generates fresh signing
    keys, so two runs' wire bytes legitimately differ); the byte-for-byte
    comparison happens in the lockstep transport-level test below, where
    the payloads are under test control.
    """
    result = build_scenario(config) if transport is None else _build_over(config, transport)

    def recorder(log):
        def listener(env):
            log.append(
                (
                    env.msg_id,
                    env.sender,
                    env.recipient,
                    env.send_time,
                    env.deliver_time,
                    type(env.payload).__name__,
                )
            )

        return listener

    sent: list = []
    delivered: list = []
    result.transport.send_listeners.append(recorder(sent))
    result.transport.deliver_listeners.append(recorder(delivered))
    for pid in sorted(result.replicas):
        result.replicas[pid].start()
    result.simulator.run(until=config.duration)
    return result, sent, delivered


def _signature(result):
    return (
        [(d.view, d.leader, d.time) for d in result.metrics.decisions],
        {pid: r.ledger.block_ids for pid, r in result.replicas.items()},
    )


# ----------------------------------------------------------------------
# Transparency: a loss-free Lossy is byte-for-byte invisible
# ----------------------------------------------------------------------
class _Sink:
    """A registered endpoint that logs exactly what it receives, when."""

    def __init__(self, pid, runtime, log):
        self.pid = pid
        self._runtime = runtime
        self._log = log

    def deliver(self, payload, sender):
        self._log.append((self._runtime.now, self.pid, sender, payload))


def _drive_script(transport):
    """Run a fixed send script on ``transport``; return all observables.

    The payloads are caller-controlled bytes, so the comparison between a
    bare and a wrapped transport is literally byte-for-byte: same envelope
    stream (ids, timings, payload bytes), same deliveries, same wire frames.
    """
    simulator = Simulator(seed=0)
    transport.bind(simulator)
    codec = default_codec()
    received: list = []
    sent: list = []
    delivered: list = []
    for pid in range(4):
        transport.register(_Sink(pid, simulator, received))

    def record(log):
        return lambda env: log.append(
            (
                env.msg_id,
                env.sender,
                env.recipient,
                env.send_time,
                env.deliver_time,
                env.payload,
                codec.encode_frame(env.sender, env.payload),
            )
        )

    transport.send_listeners.append(record(sent))
    transport.deliver_listeners.append(record(delivered))

    def script():
        transport.send(0, 1, b"unicast")
        transport.send(2, 2, b"self-message")
        transport.broadcast(3, b"fanout")

    simulator.set_timer_at(0.5, script)
    simulator.set_timer_at(2.0, transport.send, 1, 0, b"late reply")
    simulator.run(until=5.0)
    return sent, delivered, received


def test_disabled_faulty_transport_is_byte_for_byte_transparent():
    bare = _drive_script(LocalTransport(delay=0.1))
    wrapper = FaultyTransport(LocalTransport(delay=0.1), Lossy(), NetworkConfig())
    wrapped = _drive_script(wrapper)
    # Identical envelope streams — payload bytes and wire frames included —
    # identical deliveries at identical times: every copy takes the inner
    # transport's own delay.
    assert wrapped == bare
    assert bare[0]  # the script really sent something


def test_disabled_faulty_transport_is_transparent_in_a_full_run():
    config = _scenario(0)
    bare, bare_sent, bare_delivered = _run_built(config)
    wrapped_transport = FaultyTransport(
        LocalTransport(delay=config.actual_delay),
        Lossy(),
        config.network_config(),
    )
    wrapped, wrapped_sent, wrapped_delivered = _run_built(
        config, transport=wrapped_transport
    )

    assert bare_sent and bare_delivered
    assert wrapped_sent == bare_sent
    assert wrapped_delivered == bare_delivered
    assert _signature(wrapped) == _signature(bare)
    wrapped_counts, bare_counts = wrapped.metrics.counts, bare.metrics.counts
    for name in ("messages_sent", "messages_delivered"):
        assert wrapped_counts[name] == bare_counts[name]
    # No fault ever fired: the base fault names read zero and no other
    # (schedule or injector) name was ever counted.
    assert set(wrapped_counts) == set(BASE_COUNTS)
    assert {name: wrapped_counts[name] for name in BASE_FAULT_COUNTS} == dict.fromkeys(
        BASE_FAULT_COUNTS, 0
    )


def test_transparent_with_jitter_preserves_the_jitter_stream():
    # Latency noise is a delay model; a loss-free Lossy over it draws no
    # coin of its own, so every noisy delay lands exactly as without it.
    bare = run_scenario(_scenario(1, duration=10.0, delay_model=UniformDelay(0.1, 0.35)))
    wrapped = run_scenario(
        _scenario(1, duration=10.0, delay_model=Lossy(base=UniformDelay(0.1, 0.35)))
    )
    assert _signature(wrapped) == _signature(bare)
    assert bare.committed_blocks() > 0


# ----------------------------------------------------------------------
# Drop / duplicate (Lossy): seeded determinism
# ----------------------------------------------------------------------
def test_drop_injector_is_deterministic_and_counted():
    # One model object serves both runs: its stream lives in each run's
    # transport, not in the model.
    config = _scenario(0, delay_model=Lossy(drop_rate=0.1, seed=7))
    first = run_scenario(config)
    second = run_scenario(config)

    counts = first.metrics.counts
    assert counts["drops"] > 0
    assert counts == second.metrics.counts
    assert _signature(first) == _signature(second)
    # Dropped messages are minted but never delivered: honest accounting.
    assert counts["messages_sent"] - counts["messages_delivered"] >= counts["drops"]
    assert first.ledgers_are_consistent() and second.ledgers_are_consistent()

    clean = run_scenario(_scenario(0))
    assert _signature(first) != _signature(clean)


def test_duplicate_injector_is_deterministic_and_counted():
    config = _scenario(0, delay_model=Lossy(duplicate_rate=0.15, seed=3))
    first = run_scenario(config)
    second = run_scenario(config)

    assert first.metrics.counts["duplicates"] > 0
    assert first.metrics.counts == second.metrics.counts
    assert _signature(first) == _signature(second)
    # Consensus shrugs duplicates off: safety holds, progress continues.
    assert first.committed_blocks() > 0
    assert first.ledgers_are_consistent()


def test_distinct_injector_seeds_give_distinct_fault_patterns():
    a = run_scenario(_scenario(0, delay_model=Lossy(drop_rate=0.1, seed=1)))
    b = run_scenario(_scenario(0, delay_model=Lossy(drop_rate=0.1, seed=2)))
    # Same rate, different streams: overwhelmingly different drop sets.
    assert a.metrics.counts != b.metrics.counts or _signature(a) != _signature(b)


def test_chaos_config_validates_rates():
    with pytest.raises(ConfigurationError):
        Lossy(drop_rate=1.0)
    with pytest.raises(ConfigurationError):
        Lossy(duplicate_rate=-0.1)


def test_loss_seeds_and_no_loss_give_distinct_campaign_keys():
    # Loss is a value of the config's delay model, so it enters the
    # campaign key through describe() — no executor salt needed.
    keys = {
        spec_key(_scenario(0, delay_model=model))
        for model in (Lossy(drop_rate=0.1, seed=1), Lossy(drop_rate=0.1, seed=2), None)
    }
    assert len(keys) == 3


def test_two_nodes_draw_different_drop_streams():
    # One model shared by two socket nodes (as a worker shares it): each
    # node's transport offsets the stream by its pid.
    model = Lossy(drop_rate=0.5, seed=9)
    network = NetworkConfig()

    def drops(pid):
        ctx = FaultyTransport(TcpTransport(pid), model, network)._ctx
        return [
            model.propose_delay(PendingSend(pid, 0, b"m", 0.0, True), ctx)[0][1]
            for _ in range(64)
        ]

    assert drops(1) != drops(2)
    assert drops(1) == drops(1)


# ----------------------------------------------------------------------
# Delay schedules: seeded determinism under the envelope
# ----------------------------------------------------------------------
def test_scheduled_delay_is_deterministic_per_seed():
    model = UniformDelay(0.05, 0.4)
    base = _scenario(0, gst=2.0, duration=15.0)
    base.delay_model = model
    first = run_scenario(base)

    again = _scenario(0, gst=2.0, duration=15.0)
    again.delay_model = UniformDelay(0.05, 0.4)
    second = run_scenario(again)
    assert _signature(first) == _signature(second)

    other = _scenario(1, gst=2.0, duration=15.0)
    other.delay_model = UniformDelay(0.05, 0.4)
    third = run_scenario(other)
    assert _signature(first) != _signature(third)


def test_partition_schedule_is_deterministic_and_counts_epochs():
    def config_for(seed):
        cfg = _scenario(seed, gst=5.0, duration=20.0)
        cfg.delay_model = PartitionSchedule(
            base=FixedDelay(0.1),
            groups=[(0, 1), (2, 3)],
            split_at=1.0,
            heal_at=5.0,
        )
        return cfg

    first = run_scenario(config_for(0))
    second = run_scenario(config_for(0))
    assert _signature(first) == _signature(second)
    assert first.metrics.counts["partition_epochs"] == 1
    assert first.metrics.counts["partitioned_messages"] > 0
    assert first.metrics.counts == second.metrics.counts
    assert first.ledgers_are_consistent()
    assert first.committed_blocks() > 0


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_faulty_transport_schedule_needs_its_network_envelope():
    with pytest.raises(TypeError):
        FaultyTransport(LocalTransport(), schedule=FixedDelay(0.1))


def test_adversarial_delay_runs_on_the_deterministic_live_lane():
    # A callable is a whole schedule, like any model — including inside a
    # composed tree.
    def config_for():
        cfg = _scenario(0, gst=5.0, duration=20.0)
        cfg.delay_model = PartitionSchedule(
            base=AdversarialDelay(
                lambda pending, ctx: 0.05 + ctx.rng.uniform(0.0, 0.1), name="custom"
            ),
            groups=[(0, 1), (2, 3)],
            split_at=1.0,
            heal_at=5.0,
        )
        return cfg

    result = run_scenario(config_for())
    assert result.committed_blocks() > 0
    assert result.metrics.counts["partition_epochs"] == 1


def test_fault_counters_base_names_and_epoch_idempotence():
    counters = Counters()
    assert set(BASE_FAULT_COUNTS) <= set(counters.as_dict())
    counters.note_epoch("partition_epochs", ("a",))
    counters.note_epoch("partition_epochs", ("a",))
    counters.note_epoch("partition_epochs", ("b",))
    assert counters.as_dict()["partition_epochs"] == 2


def test_one_partition_seen_by_two_shards_merges_into_one_epoch():
    # Each worker of a process cluster counts into its own collector; the
    # epoch key is the schedule's description (stable across processes),
    # and the merge unites the keys instead of summing the counts.
    partition = PartitionSchedule(
        base=FixedDelay(0.1), groups=[(0, 1), (2, 3)], split_at=1.0, heal_at=5.0
    )
    shards = [MetricsCollector(), MetricsCollector()]
    for sender, collector in enumerate(shards):
        ctx = DelayContext(random.Random(0), collector.counters)
        partition.propose_delay(PendingSend(sender, 3, b"m", 2.0, False), ctx)
    merged = merge_metrics_states([shard.state() for shard in shards])
    assert merged.counts["partition_epochs"] == 1
    assert merged.counts["partitioned_messages"] == 2
