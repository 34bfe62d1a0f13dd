"""Multi-process cluster tests: placement equivalence, crash teardown, merge.

The wall-clock, real-socket tests are ``tcp``-marked (CI's tier-1 matrix
deselects them; the live-smoke job runs them).  The placement-equivalence
test is the headline: the same ``ScenarioConfig`` and seed reach the same
decisions and the same committed chain whether the nodes share one process
or get one OS process each — placement is an execution detail, not a
protocol input.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import MetricsCollector, merge_metrics_states
from repro.runner import make_live_cluster
from repro.runner.process_cluster import partition
from repro.runtime import default_codec
from repro.sim.network import BASE_COUNTS, Envelope


def _config(**overrides) -> ScenarioConfig:
    defaults = dict(
        n=4, pacemaker="lumiere", delta=0.5, duration=30.0,
        seed=3,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# ----------------------------------------------------------------------
# Placement equivalence: inline vs one-process-per-node
# ----------------------------------------------------------------------
@pytest.mark.tcp
def test_inline_and_process_placements_agree():
    """Same config + seed ⇒ same decisions and committed chain, either placement.

    Wall-clock runs stop at slightly different points, so the comparison is
    over the common prefix — which must be non-trivial (≥ the commit
    target) and *equal*, not merely consistent: block ids bind the views,
    proposers and payloads of the whole chain, so prefix equality means the
    two placements executed the same protocol history.
    """
    target = 6
    config = _config()

    async def run(placement: str):
        cluster = make_live_cluster(config, placement=placement)
        try:
            commits = await asyncio.wait_for(
                cluster.run_until_commits(target, timeout=30.0), timeout=40.0
            )
        finally:
            await cluster.stop()
        ledgers = {pid: list(r.ledger) for pid, r in cluster.result().residues().items()}
        decisions = [(d.view, d.leader) for d in cluster.metrics.honest_decisions()]
        assert cluster.ledgers_are_consistent()
        assert not cluster.teardown_errors, cluster.teardown_errors
        return commits, ledgers, decisions

    inline_commits, inline_ledgers, inline_decisions = asyncio.run(run("inline"))
    process_commits, process_ledgers, process_decisions = asyncio.run(run("process"))

    assert inline_commits >= target
    assert process_commits >= target
    # The canonical chain of each run: the longest ledger (all are prefixes
    # of it — asserted by ledgers_are_consistent above).
    inline_chain = max(inline_ledgers.values(), key=len)
    process_chain = max(process_ledgers.values(), key=len)
    common = min(len(inline_chain), len(process_chain))
    assert common >= target
    assert inline_chain[:common] == process_chain[:common]

    shared = min(len(inline_decisions), len(process_decisions))
    assert shared >= target
    assert inline_decisions[:shared] == process_decisions[:shared]


# ----------------------------------------------------------------------
# Crash tolerance: killing a node's process must not hang the coordinator
# ----------------------------------------------------------------------
@pytest.mark.tcp
def test_process_cluster_survives_worker_crash():
    """SIGKILL one node's process mid-run: teardown completes, errors surface."""
    config = _config(n=4, delta=0.3)

    async def run():
        cluster = make_live_cluster(config, placement="process", teardown_timeout=10.0)
        try:
            await asyncio.wait_for(
                cluster.run_until_commits(3, timeout=30.0), timeout=40.0
            )
            victim = cluster._workers[0]
            victim.process.kill()
            # Keep running briefly so the coordinator notices the death path.
            await asyncio.wait_for(cluster.run(1.0), timeout=10.0)
        finally:
            await asyncio.wait_for(cluster.stop(), timeout=30.0)
        return cluster

    cluster = asyncio.run(run())
    assert cluster.teardown_errors, "a killed worker must leave a trace"
    assert any("worker 0" in error for error in cluster.teardown_errors)
    # The surviving shards' results still merged: their nodes' ledgers
    # arrived and are mutually consistent.
    survivors = set(range(1, 4))
    assert survivors <= set(cluster.result().residues())
    assert cluster.ledgers_are_consistent()


# ----------------------------------------------------------------------
# Validation (fast, no sockets, runs in the tier-1 lane)
# ----------------------------------------------------------------------
def test_counting_backend_is_rejected():
    with pytest.raises(ConfigurationError, match="counting"):
        make_live_cluster(_config(crypto_backend="counting"), placement="process")


def test_codec_instances_are_rejected():
    # codec= survives only as the name of the one wire format.
    for placement in ("inline", "process"):
        with pytest.raises(ConfigurationError, match="one format"):
            make_live_cluster(_config(), placement=placement, codec=default_codec())
        assert make_live_cluster(_config(), placement=placement, codec="binary").spec


def test_the_json_codec_name_is_rejected():
    retired = "json"
    with pytest.raises(ConfigurationError, match="codec='json'"):
        make_live_cluster(_config(), codec=retired)


def test_invalid_process_counts_are_rejected():
    with pytest.raises(ConfigurationError, match="processes"):
        make_live_cluster(_config(), placement="process", processes=0)


def test_inline_placement_rejects_processes_knob():
    with pytest.raises(ConfigurationError, match="process-placement"):
        make_live_cluster(_config(), placement="inline", processes=2)


def test_unknown_placement_is_rejected():
    with pytest.raises(ConfigurationError, match="placement"):
        make_live_cluster(_config(), placement="threads")


def test_result_requires_stop_first():
    cluster = make_live_cluster(_config(), placement="process")
    with pytest.raises(SimulationError):
        cluster.result()
    with pytest.raises(SimulationError):
        cluster.ledgers_are_consistent()


def test_shard_partition_is_contiguous_and_exact():
    assert partition(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert partition(list(range(4)), 4) == [[0], [1], [2], [3]]
    assert partition(list(range(5)), 1) == [[0, 1, 2, 3, 4]]


# ----------------------------------------------------------------------
# Metrics merge (pure: the shard-snapshot half of the process story)
# ----------------------------------------------------------------------
def _snapshot(honest, messages=(), decisions=(), commits=()):
    collector = MetricsCollector()
    collector.set_honest(honest)
    for time, sender, recipient, kind in messages:
        kind_id = collector._kind_ids.setdefault(kind, len(collector._kind_names))
        if kind_id == len(collector._kind_names):
            collector._kind_names.append(kind)
        collector._message_times.append(time)
        collector._message_senders.append(sender)
        collector._message_recipients.append(recipient)
        collector._message_kind_ids.append(kind_id)
    for time, view, leader in decisions:
        collector.record_decision(time, view, leader)
    for time, pid, view, block_id in commits:
        collector.record_commit(pid, view, block_id, time)
    return collector.state()


def test_merge_metrics_states_interleaves_onto_one_timeline():
    shard_a = _snapshot(
        honest={0, 1},
        messages=[(0.1, 0, 1, "Vote"), (0.5, 1, 0, "Proposal")],
        decisions=[(0.2, 0, 0), (0.9, 2, 0)],
        commits=[(0.3, 0, 0, "b0"), (1.0, 0, 2, "b1")],
    )
    shard_b = _snapshot(
        honest={2, 3},
        messages=[(0.05, 2, 0, "Vote"), (0.7, 3, 1, "Vote")],
        decisions=[(0.6, 1, 2)],
        commits=[(0.65, 2, 1, "b0")],
    )
    merged = merge_metrics_states([shard_a, shard_b])

    assert merged.honest_ids == {0, 1, 2, 3}
    # Message times re-sorted onto one timeline (the bisect invariant).
    times = list(merged._message_times)
    assert times == sorted(times) == [0.05, 0.1, 0.5, 0.7]
    assert merged.messages_between(0.0, 0.6) == 3
    assert merged.message_kinds_between(0.0, 2.0) == {"Vote": 3, "Proposal": 1}
    # Honest decisions replayed in time order across shards.
    assert [(d.time, d.view) for d in merged.honest_decisions()] == [
        (0.2, 0), (0.6, 1), (0.9, 2),
    ]
    assert merged.first_honest_decision_after(0.3).view == 1
    # Commits interleaved; per-pid queries answer cluster-wide.
    assert [c.pid for c in merged.commits] == [0, 2, 0]
    assert [c.block_id for c in merged.commits_for(0)] == ["b0", "b1"]


def test_merge_metrics_states_merges_event_tables():
    shard_a = MetricsCollector()
    shard_a.set_honest({0, 1})
    shard_a.on_send(Envelope(0, 0, 1, "vote", 0.1, 0.2))  # a message kind interned first
    for time, pid, kind, value in [
        (1.0, 0, "enter_view", 1), (2.0, 0, "epoch_sync", 0),
        (3.0, 1, "enter_view", 2), (5.0, 1, "qc_observed", 2),
    ]:
        shard_a.record_event(pid, kind, value, time)
    shard_b = MetricsCollector()
    for time, pid, kind, value in [
        (0.5, 2, "qc_observed", 0), (2.0, 3, "lumiere_unpause.qc", 4),
        (4.0, 2, "enter_view", 3),
    ]:
        shard_b.record_event(pid, kind, value, time)
    merged = merge_metrics_states([shard_a.state(), shard_b.state()])

    rows = [(e.time, e.pid, e.kind, e.value) for e in merged.events()]
    assert rows == [  # time-sorted; the tie at 2.0 keeps shard order
        (0.5, 2, "qc_observed", 0), (1.0, 0, "enter_view", 1),
        (2.0, 0, "epoch_sync", 0), (2.0, 3, "lumiere_unpause.qc", 4),
        (3.0, 1, "enter_view", 2), (4.0, 2, "enter_view", 3), (5.0, 1, "qc_observed", 2),
    ]
    # Shard b's kind ids were renumbered into the merged collector's.
    assert merged._kind_names == [
        "str", "enter_view", "epoch_sync", "qc_observed", "lumiere_unpause.qc",
    ]
    assert [e.pid for e in merged.events("qc_observed")] == [2, 1]
    assert merged.max_view_entered(2) == 3 and merged.max_view_entered(3) == -1
    assert merged.message_kinds_between(0.0, 1.0) == {"str": 1}


def test_merge_metrics_states_sums_fault_counts():
    collector = MetricsCollector()
    collector.counters.bump("frames_dropped", 2)
    collector.counters.bump("drops")
    collector.counters.bump("only_here")  # a name no other shard bumped
    collector.counters.note_epoch("partition_epochs", ("split", 1))
    collector.counters.note_epoch("partition_epochs", ("split", 1))
    other = MetricsCollector()
    other.counters.bump("frames_dropped", 3)
    other.counters.note_epoch("partition_epochs", ("split", 2))
    merged = merge_metrics_states([collector.state(), other.state()])
    nonzero = {name: count for name, count in merged.counts.items() if count}
    assert nonzero == {
        "frames_dropped": 5, "drops": 1, "only_here": 1,
        "partition_epochs": 2,
    }
    assert set(merged.counts) == set(BASE_COUNTS) | {"only_here"}


def test_merge_metrics_states_sums_flush_triggers_and_forwards():
    collector = MetricsCollector()
    for trigger in ("view", "view", "deadline"):
        collector.counters.bump("flushes." + trigger)
    collector.counters.bump("forwards_sent")
    other = MetricsCollector()
    other.counters.bump("flushes.size")
    other.counters.bump("forwards_sent")
    state = collector.state()
    merged = merge_metrics_states([state, other.state()])
    nonzero = {name: count for name, count in merged.counts.items() if count}
    assert nonzero == {
        "flushes.view": 2, "flushes.size": 1, "flushes.deadline": 1,
        "forwards_sent": 2,
    }
    collector.counters.bump("flushes.view")
    assert state["counts"]["flushes.view"] == 2  # a snapshot
