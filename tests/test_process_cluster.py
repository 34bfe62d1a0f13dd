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
import gc
import multiprocessing
import pickle
import threading

import pytest

from repro.consensus.replica import ReplicaResidue
from repro.crypto.backend import PackedDigests
from repro.crypto.signatures import SigningKey
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.scenario import ScenarioConfig
from repro.metrics.collector import MetricsCollector, merge_metrics_states
from repro.runner import make_live_cluster
from repro.runner.process_cluster import _receive_columns, _send_report, partition
from repro.runner.shard import ShardReport
from repro.runtime import default_codec
from repro.faults.delays import AdversarialDelay
from repro.metrics.counters import BASE_COUNTS
from repro.runtime.transports import Envelope


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
# Fork: parent death, and a config that never crosses a pickle
# ----------------------------------------------------------------------
def test_every_worker_sees_its_coordinator_end_close():
    """Closing the coordinator's end of a worker's control pipe is that
    worker's parent-death signal: it exits, whichever worker it is.  A
    worker that kept a forked copy of any coordinator-side end (its own,
    or an earlier worker's) would never see the EOF."""

    async def run():
        cluster = make_live_cluster(
            _config(), placement="process", processes=2, transport="shm",
            teardown_timeout=5.0,
        )
        await cluster.start()
        try:
            for worker in cluster._workers:
                worker.conn.close()
                worker.process.join(timeout=2.0)
                assert not worker.process.is_alive(), f"{worker} outlived its coordinator end"
        finally:
            await cluster.stop()

    asyncio.run(run())


def test_a_coordinator_with_another_thread_refuses_to_fork():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    cluster = make_live_cluster(_config(), placement="process", transport="shm")
    try:
        with pytest.raises(ConfigurationError, match="single-threaded"):
            asyncio.run(cluster.start())
    finally:
        release.set()
        thread.join()
    assert not cluster._workers and not cluster._segments  # nothing forked or left in /dev/shm


def test_a_lambda_delay_model_runs_on_the_process_lane():
    """A worker is forked with its spec, so a config holding a lambda runs
    there, and the workers agree on the key ceremony even though the
    coordinator minted keys before forking them."""
    for owner in range(3):
        SigningKey(owner)
    config = _config(
        delta=0.3,
        delay_model=AdversarialDelay(lambda send, ctx: 0.001, name="one-ms"),
    )

    async def run():
        cluster = make_live_cluster(config, placement="process", processes=2, transport="shm")
        try:
            commits = await asyncio.wait_for(
                cluster.run_until_commits(5, timeout=30.0), timeout=40.0
            )
        finally:
            await cluster.stop()
        return cluster, commits

    cluster, commits = asyncio.run(run())
    assert commits >= 5
    assert cluster.ledgers_are_consistent()
    assert not cluster.teardown_errors, cluster.teardown_errors


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


def test_merge_metrics_states_sorts_interleaved_decisions_commits_and_requests():
    def shard(honest, decisions, commits, requests):
        collector = MetricsCollector()
        collector.set_honest(honest)
        for time, view, leader in decisions:
            collector.record_decision(time, view, leader)
        for time, pid, view, block_id in commits:
            collector.record_commit(pid, view, block_id, time)
        for submit, applied, pid in requests:
            collector.record_request_applied(pid, submit, applied)
        return collector.state()

    shard_a = shard(
        {0, 1},
        decisions=[(0.1, 0, 0), (0.5, 2, 1), (0.9, 4, 5)],  # leader 5 is not honest
        commits=[(0.2, 0, 0, "b0"), (0.6, 1, 0, "b0"), (1.0, 0, 2, "b2")],
        requests=[(0.0, 0.3, 0), (0.1, 0.7, 1)],
    )
    shard_b = shard(
        {2, 3},
        decisions=[(0.3, 1, 2), (0.7, 3, 3)],
        commits=[(0.4, 2, 0, "b0"), (0.8, 3, 2, "b2")],
        requests=[(0.2, 0.5, 2), (0.6, 0.9, 3)],
    )
    merged = merge_metrics_states([shard_a, shard_b])

    assert [(d.time, d.view, d.leader_honest) for d in merged.decisions] == [
        (0.1, 0, True), (0.3, 1, True), (0.5, 2, True), (0.7, 3, True), (0.9, 4, False),
    ]
    assert [d.view for d in merged.honest_decisions()] == [0, 1, 2, 3]
    assert merged.first_honest_decision_after(0.6).view == 3
    assert merged.first_honest_decision_after(0.8) is None
    assert merged.decision_gaps() == pytest.approx([0.2, 0.2, 0.2])
    assert [(c.time, c.pid, c.block_id) for c in merged.commits] == [
        (0.2, 0, "b0"), (0.4, 2, "b0"), (0.6, 1, "b0"), (0.8, 3, "b2"), (1.0, 0, "b2"),
    ]
    # One str per block, however many replicas committed it.
    assert len({id(c.block_id) for c in merged.commits}) == 2
    assert merged.requests_applied_between(0.4, 0.8) == 2
    assert merged.request_latencies() == pytest.approx([0.3, 0.3, 0.6, 0.3])


def test_a_report_ships_packed_digests_as_raw_bytes_after_its_head():
    """Every ``array`` column and ``PackedDigests`` of a ``ShardReport`` —
    commit ids deduplicated, residue ledgers and apply chains — crosses the
    pipe as raw bytes after a small pickled head, and comes back equal."""
    ids = [f"{i:064x}" for i in range(100)]
    collector = MetricsCollector()
    for view, block_id in enumerate(ids):
        for pid in range(4):
            collector.record_commit(pid, view, block_id, float(view))
    state = collector.state()
    assert len(state["commit_block_ids"]) == 400 and len(state["commit_ids"]) == 100
    residue = ReplicaResidue(PackedDigests(ids), "kv", PackedDigests(ids[:60]), {"n": 1})
    report = ShardReport(
        metrics_state=state,
        replicas={0: residue, 1: residue._replace(kv_digest=None, kv_chain=PackedDigests())},
        teardown_errors=("late",),
    )
    ours, theirs = multiprocessing.Pipe()
    try:
        _send_report(ours, report)
        kind, head = theirs.recv()
        assert kind == "result" and len(pickle.dumps(head)) < 2048
        back = _receive_columns(theirs, head)
    finally:
        ours.close()
        theirs.close()
    assert back.replicas == report.replicas and back.teardown_errors == ("late",)
    merged = merge_metrics_states([back.metrics_state])
    assert [c.block_id for c in merged.commits] == [b for b in ids for _ in range(4)]
    assert len({id(c.block_id) for c in merged.commits}) == 100


def test_a_worker_counts_its_full_gc_passes_only_while_serving():
    from repro.runner.process_cluster import _full_gc_counted
    from repro.metrics.counters import Counters

    hooks = list(gc.callbacks)
    counters = Counters()
    with _full_gc_counted(counters):
        gc.collect(1)
        assert counters.as_dict()["gc_full_passes"] == 0
        gc.collect()
        gc.collect()
    assert gc.callbacks == hooks  # no hook outlives the serve loop
    gc.collect()
    counts = counters.as_dict()
    assert counts["gc_full_passes"] == 2 and counts["gc_full_us"] > 0


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
