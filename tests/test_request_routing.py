"""Leader-aware request routing: route, retry on the commit frontier, expire.

The client path shares one notion with the pacemakers, *a leader's turn*
(its maximal run of consecutive views under ``leader_of``), and three rules
built on it:

1. a flushed batch goes to the first proposer it can still reach — the
   gateway's own replica when it leads the view it is in and has not proposed
   in it yet, or leads ``current_view + 1``, else the leader of
   ``current_view + 2`` — and is filed under the last view of that turn;
2. an entry is re-dispatched when a block of that view or later has been
   applied and the command is still outstanding (the ``retry_interval``
   timer is only the lossy-regime fallback);
3. a replica accepts a forward, and keeps batches queued, only while a
   proposal of its own is coming within two views.

What is flushed is paced by the view: a replica's gateway flushes as the
replica enters a view, before the engine may propose in it; ``forward_batch``
caps one forward and ``forward_deadline`` is the fallback for a stalled view.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import (
    ScenarioConfig,
    build_scenario,
    run_scenario,
    start_replicas,
)
from repro.pacemakers.registry import available_pacemakers
from repro.runner import WorkloadConfig
from repro.runner.workload import make_command
from repro.statemachine.messages import CommandBatch, CommandForward


def _config(**overrides) -> ScenarioConfig:
    defaults = dict(
        n=7, pacemaker="lumiere", delta=1.0, actual_delay=0.1, gst=0.0,
        duration=30.0, seed=1,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _one_silent_leader(faults: int) -> dict:
    """Scenario overrides for the matrices' ``faults`` axis (0 = fault-free)."""
    if not faults:
        return {}
    return {"scenario": "silent_spread", "scenario_params": {"faults": 1}}


def _record_commits(replica) -> list:
    """The blocks ``replica`` commits from now on, in commit order (a hook
    on its commit path: the ledger keeps their ids, not the blocks)."""
    blocks = []
    commit = replica.commit_block

    def record(block):
        blocks.append(block)
        commit(block)

    replica.commit_block = record
    return blocks


def _carriers(blocks) -> dict:
    """``{view: (proposer, commands)}`` of the committed ``blocks`` carrying
    client batches, in ledger order."""
    return {
        block.view: (block.proposer, sum(
            item.count for item in block.payload if isinstance(item, CommandBatch)
        ))
        for block in blocks
        if any(isinstance(item, CommandBatch) for item in block.payload)
    }


def _duplicates_per_replica(result) -> int:
    return max(
        replica.state_machine.store.duplicates_skipped
        for replica in result.honest_replicas
    )


# ----------------------------------------------------------------------
# Rule 1: route
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pacemaker", available_pacemakers())
def test_dispatch_targets_the_next_reachable_proposer(pacemaker):
    result = build_scenario(_config(pacemaker=pacemaker, workload=WorkloadConfig()))
    turn_lengths = set()
    for pid, replica in result.replicas.items():
        for view in range(-1, 300):
            replica.pacemaker._current_view = view
            # In a view of its own it has yet to propose in, the replica's
            # batch rides that proposal; once it has proposed, the table is
            # the remote one again.
            if view >= 0 and replica.leader_of(view) == pid:
                assert replica.engine.proposal_pending(view)
                proposer, turn_end = replica.gateway._route()
                assert proposer == pid and turn_end == replica.turn_end(view)
                replica.engine._proposed_views[view] = None
            assert not replica.engine.proposal_pending(view)
            proposer, turn_end = replica.gateway._route()
            own = replica.leader_of(view + 1) == pid
            first = view + 1 if own else view + 2
            assert proposer == (pid if own else replica.leader_of(view + 2))
            # The stamp is the last view of the turn aimed at: the proposer
            # leads every view from the targeted one to it, and not the next
            # — so its turn has not ended, whatever the schedule.
            assert turn_end >= first > view
            assert all(
                replica.leader_of(v) == proposer for v in range(first, turn_end + 1)
            )
            assert replica.leader_of(turn_end + 1) != proposer
            start = first
            while start > 0 and replica.leader_of(start - 1) == proposer:
                start -= 1
            turn_lengths.add(turn_end - start + 1)
    expected = {
        # Two views per leader, four where the last leader of an epoch is
        # also the first of the next.
        "lumiere": {2, 4},
        "basic-lumiere": {2, 4},
        "fever": {2},
    }.get(pacemaker, {1})
    assert turn_lengths == expected


def test_a_flush_is_filed_under_the_turn_it_was_sent_to():
    workload = WorkloadConfig(forward_batch=4, stop=0.0)
    result = build_scenario(_config(workload=workload))
    replica = result.replicas[0]
    gateway = replica.gateway
    sent = []
    replica.send = lambda recipient, payload: sent.append((recipient, payload))
    for view in (3, 68):  # 68..71 is an epoch-boundary turn at n=7
        replica.pacemaker._current_view = view
        proposer, turn_end = gateway._route()
        accepted = replica.mempool.accepted
        first_seq = view * 4
        for seq in range(first_seq, first_seq + 4):
            assert gateway.submit(make_command(workload, client=0, seq=seq))
        if proposer == 0:
            assert replica.mempool.accepted == accepted + 1
        else:
            recipient, payload = sent.pop()
            assert recipient == proposer
            assert isinstance(payload, CommandForward) and payload.batch.count == 4
        stamps = {
            gateway._outstanding[(0, seq)][2]
            for seq in range(first_seq, first_seq + 4)
        }
        assert stamps == {turn_end}
    assert replica.turn_end(70) - 68 == 3
    assert gateway.outstanding == 8


# ----------------------------------------------------------------------
# All three, end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("faults", (0, 1))
@pytest.mark.parametrize("pacemaker", available_pacemakers())
def test_every_request_applies_with_almost_no_duplicates(pacemaker, faults):
    workload = WorkloadConfig(rate=2.0, clients=2, start=0.01, stop=100.01)
    result = run_scenario(_config(
        pacemaker=pacemaker, duration=220.0, workload=workload,
        **_one_silent_leader(faults),
    ))
    metrics = result.metrics
    assert metrics.requests_submitted == 1400
    assert metrics.requests_applied == 1400
    assert _duplicates_per_replica(result) <= 0.02 * 1400
    if not faults:
        assert metrics.counts["requests_redispatched"] == 0
        assert sum(r.mempool.expired for r in result.replicas.values()) == 0
    assert len({r.residue().kv_digest for r in result.honest_replicas}) == 1
    assert all(r.mempool.rejected == 0 for r in result.replicas.values())


def test_latency_through_a_silent_leader_is_under_one_rotation():
    # n=16 Lumiere, one silent leader: a rotation is 30 honest views (7.5
    # Delta) plus a 24.4 Delta stall.  The median request must not wait out
    # a whole stall, nor the 90th percentile a whole rotation (the blind
    # retry sat at two and four rotations).
    # The deadline is one Delta: four healthy views, a twenty-fourth of the
    # stall.  Views pace the batches while there are views; while the silent
    # leader's times out nobody enters one, and the deadline is what still
    # sends commands on to the leaders after it.
    workload = WorkloadConfig(
        rate=2.0, clients=2, start=0.01, stop=140.0, forward_deadline=1.0
    )
    result = run_scenario(_config(
        n=16, gst=20.0, duration=200.0, workload=workload,
        scenario="silent_spread", scenario_params={"faults": 1},
    ))
    metrics = result.metrics
    assert metrics.requests_applied == metrics.requests_submitted == 4480
    assert metrics.request_latency_percentile(0.5) < 24.4
    assert metrics.request_latency_percentile(0.9) < 32.0
    assert _duplicates_per_replica(result) <= 0.02 * 4480
    counts = metrics.counts
    assert counts["flushes.view"] > 0 and counts["flushes.deadline"] > 0
    decided = metrics.honest_decision_times_after(20.0)
    stall_start, stall_end = max(zip(decided, decided[1:]), key=lambda gap: gap[1] - gap[0])
    assert stall_end - stall_start > 20.0
    in_stall = metrics.message_kinds_between(stall_start + 2.0, stall_end - 2.0)
    assert in_stall.get("CommandForward", 0) > 0


# ----------------------------------------------------------------------
# The batching clock is the view
# ----------------------------------------------------------------------
#: No size trigger, no deadline inside the run: only a view entry can flush.
#: (The matrix above never gets there: at 2 requests a second its default
#: 0.05 s deadline fires before the next view entry, every time.)
_VIEW_PACED = dict(forward_batch=10**6, forward_deadline=50.0)


def _view_paced_run(pacemaker: str, n: int, stop: float, duration: float, **fault):
    workload = WorkloadConfig(rate=2.0, clients=2, start=3.0, stop=stop, **_VIEW_PACED)
    result = run_scenario(_config(
        n=n, pacemaker=pacemaker, duration=duration, workload=workload, **fault
    ))
    metrics = result.metrics
    views = max(metrics.max_view_entered(pid) for pid in result.replicas) + 1
    assert metrics.requests_applied == metrics.requests_submitted > 0
    counts = metrics.counts
    assert counts["flushes.size"] == counts["flushes.deadline"] == 0
    assert counts["flushes.view"] > 0
    # Per view, every replica but the one that will propose forwards at most
    # once (re-dispatches ride the same bound: they leave on a commit).
    assert counts["forwards_sent"] <= (n - 1) * views
    assert _duplicates_per_replica(result) == 0
    return result, views


@pytest.mark.parametrize("n", (4, 7))
@pytest.mark.parametrize("pacemaker", ("lumiere", "fever", "lp22", "raresync"))
def test_a_request_waits_for_a_proposal_not_for_a_timer(pacemaker, n):
    # With the count and the timer out of reach a request used to sit in the
    # gateway until the 50 s deadline (over a 60 Delta window: p50 31-32
    # Delta, max 51-53 under Lumiere).  Paced by views it costs the pipeline:
    # a view to leave, the aimed-at proposal, the three-chain.
    responsive = pacemaker in ("lumiere", "fever")
    stop, duration = (33.0, 40.0) if responsive else (100.0, 150.0)
    result, views = _view_paced_run(pacemaker, n, stop, duration)
    metrics = result.metrics
    assert metrics.counts["requests_redispatched"] == 0
    latencies = sorted(metrics.request_latencies())
    if responsive:
        assert latencies[-1] <= 2.0  # Delta = 1: network speed, not Delta
    else:
        # Timer-paced views: the same pipeline in units of their own length.
        view_length = duration / views
        assert latencies[len(latencies) // 2] < 5 * view_length
        assert latencies[-1] < 7 * view_length


@pytest.mark.parametrize("faults", (0, 1))
@pytest.mark.parametrize("pacemaker", available_pacemakers())
def test_view_paced_batches_under_every_pacemaker(pacemaker, faults):
    stop, duration = (60.0, 150.0) if faults else (40.0, 70.0)
    result, _ = _view_paced_run(pacemaker, 7, stop, duration, **_one_silent_leader(faults))
    if not faults:
        assert result.metrics.counts["requests_redispatched"] == 0
        assert sum(r.mempool.expired for r in result.replicas.values()) == 0
    assert len({r.residue().kv_digest for r in result.honest_replicas}) == 1
    assert all(r.mempool.rejected == 0 for r in result.replicas.values())


def test_buffered_commands_ride_the_proposal_of_the_view_entered_as_leader():
    workload = WorkloadConfig(stop=0.0, client_pids=(3,), **_VIEW_PACED)
    result = build_scenario(_config(duration=14.0, workload=workload))
    replica = result.replicas[3]
    enter_view = replica.on_view_entered
    seen = {}

    def submit(seqs):
        for seq in seqs:
            assert replica.gateway.submit(make_command(workload, client=3, seq=seq))

    def on_view_entered(view):
        if "own" not in seen and view > 20 and replica.is_leader(view):
            # Buffered while the view before was still running ...
            seen["own"] = view
            assert not replica.is_leader(view - 1)
            submit(range(3))
        enter_view(view)
        if seen.get("own") == view:
            # ... proposed with the view's block, and this replica's part of
            # the view is done: what arrives now goes to a leader to come.
            assert replica.gateway.outstanding == 3 and not replica.gateway._buffer
            assert not replica.engine.proposal_pending(view)
        if "late" not in seen and "own" in seen and view == replica.turn_end(seen["own"]):
            seen["late"] = view
            accepted = replica.mempool.accepted
            submit(range(3, 6))
            replica.gateway.flush("size")
            assert replica.mempool.accepted == accepted

    replica.on_view_entered = on_view_entered
    committed = _record_commits(replica)
    start_replicas(result.replicas)
    result.simulator.run(until=result.config.duration)
    carriers = _carriers(committed)
    assert carriers.pop(seen["own"]) == (3, 3)
    # The late three went to the leader of the view after next, which proposed
    # them in its turn.
    target = replica.leader_of(seen["late"] + 2)
    ((late_view, carrier),) = carriers.items()
    assert carrier == (target, 3) and target != 3
    assert seen["late"] < late_view <= replica.turn_end(seen["late"] + 2)
    metrics = result.metrics
    counts = metrics.counts
    assert metrics.requests_applied == 6 and counts["requests_redispatched"] == 0
    assert [counts["flushes." + t] for t in ("view", "size", "deadline")] == [1, 1, 0]
    assert counts["forwards_sent"] == 1
    assert _duplicates_per_replica(result) == 0


# ----------------------------------------------------------------------
# Rules 2 and 3, directed
# ----------------------------------------------------------------------
def _run_with(config: ScenarioConfig, at: float, action):
    """Run ``config`` with ``action(replicas)`` fired at virtual time ``at``."""
    result = build_scenario(config)
    result.simulator.set_timer_at(at, action, result.replicas)
    start_replicas(result.replicas)
    result.simulator.run(until=config.duration)
    return result


def test_a_late_forward_is_refused_and_redispatched_by_its_owner():
    # No generated load (the window is empty), so no fallback timer either:
    # what re-dispatches here is the commit frontier.
    workload = WorkloadConfig(forward_batch=8, stop=0.0, client_pids=(0,))
    late = {}

    def submit_toward_an_ended_turn(replicas):
        owner = replicas[0]
        view = owner.current_view
        ended = view - 2
        while owner.turn_end(ended) >= view:
            ended -= 1
        target = owner.leader_of(ended)
        assert target != 0
        assert all(owner.leader_of(v) != target for v in range(view, view + 4))
        late.update(target=target, stamp=owner.turn_end(ended))
        # As if dispatched a few views ago and delayed on the way.
        owner.gateway._route = lambda: (target, late["stamp"])
        for seq in range(8):
            assert owner.gateway.submit(make_command(workload, client=0, seq=seq))
        del owner.gateway._route

    result = _run_with(
        _config(duration=12.0, workload=workload), 5.03, submit_toward_an_ended_turn
    )
    target = result.replicas[late["target"]]
    assert target.mempool.expired == 1
    assert target.mempool.accepted == 0
    assert result.metrics.counts["requests_redispatched"] == 8
    assert result.metrics.requests_applied == 8
    assert result.replicas[0].gateway.outstanding == 0
    for replica in result.replicas.values():
        assert replica.state_machine.store.applied_total == 8
        assert replica.state_machine.store.duplicates_skipped == 0


def test_a_forward_is_accepted_only_within_two_views_of_a_proposal():
    workload = WorkloadConfig(stop=0.0, client_pids=())
    result = build_scenario(_config(pacemaker="cogsworth", workload=workload))
    replica = result.replicas[3]
    turn = next(view for view in range(20, 40) if replica.is_leader(view))
    for behind, accepted in ((3, False), (2, True), (1, True), (0, False)):
        replica.pacemaker._current_view = turn - behind
        before = (replica.mempool.accepted, replica.mempool.expired)
        replica._on_client_message(
            CommandForward(batch=CommandBatch(count=1, data=bytes([behind]))), sender=0
        )
        after = (replica.mempool.accepted, replica.mempool.expired)
        assert after == (before[0] + accepted, before[1] + (not accepted))
    # Entering the view after its turn, with no proposal within two views,
    # the replica drops what is left of the queue.
    assert replica.mempool.pending_commands == 2
    replica.pacemaker._current_view = turn + 1
    replica.on_view_entered(turn + 1)
    assert replica.mempool.pending_commands == 0
    assert replica.mempool.expired == 4


def test_a_backlog_over_two_proposals_does_not_wait_a_rotation():
    # 40 commands against max_batch=16: a two-view turn proposes 32, the
    # leftover batch is dropped when the turn ends and re-dispatched by its
    # owner as soon as the commit frontier passes that turn.
    workload = WorkloadConfig(
        forward_batch=8, max_batch=16, stop=0.0, client_pids=(0,)
    )
    aimed = {}

    def submit_backlog(replicas):
        owner = replicas[0]
        aimed["committed"] = _record_commits(owner)
        aimed["proposer"], aimed["turn_end"] = owner.gateway._route()
        for seq in range(40):
            assert owner.gateway.submit(make_command(workload, client=0, seq=seq))

    result = _run_with(_config(duration=14.0, workload=workload), 5.03, submit_backlog)
    replicas = result.replicas
    assert replicas[aimed["proposer"]].mempool.expired == 1
    assert result.metrics.counts["requests_redispatched"] == 8
    assert result.metrics.requests_applied == 40
    assert _duplicates_per_replica(result) == 0
    carriers = list(_carriers(aimed["committed"]))
    # Three proposals carried it, the last one within half a rotation (2n =
    # 14 views) of the turn first aimed at: the next proposer reachable once
    # the frontier had passed, not the same leader a rotation later.
    assert len(carriers) == 3
    assert carriers[-1] <= aimed["turn_end"] + 7
    rotation = 2 * result.config.n
    assert carriers[-1] < carriers[0] + rotation - 2
