"""Leader-aware request routing: route, retry on the commit frontier, expire.

The client path shares one notion with the pacemakers, *a leader's turn*
(its maximal run of consecutive views under ``leader_of``), and three rules
built on it:

1. a flushed batch goes to the first proposer it can still reach — the
   gateway's own replica when it leads ``current_view + 1``, else the leader
   of ``current_view + 2`` — and is filed under the last view of that turn;
2. an entry is re-dispatched when a block of that view or later has been
   applied and the command is still outstanding (the ``retry_interval``
   timer is only the lossy-regime fallback);
3. a replica accepts a forward, and keeps batches queued, only while a
   proposal of its own is coming within two views.
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
from repro.runner import WorkloadConfig, kv_state_digests
from repro.runner.workload import make_command
from repro.statemachine.messages import CommandBatch, CommandForward


def _config(**overrides) -> ScenarioConfig:
    defaults = dict(
        n=7, pacemaker="lumiere", delta=1.0, actual_delay=0.1, gst=0.0,
        duration=30.0, seed=1, record_trace=False,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


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
    fault = (
        {"scenario": "silent_spread", "scenario_params": {"faults": 1}}
        if faults else {}
    )
    result = run_scenario(
        _config(pacemaker=pacemaker, duration=220.0, workload=workload, **fault)
    )
    metrics = result.metrics
    assert metrics.requests_submitted == 1400
    assert metrics.requests_applied == 1400
    assert _duplicates_per_replica(result) <= 0.02 * 1400
    if not faults:
        assert metrics.requests_redispatched == 0
        assert sum(r.mempool.expired for r in result.replicas.values()) == 0
    assert len(set(kv_state_digests(result.honest_replicas).values())) == 1
    assert all(r.mempool.rejected == 0 for r in result.replicas.values())


def test_latency_through_a_silent_leader_is_under_one_rotation():
    # n=16 Lumiere, one silent leader: a rotation is 30 honest views (7.5
    # Delta) plus a 24.4 Delta stall.  The median request must not wait out
    # a whole stall, nor the 90th percentile a whole rotation (the blind
    # retry sat at two and four rotations).
    workload = WorkloadConfig(rate=2.0, clients=2, start=0.01, stop=140.0)
    result = run_scenario(_config(
        n=16, gst=20.0, duration=200.0, workload=workload,
        scenario="silent_spread", scenario_params={"faults": 1},
    ))
    metrics = result.metrics
    assert metrics.requests_applied == metrics.requests_submitted == 4480
    assert metrics.request_latency_percentile(0.5) < 24.4
    assert metrics.request_latency_percentile(0.9) < 32.0
    assert _duplicates_per_replica(result) <= 0.02 * 4480


# ----------------------------------------------------------------------
# Rules 2 and 3, directed
# ----------------------------------------------------------------------
def _run_with(config: ScenarioConfig, at: float, action):
    """Run ``config`` with ``action(replicas)`` fired at virtual time ``at``."""
    result = build_scenario(config)
    result.simulator.schedule_at(at, action, result.replicas)
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
    assert result.metrics.requests_redispatched == 8
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
        aimed["proposer"], aimed["turn_end"] = owner.gateway._route()
        for seq in range(40):
            assert owner.gateway.submit(make_command(workload, client=0, seq=seq))

    result = _run_with(_config(duration=14.0, workload=workload), 5.03, submit_backlog)
    replicas = result.replicas
    assert replicas[aimed["proposer"]].mempool.expired == 1
    assert result.metrics.requests_redispatched == 8
    assert result.metrics.requests_applied == 40
    assert _duplicates_per_replica(result) == 0
    carriers = [
        entry.block.view
        for entry in replicas[0].ledger.entries
        if any(isinstance(item, CommandBatch) for item in entry.block.payload)
    ]
    # Three proposals carried it, the last one within half a rotation (2n =
    # 14 views) of the turn first aimed at: the next proposer reachable once
    # the frontier had passed, not the same leader a rotation later.
    assert len(carriers) == 3
    assert carriers[-1] <= aimed["turn_end"] + 7
    rotation = 2 * result.config.n
    assert carriers[-1] < carriers[0] + rotation - 2
