"""End-to-end client-workload tests: sim, chaos exactly-once.

The workload harness (``repro.runner.workload``) must keep the replicated
KV store deterministic under faults.  Headline assertions:

* an open-loop sim run applies every submitted request exactly once, with
  identical KV digests on every replica;
* under leader churn (``crash_churn``) plus transport drops the gateway
  retry path re-proposes commands, each identity applies once, and the end
  state equals a fault-free run's;
* two leaders handed the same batch on purpose both commit it, and the
  exactly-once filter applies it once.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import (
    ScenarioConfig,
    build_scenario,
    run_scenario,
    start_replicas,
)
from repro.faults import Lossy, get_scenario
from repro.runner import WorkloadConfig
from repro.runner.workload import make_command
from repro.statemachine import apply_chains_consistent
from repro.statemachine.commands import encode_commands
from repro.statemachine.messages import CommandBatch


def _config(seed: int = 0, **overrides) -> ScenarioConfig:
    defaults = dict(
        n=4,
        pacemaker="lumiere",
        delta=1.0,
        actual_delay=0.1,
        gst=0.0,
        duration=30.0,
        seed=seed,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _workload(**overrides) -> WorkloadConfig:
    defaults = dict(mode="open", rate=10.0, clients=2, stop=20.0)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


# ----------------------------------------------------------------------
# Simulated lane
# ----------------------------------------------------------------------
def test_sim_open_loop_applies_every_request_once():
    result = run_scenario(_config(workload=_workload()))
    metrics = result.metrics
    # 10/s for 20s on each of 4 hosting replicas.
    assert metrics.requests_submitted == 800
    assert metrics.requests_applied == 800
    assert metrics.requests_rejected == 0
    digests = set(result.kv_digests().values())
    assert len(digests) == 1
    assert apply_chains_consistent(result.kv_chains().values())
    assert result.kv_consistent()
    for replica in result.replicas.values():
        assert replica.state_machine.store.applied_total == 800
        assert replica.gateway.outstanding == 0
    # End-to-end latencies recorded and sane.
    latencies = metrics.request_latencies()
    assert len(latencies) == 800
    assert all(lat > 0.0 for lat in latencies)
    p50 = metrics.request_latency_percentile(0.5)
    p99 = metrics.request_latency_percentile(0.99)
    assert 0.0 < p50 <= p99
    # The picklable residue carries the same numbers.
    run_metrics = result.run_metrics()
    assert run_metrics.requests_applied == 800
    assert run_metrics.request_latency_percentile(0.5) == p50


def test_closed_loop_keeps_fixed_concurrency():
    workload = _workload(mode="closed", clients=2, think_time=0.5, stop=20.0)
    result = run_scenario(_config(workload=workload))
    metrics = result.metrics
    assert metrics.requests_applied > 0
    assert metrics.requests_applied == metrics.requests_submitted
    assert len(set(result.kv_digests().values())) == 1
    for replica in result.replicas.values():
        assert replica.gateway.outstanding == 0


def test_client_pids_restrict_hosting():
    workload = _workload(client_pids=(0, 2))
    result = run_scenario(_config(workload=workload))
    hosting = {pid for pid, r in result.replicas.items() if r.gateway is not None}
    assert hosting == {0, 2}
    # Non-hosting replicas still run the state machine.
    assert all(r.state_machine is not None for r in result.replicas.values())
    assert result.metrics.requests_applied == 400


def test_gateway_backpressure_rejects_past_max_pending():
    # Offered load far beyond what consensus can apply within the window,
    # with a tiny outstanding bound: the gateway must refuse, not buffer.
    workload = _workload(rate=200.0, stop=10.0, max_pending=16)
    result = run_scenario(_config(workload=workload))
    metrics = result.metrics
    assert metrics.requests_rejected > 0
    assert metrics.requests_submitted + metrics.requests_rejected > 0
    assert len(set(result.kv_digests().values())) == 1


def test_unknown_workload_mode_rejected():
    with pytest.raises(ValueError, match="unknown workload mode"):
        run_scenario(_config(workload=_workload(mode="bursty")))


# ----------------------------------------------------------------------
# Exactly-once under leader churn + transport drops
# ----------------------------------------------------------------------
def test_exactly_once_under_churn_and_drops():
    # A named scenario fully determines the adversary, so loss rides on the
    # churn scenario's corruption plan plus a Lossy delay model.  Clients
    # must sit on replicas that never crash: the plan names them.
    chaos_config = _config(duration=70.0, delay_model=Lossy(drop_rate=0.08, seed=7))
    _, chaos_config.corruption = get_scenario("crash_churn").build(
        chaos_config, {"faults": 1, "downtime": 6.0, "period": 12.0, "cycles": 2}
    )
    honest = tuple(sorted(chaos_config.corruption.honest_ids))
    assert len(honest) == 3
    # key_space must exceed the sequences per client (125 here): chaos
    # reorders commits, and a key written by two different seqs would make
    # the final value order-dependent.  With every key written at most once
    # the end state depends only on the applied *set*, which is the
    # property under test.
    workload = _workload(
        stop=25.0, retry_interval=2.0, client_pids=honest, key_space=128
    )
    chaos_config.workload = workload

    chaotic = run_scenario(chaos_config)
    assert chaotic.metrics.counts["drops"] > 0

    submitted = chaotic.metrics.requests_submitted
    assert submitted == int(workload.rate * workload.stop) * len(honest)

    # Every submitted request eventually applied, none left outstanding.
    assert chaotic.metrics.requests_applied == submitted
    for pid in honest:
        assert chaotic.replicas[pid].gateway.outstanding == 0

    # Each identity applied exactly once on every replica.
    for replica in chaotic.replicas.values():
        assert replica.state_machine.store.applied_total == submitted
    assert chaotic.kv_consistent()

    # The end state matches a fault-free run offering the same commands —
    # chaos changed the path, never the state.
    clean_config = _config(duration=70.0, workload=workload)
    clean = run_scenario(clean_config)
    assert clean.metrics.requests_applied == submitted
    clean_digests = set(clean.kv_digests().values())
    chaotic_digests = set(chaotic.kv_digests().values())
    assert clean_digests == chaotic_digests
    assert len(clean_digests) == 1


def test_a_batch_committed_by_two_leaders_applies_once():
    # The exactly-once filter, exercised on purpose rather than by a wasteful
    # retry: the same batch is put into the mempools of the next two leaders,
    # both propose it, both blocks commit.
    workload = _workload(client_pids=())  # state machines, no generators
    result = build_scenario(_config(workload=workload))
    replicas = result.replicas
    commands = [make_command(workload, client=9, seq=seq) for seq in range(8)]
    batch = CommandBatch(count=len(commands), data=encode_commands(commands))
    handed = []

    def hand_over():
        any_replica = replicas[0]
        first_view = any_replica.current_view + 1
        second_view = any_replica.turn_end(first_view) + 1
        for view in (first_view, second_view):
            leader = any_replica.leader_of(view)
            assert replicas[leader].mempool.ingest(batch)
            handed.append(leader)

    committed = []  # replica 0's committed blocks, from a hook on its commit path
    commit = replicas[0].commit_block
    replicas[0].commit_block = lambda block: (committed.append(block), commit(block))
    result.simulator.schedule_at(5.03, hand_over)
    start_replicas(replicas)
    result.simulator.run(until=10.0)

    assert len(set(handed)) == 2
    carriers = [block for block in committed if batch in block.payload]
    assert sorted(block.proposer for block in carriers) == sorted(handed)
    for replica in replicas.values():
        store = replica.state_machine.store
        assert store.applied_total == len(commands)
        assert store.duplicates_skipped == len(commands)
    assert len({tuple(chain) for chain in result.kv_chains().values()}) == 1
    assert len(set(result.kv_digests().values())) == 1
