"""One result surface on every lane.

The same n=4 Lumiere + KV-workload config runs in the simulator, on an
inline TCP cluster and on a process cluster over shared-memory rings;
each must hand back the one
:class:`~repro.experiments.scenario.RunResult` type answering the same
queries, and :meth:`~repro.runner.record.RunRecord.from_result` must agree
with them.  Safety is the paper's — honest replicas only — on the cluster
and on its result alike.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.scenario import RunResult, ScenarioConfig, run_scenario
from repro.runner import RunRecord, WorkloadConfig, make_live_cluster
from repro.metrics.counters import BASE_COUNTS, BASE_FAULT_COUNTS


def _config(**overrides) -> ScenarioConfig:
    defaults = dict(
        n=4, pacemaker="lumiere", delta=0.2, actual_delay=0.02, duration=4.0,
        seed=1,
        workload=WorkloadConfig(mode="open", rate=20.0, clients=2, stop=2.0),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _run_cluster(config: ScenarioConfig, **lane):
    async def run():
        cluster = make_live_cluster(config, **lane)
        try:
            await asyncio.wait_for(cluster.run(config.duration), timeout=20.0)
        finally:
            await cluster.stop()
        assert not cluster.teardown_errors, cluster.teardown_errors
        return cluster

    return asyncio.run(run())


LANES = [
    pytest.param(run_scenario, id="sim"),
    pytest.param(
        lambda config: _run_cluster(config, placement="inline").result(),
        id="inline-tcp", marks=pytest.mark.tcp,
    ),
    pytest.param(
        lambda config: _run_cluster(
            config, placement="process", processes=2, transport="shm"
        ).result(),
        id="process-shm", marks=pytest.mark.tcp,
    ),
]


@pytest.mark.parametrize("run", LANES)
def test_every_lane_returns_the_one_result_type(run):
    result = run(_config())
    assert type(result) is RunResult
    assert result.committed_blocks() > 0
    assert result.honest_decisions() >= result.committed_blocks()
    assert result.max_honest_view() >= result.committed_blocks()
    assert result.events_processed > 0
    assert result.ledgers_are_consistent()
    assert result.kv_consistent()
    assert sorted(result.kv_digests()) == sorted(result.kv_chains()) == [0, 1, 2, 3]
    assert result.metrics.requests_applied > 0
    # Every lane reports the one counter vocabulary, and no fault here.
    counts = result.metrics.counts
    # Worker processes add their full GC passes (and the time they took).
    worker_names = {"gc_full_passes", "gc_full_us"} if result.shipped else set()
    assert set(counts) == set(BASE_COUNTS) | worker_names
    assert not any(counts[name] for name in BASE_FAULT_COUNTS)
    # A name reads the same in the bag as in the snapshot (the bag holds a
    # source total only once a merge has put it there).
    assert result.metrics.counters.as_dict().items() <= counts.items()
    assert counts["events_processed"] == result.events_processed
    assert counts["messages_sent"] > 0 and counts["qc_count"] > 0
    if result.simulator is not None:
        assert counts["events_processed"] == result.simulator.events_processed
        assert counts["frames_decoded"] == 0
    else:
        # Frames: co-located replicas share a broadcast's decode, and
        # loopback deliveries decode nothing.
        assert counts["messages_delivered"] >= counts["frames_decoded"] > 0
    assert result.summary().decisions == len(result.run_metrics().decision_times) > 0
    assert result.run_metrics().counts == counts
    assert "lumiere" in result.describe()
    # Which trigger served the run is in the bag on every lane (worker
    # processes included), and views pace a healthy run on all of them.
    assert counts["flushes.view"] > 0 and counts["forwards_sent"] > 0
    assert f"flushes=view:{counts['flushes.view']}/" in result.describe()
    # One event table on every lane (worker processes' rows merged in), in
    # time order, with rows from every honest replica.
    events = result.metrics.events()
    assert [event.time for event in events] == sorted(event.time for event in events)
    for kind in ("enter_view", "qc_observed", "proposal_sent"):
        pids = {event.pid for event in result.metrics.events(kind)}
        assert pids >= result.corruption.honest_ids, kind

    record = RunRecord.from_result(result, "run", "key", {"n": 4}, wall_time=0.0)
    assert record.committed_blocks == result.committed_blocks()
    assert record.ledgers_consistent == result.ledgers_are_consistent()
    assert record.max_honest_view == result.max_honest_view()
    assert record.events_processed == result.events_processed


@pytest.mark.tcp
def test_safety_queries_ignore_a_corrupted_replica():
    """A corrupted pid's ledger never enters the safety check — on the
    cluster or its result — while an honest pid's always does."""
    # One replica crashes at t=1s for a second; everyone commits before that.
    config = _config(
        workload=None, duration=3.0, scenario="crash_churn",
        scenario_params={"downtime": 1.0, "period": 3.0, "cycles": 1},
    )
    cluster = _run_cluster(config, placement="inline")
    assert cluster.metrics.counts["kills"] == 1
    result = cluster.result()
    (corrupted,) = sorted(set(cluster.replicas) - result.corruption.honest_ids)
    honest = result.honest_replicas[0]
    assert honest.pid != corrupted and len(honest.ledger) >= 2
    assert len(cluster.replicas[corrupted].ledger) >= 2

    def fork(ledger):
        ledger._ids[:] = "".join(f"{i}\n" for i in reversed(ledger.block_ids)).encode()

    # Fork the corrupted replica's ledger: safety is about honest replicas.
    fork(cluster.replicas[corrupted].ledger)
    assert cluster.ledgers_are_consistent()
    assert result.ledgers_are_consistent()
    assert result.committed_blocks() == max(len(r.ledger) for r in result.honest_replicas)

    # The same fork at an honest replica is a safety violation.
    fork(honest.ledger)
    assert not cluster.ledgers_are_consistent()
    assert not result.ledgers_are_consistent()
