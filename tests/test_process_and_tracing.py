"""Unit tests for the Process base class, the run's event table, and the
consensus engine's message hygiene (observed through small end-to-end runs)."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ScenarioConfig, build_scenario, run_scenario
from repro.metrics.collector import EventRecord, MetricsCollector
from repro.sim.process import Process


class Echo(Process):
    """Test process: records what it receives; replies to 'ping' with 'pong'."""

    def __init__(self, pid, transport):
        super().__init__(pid, transport)
        self.received = []

    def on_message(self, payload, sender):
        self.received.append((payload, sender))
        if payload == "ping":
            self.send(sender, "pong")


# ----------------------------------------------------------------------
# Process basics
# ----------------------------------------------------------------------
def test_processes_exchange_messages(transport, simulator):
    a = Echo(0, transport)
    b = Echo(1, transport)
    a.send(1, "ping")
    simulator.run()
    assert ("ping", 0) in b.received
    assert ("pong", 1) in a.received


def test_crashed_process_neither_sends_nor_receives(transport, simulator):
    a = Echo(0, transport)
    b = Echo(1, transport)
    b.crash()
    a.send(1, "ping")
    b.send(0, "never")
    simulator.run()
    assert b.received == []
    assert a.received == []
    assert b.crashed


def test_broadcast_includes_self(transport, simulator):
    a = Echo(0, transport)
    Echo(1, transport)
    a.broadcast("hello")
    simulator.run()
    assert ("hello", 0) in a.received


def test_local_time_tracks_clock(transport, simulator):
    a = Echo(0, transport)
    simulator.set_timer(4.0, lambda: None)
    simulator.run()
    assert a.local_time == pytest.approx(4.0)
    assert a.now == pytest.approx(4.0)


def test_trace_helper_records_events():
    result = build_scenario(ScenarioConfig(n=4, duration=1.0))
    result.replicas[2].trace("custom_event", 7)
    assert result.metrics.events("custom_event") == [EventRecord(0.0, 2, "custom_event", 7)]


# ----------------------------------------------------------------------
# The event table
# ----------------------------------------------------------------------
def test_trace_recorder_filters_and_ordering():
    metrics = MetricsCollector()
    metrics.record_event(0, "a", 1, 1.0)
    metrics.record_event(1, "b", 5, 2.0)
    metrics.record_event(0, "a", 2, 3.0)
    assert [e.time for e in metrics.events()] == [1.0, 2.0, 3.0]
    assert [e.time for e in metrics.events("a")] == [1.0, 3.0]
    assert [e.kind for e in metrics.events(pid=0)] == ["a", "a"]
    assert metrics.events("b", pid=1) == [EventRecord(2.0, 1, "b", 5)]
    assert metrics.events("a", pid=1) == []
    assert metrics.events("missing") == []


def test_trace_recorder_respects_disabled_and_capacity():
    # record_trace is accepted and ignored: events are always recorded, uncapped.
    result = run_scenario(ScenarioConfig(n=4, duration=20.0, record_trace=False))
    entered = result.metrics.events("enter_view")
    assert {e.pid for e in entered} == set(result.replicas)
    metrics = MetricsCollector()
    for i in range(100_000):
        metrics.record_event(0, "a", i, float(i))
    assert len(metrics.events("a")) == 100_000


def test_trace_timeline_rendering():
    metrics = MetricsCollector()
    metrics.record_event(0, "enter_view", 3, 1.0)
    metrics.record_event(1, "lumiere_unpause.qc", 8, 2.0)
    rows = [str(event) for event in metrics.events()]
    assert rows[0].startswith("[t=") and "enter_view" in rows[0] and rows[0].endswith(" 3")
    assert "p1" in rows[1] and "lumiere_unpause.qc" in rows[1]
    assert [str(event) for event in metrics.events("enter_view")] == rows[:1]


# ----------------------------------------------------------------------
# Consensus engine hygiene, observed via short runs
# ----------------------------------------------------------------------
def test_commits_lag_decisions_by_the_three_chain_rule():
    result = run_scenario(ScenarioConfig(n=4, pacemaker="lumiere", duration=60.0))
    decisions = result.honest_decisions()
    commits = result.committed_blocks()
    assert 0 < commits < decisions
    # The 3-chain rule means commits trail certified views by a small constant.
    assert decisions - commits <= 5


def test_every_commit_was_previously_certified():
    result = run_scenario(ScenarioConfig(n=4, pacemaker="lumiere", duration=50.0))
    decided_views = {d.view for d in result.metrics.decisions}
    for replica in result.honest_replicas:
        assert len(replica.ledger.views) == len(replica.ledger) > 0
        for view in replica.ledger.views:
            assert view in decided_views


def test_all_honest_replicas_observe_the_same_committed_prefix():
    result = run_scenario(ScenarioConfig(n=4, pacemaker="fever", duration=60.0))
    ledgers = [replica.ledger.block_ids for replica in result.honest_replicas]
    shortest = min(len(ids) for ids in ledgers)
    assert shortest > 5
    reference = ledgers[0][:shortest]
    assert all(ids[:shortest] == reference for ids in ledgers)
