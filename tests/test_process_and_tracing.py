"""Unit tests for the Process base class, tracing, and the consensus engine's
message hygiene (observed through small end-to-end runs)."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.sim.process import Process
from repro.sim.tracing import TraceEvent, TraceRecorder


class Echo(Process):
    """Test process: records what it receives; replies to 'ping' with 'pong'."""

    def __init__(self, pid, ctx):
        super().__init__(pid, ctx)
        self.received = []

    def on_message(self, payload, sender):
        self.received.append((payload, sender))
        if payload == "ping":
            self.send(sender, "pong")


# ----------------------------------------------------------------------
# Process basics
# ----------------------------------------------------------------------
def test_processes_exchange_messages(ctx):
    a = Echo(0, ctx)
    b = Echo(1, ctx)
    a.send(1, "ping")
    ctx.runtime.sim.run()
    assert ("ping", 0) in b.received
    assert ("pong", 1) in a.received


def test_crashed_process_neither_sends_nor_receives(ctx):
    a = Echo(0, ctx)
    b = Echo(1, ctx)
    b.crash()
    a.send(1, "ping")
    b.send(0, "never")
    ctx.runtime.sim.run()
    assert b.received == []
    assert a.received == []
    assert b.crashed


def test_broadcast_includes_self(ctx):
    a = Echo(0, ctx)
    Echo(1, ctx)
    a.broadcast("hello")
    ctx.runtime.sim.run()
    assert ("hello", 0) in a.received


def test_local_time_tracks_clock(ctx):
    a = Echo(0, ctx)
    ctx.runtime.sim.schedule(4.0, lambda: None)
    ctx.runtime.sim.run()
    assert a.local_time == pytest.approx(4.0)
    assert a.now == pytest.approx(4.0)


def test_trace_helper_records_events(ctx):
    a = Echo(0, ctx)
    a.trace("custom_event", value=7)
    events = ctx.trace.of_kind("custom_event")
    assert len(events) == 1
    assert events[0].details == {"value": 7}
    assert events[0].pid == 0


# ----------------------------------------------------------------------
# Trace recorder
# ----------------------------------------------------------------------
def test_trace_recorder_filters_and_ordering():
    recorder = TraceRecorder()
    recorder.record(1.0, 0, "a", {})
    recorder.record(2.0, 1, "b", {"x": 1})
    recorder.record(3.0, 0, "a", {})
    assert len(recorder) == 3
    assert [e.time for e in recorder.of_kind("a")] == [1.0, 3.0]
    assert [e.kind for e in recorder.for_pid(0)] == ["a", "a"]
    assert recorder.first("b").details == {"x": 1}
    assert recorder.last("a").time == 3.0
    assert recorder.first("missing") is None
    assert len(recorder.where(lambda e: e.time > 1.5)) == 2


def test_trace_recorder_respects_disabled_and_capacity():
    disabled = TraceRecorder(enabled=False)
    disabled.record(1.0, 0, "a", {})
    assert len(disabled) == 0
    capped = TraceRecorder(max_events=2)
    for i in range(5):
        capped.record(float(i), 0, "a", {})
    assert len(capped) == 2


def test_trace_timeline_rendering():
    recorder = TraceRecorder()
    recorder.record(1.0, 0, "enter_view", {"view": 3})
    recorder.record(2.0, 1, "qc_produced", {"view": 3})
    text = recorder.timeline()
    assert "enter_view" in text and "qc_produced" in text
    filtered = recorder.timeline(kinds={"qc_produced"})
    assert "enter_view" not in filtered
    assert str(TraceEvent(1.0, 0, "k", {"a": 1})).startswith("[t=")


# ----------------------------------------------------------------------
# Consensus engine hygiene, observed via short runs
# ----------------------------------------------------------------------
def test_commits_lag_decisions_by_the_three_chain_rule():
    result = run_scenario(
        ScenarioConfig(n=4, pacemaker="lumiere", duration=60.0, record_trace=False)
    )
    decisions = result.honest_decisions()
    commits = result.committed_blocks()
    assert 0 < commits < decisions
    # The 3-chain rule means commits trail certified views by a small constant.
    assert decisions - commits <= 5


def test_every_commit_was_previously_certified():
    result = run_scenario(
        ScenarioConfig(n=4, pacemaker="lumiere", duration=50.0, record_trace=False)
    )
    decided_views = {d.view for d in result.metrics.decisions}
    for replica in result.honest_replicas:
        for index in range(len(replica.ledger)):
            assert replica.ledger[index].block.view in decided_views


def test_all_honest_replicas_observe_the_same_committed_prefix():
    result = run_scenario(
        ScenarioConfig(n=4, pacemaker="fever", duration=60.0, record_trace=False)
    )
    ledgers = [replica.ledger.block_ids for replica in result.honest_replicas]
    shortest = min(len(ids) for ids in ledgers)
    assert shortest > 5
    reference = ledgers[0][:shortest]
    assert all(ids[:shortest] == reference for ids in ledgers)
