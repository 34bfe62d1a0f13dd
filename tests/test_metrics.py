"""Unit tests for the metrics collector and the Table-1 summaries."""

from __future__ import annotations

import itertools
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.backend import PackedDigests
from repro.metrics.collector import _TABLES, MetricsCollector, merge_metrics_states
from repro.metrics.summary import summarize_run
from repro.runtime.transports import Envelope


def envelope(sender: int, recipient: int, time: float, payload: object = "m") -> Envelope:
    return Envelope(
        msg_id=0, sender=sender, recipient=recipient, payload=payload, send_time=time,
        deliver_time=time + 0.1,
    )


def collector_with_honest(honest=(0, 1, 2)) -> MetricsCollector:
    metrics = MetricsCollector()
    metrics.set_honest(honest)
    return metrics


def test_only_honest_non_self_messages_are_counted():
    metrics = collector_with_honest(honest=(0, 1))
    metrics.on_send(envelope(0, 1, 1.0))
    metrics.on_send(envelope(0, 0, 1.0))  # self message: ignored
    metrics.on_send(envelope(3, 1, 1.0))  # byzantine sender: ignored
    assert metrics.total_honest_messages == 1


def test_messages_between_uses_half_open_interval():
    metrics = collector_with_honest()
    for t in (1.0, 2.0, 3.0, 4.0):
        metrics.on_send(envelope(0, 1, t))
    assert metrics.messages_between(2.0, 4.0) == 2
    assert metrics.messages_between(0.0, float("inf")) == 4


def test_message_kind_breakdown():
    metrics = collector_with_honest()
    metrics.on_send(envelope(0, 1, 1.0, payload=123))
    metrics.on_send(envelope(0, 1, 2.0, payload="text"))
    kinds = metrics.message_kinds_between(0.0, 10.0)
    assert kinds == {"int": 1, "str": 1}


def test_first_honest_decision_and_w_t():
    metrics = collector_with_honest(honest=(0, 1, 2))
    metrics.on_send(envelope(0, 1, 1.0))
    metrics.on_send(envelope(1, 2, 2.0))
    metrics.record_decision(time=1.5, view=3, leader=5)   # byzantine leader: not t*
    metrics.record_decision(time=2.5, view=4, leader=1)   # honest leader
    decision = metrics.first_honest_decision_after(0.0)
    assert decision is not None and decision.time == 2.5
    assert metrics.communication_after(0.0) == 2
    assert metrics.latency_after(0.0) == pytest.approx(2.5)


def test_w_t_is_none_without_subsequent_decision():
    metrics = collector_with_honest()
    metrics.record_decision(time=1.0, view=0, leader=0)
    assert metrics.communication_after(5.0) is None
    assert metrics.latency_after(5.0) is None


def test_decision_gaps_and_messages_per_gap():
    metrics = collector_with_honest(honest=(0, 1, 2))
    for time in (1.0, 3.0, 6.0):
        metrics.record_decision(time=time, view=int(time), leader=0)
    metrics.on_send(envelope(0, 1, 2.0))
    metrics.on_send(envelope(0, 1, 4.0))
    metrics.on_send(envelope(0, 1, 5.0))
    assert metrics.decision_gaps(after=0.0) == [pytest.approx(2.0), pytest.approx(3.0)]
    assert metrics.messages_per_gap(after=0.0) == [1, 2]


def test_epoch_sync_counting_only_counts_honest_and_distinct_epochs():
    metrics = collector_with_honest(honest=(0, 1))
    metrics.record_event(pid=0, kind="epoch_sync", value=1, time=5.0)
    metrics.record_event(pid=1, kind="epoch_sync", value=1, time=6.0)
    metrics.record_event(pid=0, kind="epoch_sync", value=2, time=9.0)
    metrics.record_event(pid=3, kind="epoch_sync", value=7, time=9.0)  # byzantine: ignored
    metrics.record_event(pid=0, kind="enter_view", value=9, time=9.5)  # another kind
    assert metrics.epoch_syncs_after(0.0) == 2
    assert metrics.epoch_syncs_after(8.0) == 1


def test_view_entries_and_max_view():
    metrics = collector_with_honest()
    metrics.record_event(pid=0, kind="enter_view", value=1, time=1.0)
    metrics.record_event(pid=1, kind="enter_view", value=2, time=1.5)
    metrics.record_event(pid=0, kind="enter_view", value=4, time=2.0)
    metrics.record_event(pid=0, kind="qc_observed", value=7, time=2.5)  # another kind
    assert metrics.max_view_entered(0) == 4
    assert metrics.max_view_entered(9) == -1
    assert metrics.view_entries == {0: [(1.0, 1), (2.0, 4)], 1: [(1.5, 2)]}
    # The answer follows rows appended after a query.
    metrics.record_event(pid=1, kind="enter_view", value=5, time=3.0)
    assert metrics.max_view_entered(1) == 5


def test_summary_computes_table1_measures():
    metrics = collector_with_honest(honest=(0, 1, 2))
    gst = 10.0
    # Two messages after GST+Delta, first honest decision at 13.
    metrics.on_send(envelope(0, 1, 11.5))
    metrics.on_send(envelope(1, 2, 12.0))
    for i, time in enumerate((13.0, 14.0, 15.0, 17.0, 20.0, 24.0, 29.0)):
        metrics.record_decision(time=time, view=i, leader=0)
    summary = summarize_run(
        metrics, protocol="lumiere", n=4, f_actual=0, gst=gst, delta=1.0, warmup_decisions=2
    )
    assert summary.worst_case_communication == 2
    assert summary.worst_case_latency == pytest.approx(3.0)
    # Warmup is the 3rd decision (t=15); the largest later gap is 29-24=5.
    assert summary.eventual_latency == pytest.approx(5.0)
    assert summary.decisions == 7
    assert summary.protocol == "lumiere"


def test_summary_handles_runs_without_decisions():
    metrics = collector_with_honest()
    summary = summarize_run(metrics, protocol="x", n=4, f_actual=1, gst=0.0, delta=1.0)
    assert summary.decisions == 0
    assert summary.worst_case_latency is None
    assert summary.eventual_communication is None
    assert summary.as_row()["protocol"] == "x"


# ----------------------------------------------------------------------
# view_entries and drained rounds, against the plain rows
# ----------------------------------------------------------------------
_EVENT_KINDS = ("enter_view", "qc_observed", "epoch_sync")


@st.composite
def _event_rows(draw):
    """Time-ordered ``(time, pid, kind, value)`` rows over a few pids."""
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 5), st.sampled_from(_EVENT_KINDS),
            st.integers(-1, 50),
        ),
        max_size=60,
    ))
    time, rows = 0.0, []
    for gap, pid, kind, value in steps:
        time += gap / 4
        rows.append((time, pid, kind, value))
    return rows


def _record(collector: MetricsCollector, rows) -> MetricsCollector:
    for time, pid, kind, value in rows:
        collector.record_event(pid, kind, value, time)
    return collector


def _entries_from_events(collector: MetricsCollector) -> dict:
    entries: dict = {}
    for event in collector.events("enter_view"):
        entries.setdefault(event.pid, []).append((event.time, event.value))
    return entries


@settings(max_examples=60, deadline=None)
@given(rows=_event_rows(), split=st.integers(1, 5))
def test_view_entries_equal_the_enter_view_events(rows, split):
    """``view_entries`` equals the dict of lists built from
    ``events("enter_view")`` — keys, pairs and their order — on one
    collector and on one merged from shards that hold disjoint pids."""
    single = _record(collector_with_honest(), rows)
    expected = _entries_from_events(single)
    entries = single.view_entries
    assert entries == expected and list(entries) == list(expected)
    for pid, pairs in entries.items():
        assert list(pairs) == expected[pid] and len(pairs) == len(expected[pid])
        assert pairs[0] == expected[pid][0] and pairs[-1] == expected[pid][-1]
        assert pairs[1:] == expected[pid][1:]
    shards = [[row for row in rows if row[1] % split == k] for k in range(split)]
    merged = merge_metrics_states([_record(MetricsCollector(), part).state() for part in shards])
    assert merged.view_entries == _entries_from_events(merged) == expected


@settings(max_examples=40, deadline=None)
@given(
    rows=_event_rows(),
    commits=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6)), max_size=30),
    cuts=st.lists(st.integers(0, 90), max_size=5),
)
def test_drained_rounds_append_to_the_state_of_one_undrained_collector(rows, commits, cuts):
    """Rows recorded into two collectors alike, one of them drained at
    random points: its drained states, appended in order, merge into the
    same collector, column for column, as the other's one state."""
    whole, drained = collector_with_honest(), collector_with_honest()
    events = [("event", row) for row in rows]
    commit_rows = [
        ("commit", (float(i), pid, i, f"{block:064x}")) for i, (pid, block) in enumerate(commits)
    ]
    steps = [
        step for pair in itertools.zip_longest(events, commit_rows) for step in pair if step
    ]
    rounds = []
    for index, (what, row) in enumerate(steps):
        if index in cuts:
            rounds.append(drained.drain())
        for collector in (whole, drained):
            if what == "event":
                collector.record_event(row[1], row[2], row[3], row[0])
            else:
                collector.record_commit(row[1], row[2], row[3], row[0])
    rounds.append(drained.state())
    appended = dict(rounds[0])
    for later in rounds[1:]:
        for name, value in later.items():
            if isinstance(value, array):
                appended[name] = appended[name] + value
            elif isinstance(value, PackedDigests):
                appended[name] = PackedDigests([*appended[name], *value])
            else:
                appended[name] = value
    one, many = merge_metrics_states([whole.state()]), merge_metrics_states([appended])
    for table, names in _TABLES.items():
        for name in names:
            assert list(getattr(many, f"_{table}_{name}")) == list(getattr(one, f"_{table}_{name}"))
    assert many.view_entries == one.view_entries
