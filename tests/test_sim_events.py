"""Unit tests for the discrete-event simulator kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_processed == 0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.set_timer(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.set_timer(3.0, lambda: order.append("c"))
    sim.set_timer(1.0, lambda: order.append("a"))
    sim.set_timer(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    for label in ("first", "second", "third"):
        sim.set_timer(1.0, order.append, label)
    sim.run()
    assert order == ["first", "second", "third"]


def test_schedule_with_args():
    sim = Simulator()
    received = []
    sim.set_timer(1.0, lambda a, b: received.append((a, b)), 1, "x")
    sim.run()
    assert received == [(1, "x")]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.set_timer(-1.0, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.set_timer(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.set_timer_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.set_timer(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.pending


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.set_timer(1.0, lambda: fired.append(1))
    sim.set_timer(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_until_advances_time_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.set_timer(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_scheduled_during_execution_run_later():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.set_timer(1.0, lambda: order.append("inner"))

    sim.set_timer(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 2.0


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    sim.run(max_events=1)
    assert sim.events_processed == 0


def test_rng_is_deterministic_per_seed():
    a = Simulator(seed=7).rng.random()
    b = Simulator(seed=7).rng.random()
    c = Simulator(seed=8).rng.random()
    assert a == b
    assert a != c


def test_handle_reports_fired_state():
    sim = Simulator()
    handle = sim.set_timer(1.0, lambda: None)
    assert handle.pending
    sim.run()
    assert handle.fired
    assert not handle.pending


# ----------------------------------------------------------------------
# Lazy cancellation: active_events and heap compaction
# ----------------------------------------------------------------------
def test_active_events_excludes_cancelled_entries():
    sim = Simulator()
    handles = [sim.set_timer(float(i + 1), lambda: None) for i in range(6)]
    assert sim.active_events == 6
    assert sim.pending_events == 6
    for handle in handles[:4]:
        handle.cancel()
    assert sim.active_events == 2
    # Cancellation is lazy: the heap still holds the cancelled entries.
    assert sim.pending_events >= sim.active_events


def test_cancel_is_idempotent_for_the_active_count():
    sim = Simulator()
    handle = sim.set_timer(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim.active_events == 0


def test_cancel_after_firing_does_not_corrupt_the_active_count():
    sim = Simulator()
    handle = sim.set_timer(1.0, lambda: None)
    sim.run()
    handle.cancel()  # no-op: already fired
    assert sim.active_events == 0
    assert sim.pending_events == 0


def test_compaction_prunes_cancelled_entries_from_the_heap():
    sim = Simulator()
    sim.COMPACTION_MIN_CANCELLED = 4  # shrink the threshold for the test
    handles = [sim.set_timer(float(i + 1), lambda: None) for i in range(10)]
    for handle in handles[:6]:
        handle.cancel()
    # 6 cancelled >= 4 and 6*2 > 10: the sweep runs and the heap shrinks.
    assert sim.pending_events == 4
    assert sim.active_events == 4


def test_execution_order_survives_compaction():
    sim = Simulator()
    sim.COMPACTION_MIN_CANCELLED = 2
    order = []
    keep = [sim.set_timer(float(i + 1), order.append, i) for i in range(5)]
    doomed = [sim.set_timer(0.5 + i, lambda: order.append("bad")) for i in range(5)]
    for handle in doomed:
        handle.cancel()
    sim.run()
    assert order == [0, 1, 2, 3, 4]
    assert all(handle.fired for handle in keep)


# ----------------------------------------------------------------------
# Same-timestamp event budget (zero-delay livelock guard)
# ----------------------------------------------------------------------
def test_zero_delay_event_chain_raises_instead_of_livelocking():
    sim = Simulator()
    sim.MAX_EVENTS_PER_TIMESTAMP = 50  # shrink the budget for the test

    def reschedule():
        sim.set_timer(0.0, reschedule)

    sim.set_timer(0.0, reschedule)
    with pytest.raises(SimulationError, match="timestamp"):
        sim.run(until=10.0)
    assert sim.now == 0.0  # virtual time never advanced


def test_event_budget_resets_when_time_advances():
    sim = Simulator()
    sim.MAX_EVENTS_PER_TIMESTAMP = 10
    fired = []

    def advance():
        fired.append(sim.now)
        if len(fired) < 50:
            sim.set_timer(0.1, advance)

    sim.set_timer(0.1, advance)
    sim.run()  # 50 events, but only one per timestamp: never trips the budget
    assert len(fired) == 50


def test_event_budget_allows_bursts_within_the_cap():
    sim = Simulator()
    sim.MAX_EVENTS_PER_TIMESTAMP = 10
    fired = []
    for i in range(10):
        sim.set_timer(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_repr_reports_active_events():
    sim = Simulator()
    handle = sim.set_timer(1.0, lambda: None)
    sim.set_timer(2.0, lambda: None)
    handle.cancel()
    assert "active=1" in repr(sim)
