"""Unit and property tests for the local clock (pause / bump semantics)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import LocalClock
from repro.sim.events import Simulator


def make_clock(initial: float = 0.0) -> tuple[Simulator, LocalClock]:
    sim = Simulator()
    return sim, LocalClock(sim, initial=initial)


def test_clock_advances_with_simulation_time():
    sim, clock = make_clock()
    sim.set_timer(5.0, lambda: None)
    sim.run()
    assert clock.read() == pytest.approx(5.0)


def test_pause_freezes_value():
    sim, clock = make_clock()
    sim.set_timer(2.0, clock.pause)
    sim.set_timer(10.0, lambda: None)
    sim.run()
    assert clock.read() == pytest.approx(2.0)
    assert clock.paused


def test_unpause_resumes_from_frozen_value():
    sim, clock = make_clock()
    sim.set_timer(2.0, clock.pause)
    sim.set_timer(5.0, clock.unpause)
    sim.set_timer(8.0, lambda: None)
    sim.run()
    # 2 units before the pause + 3 units after the unpause.
    assert clock.read() == pytest.approx(5.0)


def test_pause_and_unpause_are_idempotent():
    sim, clock = make_clock()
    clock.pause()
    clock.pause()
    clock.unpause()
    clock.unpause()
    assert not clock.paused


def test_bump_moves_clock_forward():
    sim, clock = make_clock()
    assert clock.bump_to(10.0) is True
    assert clock.read() == pytest.approx(10.0)


def test_bump_never_moves_clock_backwards():
    sim, clock = make_clock()
    clock.bump_to(10.0)
    assert clock.bump_to(5.0) is False
    assert clock.read() == pytest.approx(10.0)


def test_bump_does_not_unpause():
    sim, clock = make_clock()
    clock.pause()
    clock.bump_to(4.0)
    assert clock.paused
    assert clock.read() == pytest.approx(4.0)


def test_local_timer_fires_at_target():
    sim, clock = make_clock()
    fired = []
    clock.schedule_at_local(3.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [pytest.approx(3.0)]


def test_local_timer_fires_immediately_if_target_already_passed():
    sim, clock = make_clock()
    clock.bump_to(5.0)
    fired = []
    clock.schedule_at_local(3.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [pytest.approx(0.0)]


def test_local_timer_delayed_by_pause():
    sim, clock = make_clock()
    fired = []
    clock.schedule_at_local(3.0, lambda: fired.append(sim.now))
    sim.set_timer(1.0, clock.pause)
    sim.set_timer(6.0, clock.unpause)
    sim.set_timer(20.0, lambda: None)
    sim.run()
    # 1 unit elapsed before the pause; the remaining 2 local units elapse
    # after the unpause at t=6, so the timer fires at t=8.
    assert fired == [pytest.approx(8.0)]


def test_local_timer_fires_when_bump_crosses_target():
    sim, clock = make_clock()
    fired = []
    clock.schedule_at_local(10.0, lambda: fired.append(sim.now))
    sim.set_timer(1.0, lambda: clock.bump_to(12.0))
    sim.run()
    assert fired == [pytest.approx(1.0)]


def test_cancelled_timer_never_fires():
    sim, clock = make_clock()
    fired = []
    timer = clock.schedule_at_local(3.0, lambda: fired.append(1))
    timer.cancel()
    sim.run()
    assert fired == []


def test_timer_not_fired_while_paused_even_if_simulation_advances():
    sim, clock = make_clock()
    fired = []
    clock.pause()
    clock.schedule_at_local(1.0, lambda: fired.append(1))
    sim.set_timer(50.0, lambda: None)
    sim.run()
    assert fired == []


def test_bump_counts_are_tracked():
    sim, clock = make_clock()
    clock.bump_to(1.0)
    clock.bump_to(2.0)
    clock.bump_to(1.5)  # no-op
    assert clock.bump_count == 2


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=10.0)),
        st.tuples(st.just("bump"), st.floats(min_value=0.0, max_value=50.0)),
        st.tuples(st.just("pause"), st.just(0.0)),
        st.tuples(st.just("unpause"), st.just(0.0)),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(ops=_operations)
def test_clock_is_monotonic_under_any_operation_sequence(ops):
    """lc(p, t2) >= lc(p, t1) for t2 >= t1 (Lemma 5.2's clock part)."""
    sim = Simulator()
    clock = LocalClock(sim)
    readings = [clock.read()]
    for kind, value in ops:
        if kind == "advance":
            sim.run(until=sim.now + value)
        elif kind == "bump":
            clock.bump_to(value)
        elif kind == "pause":
            clock.pause()
        elif kind == "unpause":
            clock.unpause()
        readings.append(clock.read())
    assert all(b >= a - 1e-9 for a, b in zip(readings, readings[1:]))


@settings(max_examples=60, deadline=None)
@given(ops=_operations, target=st.floats(min_value=0.1, max_value=60.0))
def test_timer_fires_only_once_clock_reaches_target(ops, target):
    """A local timer never fires while the clock is below its target."""
    sim = Simulator()
    clock = LocalClock(sim)
    fired_at_clock_value = []
    clock.schedule_at_local(target, lambda: fired_at_clock_value.append(clock.read()))
    for kind, value in ops:
        if kind == "advance":
            sim.run(until=sim.now + value)
        elif kind == "bump":
            clock.bump_to(value)
        elif kind == "pause":
            clock.pause()
        elif kind == "unpause":
            clock.unpause()
    sim.run()
    for reading in fired_at_clock_value:
        assert reading >= target - 1e-6
    assert len(fired_at_clock_value) <= 1


@settings(max_examples=100, deadline=None)
@given(
    start=st.floats(0.0, 50.0),
    target=st.floats(0.0, 100.0),
    bump=st.floats(0.0, 100.0),
    retarget=st.floats(0.0, 200.0),
)
def test_cancelling_before_a_bump_reschedules_like_cancelling_after(start, target, bump, retarget):
    """The Lumiere pacemaker's pattern: a pending timer, a bump, then a new
    timer replacing the old one.  Whether the old timer is cancelled before
    the bump or after it, it never fires and the new one fires at the same
    local time."""

    def run(cancel_first: bool) -> tuple[list[str], list[float]]:
        sim, clock = make_clock(initial=start)
        fired: list[str] = []
        at: list[float] = []
        old = clock.schedule_at_local(target, lambda: fired.append("old"))

        def step() -> None:
            if cancel_first:
                old.cancel()
                clock.bump_to(bump)
            else:
                clock.bump_to(bump)
                old.cancel()
            clock.schedule_at_local(
                retarget, lambda: (fired.append("new"), at.append(clock.read()))
            )

        if target <= start:
            step()  # before the zero-delay fire of an already-reached target
        else:
            sim.set_timer((target - start) / 2, step)
        sim.run()
        return fired, at

    assert run(cancel_first=True) == run(cancel_first=False)
    fired, at = run(cancel_first=True)
    assert fired == ["new"] and at[0] >= retarget - 1e-9
