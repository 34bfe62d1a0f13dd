"""The Simulator's heap on the wall clock: one kernel per wall-clock shard.

A :class:`~repro.runner.shard.Shard` times all its replicas with one
:class:`WallClockKernel`: the discrete-event
:class:`~repro.sim.events.Simulator` whose ``now`` reads a
:class:`MonotonicClock` on every call.  Timers and deliveries are entries
of the same ``(time, seq)`` heap as in virtual time; only who advances
time differs.  In virtual time the caller's ``run`` jumps from entry to
entry.  Here one asyncio timer, the bridge (the only one armed under
``src/``), waits for the heap's head, and each firing runs one pass,
``run(until=now)``: every entry due when the pass started, in
``(time, seq)`` order.  An entry pushed during the pass is due after it
started, so a zero-delay ``call_after`` still runs after every entry
already due, and the loop polls its file descriptors (TCP streams, the
shm doorbell, the control pipe) before the next pass.  A push that
becomes the heap's head re-arms the bridge, whoever made it: a callback,
a frame a reader or a ring drain delivered, the control pipe's ``go``.

A frame an I/O callback decoded is delivered at once
(:meth:`WallClockKernel.run_now`) and counted as an event, like each
heap entry that fires.

The one divergence from virtual time: ``set_timer_at`` at a past time
fires at the next pass instead of raising, because the clock keeps moving
between a caller reading ``now`` and scheduling.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import time as _time
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import EventHandle, Simulator


class MonotonicClock:
    """Wall-clock time from ``time.monotonic``, re-zeroed at construction.

    Monotone and unaffected by system-clock jumps, which is exactly what
    local clocks and view timers need; sharing one instance across the
    nodes of an in-process cluster puts all their metrics on one timeline.

    ``origin`` pins time zero to an explicit ``time.monotonic()`` reading.
    On Linux ``CLOCK_MONOTONIC`` is system-wide, so a coordinator can take
    one reading and hand it to every node *process* of a multi-process
    cluster — their clocks then agree the way a shared instance makes
    in-process nodes agree (see
    :class:`~repro.runner.process_cluster.LiveCluster`).
    """

    __slots__ = ("_origin",)

    def __init__(self, origin: Optional[float] = None) -> None:
        self._origin = _time.monotonic() if origin is None else origin

    @property
    def now(self) -> float:
        """Seconds of wall time since this clock was created."""
        return _time.monotonic() - self._origin


class WallClockKernel(Simulator):
    """The :class:`~repro.sim.events.Simulator` on a wall clock, run by the
    running asyncio loop.

    Parameters
    ----------
    clock:
        The wall clock; a fresh :class:`MonotonicClock` when omitted.  The
        shards of one cluster share its origin, so their metrics live on
        one timeline.
    seed:
        Seed for :attr:`rng`.
    """

    def __init__(self, clock: Optional[MonotonicClock] = None, seed: int = 0) -> None:
        super().__init__(seed)
        self.clock = clock if clock is not None else MonotonicClock()
        # The kernel time the bridge is armed for: +inf while nothing is
        # queued, -inf during a pass (which re-arms once, at its end).
        self._armed_at = math.inf
        self._bridge: Optional[asyncio.TimerHandle] = None
        # When the current (or the last) pass started.
        self._started = 0.0

    @property
    def now(self) -> float:
        """Current time under this kernel's clock."""
        return self.clock.now

    def set_timer_at(
        self, time: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> EventHandle:
        """Arm a cancellable timer at absolute time ``time``; a past time
        means "at the next pass"."""
        time = max(time, self.clock.now)
        handle = EventHandle(time, callback, args, label=label, sim=self)
        self._push(time, handle, callback, args)
        return handle

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget timer ``delay`` seconds from now (every delivery)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        self._push(self.clock.now + delay, None, callback, args)

    def call_next(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` first in the next pass, ahead of every
        entry queued since the current (or last) pass started, as
        ``loop.call_soon`` ordered it: an I/O continuation (the shm drain)
        outranks the timers and deliveries queued before it, and one that
        re-queues itself still lets the loop poll in between."""
        # Every entry queued since is due at a later clock reading.
        self._push(math.nextafter(self._started, math.inf), None, callback, args)

    def run_now(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at once as one event: a frame an I/O
        callback (a TCP reader, a ring drain) decoded."""
        self._events_processed += 1
        callback(*args)

    def _push(
        self, time: float, handle: Optional[EventHandle], callback: Callable[..., None],
        args: tuple,
    ) -> None:
        """Queue one heap entry; re-arm the bridge if it is the new head."""
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, handle, callback, args))
        if time < self._armed_at:
            self._arm(time)

    def _arm(self, time: float) -> None:
        """Point the bridge at ``time`` (needs a running loop)."""
        loop = asyncio.get_running_loop()
        if self._bridge is not None:
            self._bridge.cancel()
        self._armed_at = time
        self._bridge = loop.call_later(time - self.clock.now, self._pass)

    def _pass(self) -> None:
        """Run every entry due when the pass starts, then re-arm at the head."""
        self._bridge = None
        self._armed_at = -math.inf
        self._started = self.clock.now
        try:
            self.run(until=self._started)
        finally:
            self._armed_at = math.inf
            if self._queue:
                self._arm(self._queue[0][0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WallClockKernel(now={self.now:.3f}, active={self.active_events}, "
            f"processed={self.events_processed})"
        )
