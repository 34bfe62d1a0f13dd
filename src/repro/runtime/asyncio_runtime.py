"""``AsyncioRuntime``: the protocol core on an asyncio event loop, in wall time.

One runtime times one node of a socket or shared-memory cluster
(:class:`~repro.runner.shard.Shard`) against a :class:`MonotonicClock`:
timers are ``loop.call_later`` callbacks, and the node's transport, bound
to the runtime, runs real I/O tasks and schedules its local deliveries
through :meth:`AsyncioRuntime.call_after`; the cluster decides how long the
loop runs (:meth:`~repro.runner.process_cluster.LiveCluster.run`).  The
clock is re-zeroed at construction so live metrics share the "runs start
near 0.0" convention of simulated ones.

Virtual time is not this module's business: the virtual-time lane binds
the same transports to the discrete-event kernel
(:class:`~repro.sim.events.Simulator`).  Both honour the
:class:`~repro.runtime.base.Runtime` contract: sequential callbacks, timers
never early, zero-delay work in order.
"""

from __future__ import annotations

import asyncio
import random
import time as _time
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.runtime.base import Clock, TimerHandle


class MonotonicClock(Clock):
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


class _LoopTimerHandle:
    """Cancellable handle wrapping a ``loop.call_later`` callback."""

    __slots__ = ("cancelled", "fired", "label", "_loop_handle")

    def __init__(self, label: str = "") -> None:
        self.cancelled = False
        self.fired = False
        self.label = label
        self._loop_handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        """Prevent the timer from firing.  Safe to call more than once."""
        if self.fired:
            return
        self.cancelled = True
        if self._loop_handle is not None:
            self._loop_handle.cancel()
            self._loop_handle = None

    @property
    def pending(self) -> bool:
        """True while neither fired nor cancelled."""
        return not self.cancelled and not self.fired

    def _run(self, runtime: "AsyncioRuntime", callback: Callable[..., None], args: tuple) -> None:
        if self.cancelled:
            return
        self.fired = True
        self._loop_handle = None
        runtime.events_processed += 1
        callback(*args)


class AsyncioRuntime:
    """A :class:`~repro.runtime.base.Runtime` on the running asyncio loop.

    Parameters
    ----------
    clock:
        The wall clock; a fresh :class:`MonotonicClock` when omitted.  The
        nodes of one cluster share an instance (or an ``origin``) so their
        metrics live on one timeline.
    seed:
        Seed for :attr:`rng` (protocol-visible randomness).
    """

    def __init__(self, clock: Optional[Clock] = None, seed: int = 0) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.rng = random.Random(seed)
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current time under this runtime's clock."""
        return self.clock.now

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(
        self, delay: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> TimerHandle:
        """Arm a cancellable timer ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        handle = _LoopTimerHandle(label)
        handle._loop_handle = asyncio.get_running_loop().call_later(
            delay, handle._run, self, callback, args
        )
        return handle

    def set_timer_at(
        self, time: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> TimerHandle:
        """Arm a cancellable timer at absolute runtime time ``time``.

        A past time means "fire immediately" (the simulator kernel rejects
        it instead): the monotonic clock keeps moving between a caller
        reading ``now`` and scheduling, so a freshly computed
        ``max(target, self.now)`` may already be a hair in the past by the
        time it arrives here.
        """
        return self.set_timer(max(0.0, time - self.now), callback, *args, label=label)

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget lane: every delivery comes through here, and
        nothing cancels it, so it skips :meth:`set_timer`'s handle.  A zero
        delay stays a ``call_later``, so a loopback delivery still runs
        after the callbacks already due: as a ``call_soon`` it made views
        shorter but requests wait more of them (4.2 -> 4.8 views at request
        p50 on the process + shm lane, p90 up a fifth)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        asyncio.get_running_loop().call_later(delay, self._fire, callback, args)

    def _fire(self, callback: Callable[..., None], args: tuple) -> None:
        self.events_processed += 1
        callback(*args)

    def spawn(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after the current callback
        (``call_after(0.0, ...)``)."""
        self.call_after(0.0, callback, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AsyncioRuntime(now={self.now:.3f}, events={self.events_processed})"
