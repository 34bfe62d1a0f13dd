"""``AsyncioRuntime``: the protocol core on an asyncio event loop, in wall time.

One runtime hosts the local processes of one node of a socket or
shared-memory cluster (:class:`~repro.runner.shard.Shard`) against a
:class:`MonotonicClock`: timers are ``loop.call_later`` callbacks and
transports run real I/O tasks; the cluster decides how long the loop runs
(:meth:`~repro.runner.process_cluster.LiveCluster.run`).  The clock is
re-zeroed at construction so live metrics share the "runs start near 0.0"
convention of simulated ones.

Virtual time is not this module's business: the virtual-time lane runs the
same transports on the discrete-event kernel
(:class:`~repro.runtime.simulation.SimRuntime`).  Both honour the
:class:`~repro.runtime.base.Runtime` contract: sequential callbacks, timers
never early, self-messages immediate.
"""

from __future__ import annotations

import asyncio
import random
import time as _time
from typing import Any, Callable, Optional, Sequence

from repro.errors import SimulationError
from repro.runtime.base import Clock, Runtime, TimerHandle
from repro.runtime.transports import Transport


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


class AsyncioRuntime(Runtime):
    """Run protocol processes on an asyncio loop over a pluggable transport.

    Parameters
    ----------
    transport:
        Message fabric; bound to this runtime at construction.  The
        transport schedules its local deliveries back through
        :meth:`call_after`.
    clock:
        The wall clock; a fresh :class:`MonotonicClock` when omitted.  The
        nodes of one cluster share an instance (or an ``origin``) so their
        metrics live on one timeline.
    seed:
        Seed for :attr:`rng` (protocol-visible randomness).
    """

    def __init__(
        self,
        transport: Transport,
        clock: Optional[Clock] = None,
        seed: int = 0,
    ) -> None:
        self.transport = transport
        self.clock = clock if clock is not None else MonotonicClock()
        self.rng = random.Random(seed)
        self.events_processed = 0
        self._processes: dict[int, Any] = {}
        transport.bind(self)

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
        """Fire-and-forget lane: every delivery comes through here, so it
        skips :meth:`set_timer`'s extra frame and argument repacking."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        handle = _LoopTimerHandle()
        handle._loop_handle = asyncio.get_running_loop().call_later(
            delay, handle._run, self, callback, args
        )

    # ------------------------------------------------------------------
    # Messaging and registration
    # ------------------------------------------------------------------
    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Point-to-point send through the transport."""
        self.transport.send(sender, recipient, payload)

    def broadcast(self, sender: int, payload: Any) -> None:
        """Broadcast (including self) through the transport."""
        self.transport.broadcast(sender, payload)

    def register(self, process: Any) -> None:
        """Attach a local process and register it as a transport endpoint."""
        pid = process.pid
        if pid in self._processes:
            raise SimulationError(f"process id {pid} registered twice")
        self._processes[pid] = process
        self.transport.register(process)

    @property
    def process_ids(self) -> Sequence[int]:
        """Sorted ids of every addressable processor (transport-wide)."""
        return self.transport.process_ids

    def process(self, pid: int) -> Any:
        """The locally hosted process with id ``pid``."""
        return self._processes[pid]

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Shut the transport down."""
        await self.transport.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncioRuntime(now={self.now:.3f}, "
            f"processes={sorted(self._processes)}, events={self.events_processed})"
        )
