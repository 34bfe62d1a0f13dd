"""``AsyncioRuntime``: the protocol core on an asyncio event loop.

One runtime hosts any number of local processes (a whole in-memory cluster
over :class:`~repro.runtime.transports.LocalTransport`, or a single node of
a TCP cluster over :class:`~repro.runtime.tcp.TcpTransport`) and runs in one
of two clock modes:

* :class:`VirtualClock` — **deterministic replay**.  The runtime keeps its
  own ``(time, seq)``-ordered event heap — the same ordering discipline as
  the discrete-event :class:`~repro.sim.events.Simulator` — and
  :meth:`AsyncioRuntime.run` drives it inside a coroutine, yielding to the
  loop between events.  With a seeded zero-jitter
  :class:`~repro.runtime.transports.LocalTransport` this reproduces a
  simulated run's decisions and ledgers exactly (see
  ``tests/test_live_runtime.py``), because timers and deliveries are
  scheduled by the same protocol calls in the same order and executed with
  the same tie-breaking.
* :class:`MonotonicClock` — **live wall-clock execution**.  Timers become
  ``loop.call_later`` callbacks, transports run real I/O tasks, and
  :meth:`AsyncioRuntime.run` simply sleeps until the requested wall
  duration (or a stop predicate) is reached.  The clock is re-zeroed at
  construction so live metrics share the "runs start near 0.0" convention
  of simulated ones.

Both modes honour the :class:`~repro.runtime.base.Runtime` contract:
sequential callbacks, timers never early, self-messages immediate.
"""

from __future__ import annotations

import asyncio
import heapq
import time as _time
from typing import Any, Callable, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.runtime.base import Clock, Runtime, TimerHandle
from repro.runtime.transports import Transport


class VirtualClock(Clock):
    """Deterministic virtual time, advanced only by the runtime's event heap."""

    __slots__ = ("_now",)

    def __init__(self, initial: float = 0.0) -> None:
        self._now = initial

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move virtual time forward (never backwards)."""
        if time > self._now:
            self._now = time


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


class _HeapTimerHandle:
    """Cancellable handle for virtual-mode heap timers (lazy cancellation)."""

    __slots__ = ("time", "cancelled", "fired", "label")

    def __init__(self, time: float, label: str = "") -> None:
        self.time = time
        self.cancelled = False
        self.fired = False
        self.label = label

    def cancel(self) -> None:
        """Prevent the timer from firing.  Safe to call more than once."""
        if not self.fired:
            self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while neither fired nor cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"_HeapTimerHandle(t={self.time:.3f}, {state}, label={self.label!r})"


class _LoopTimerHandle:
    """Cancellable handle wrapping a wall-mode ``loop.call_later`` callback."""

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
        :meth:`call_after`, so delivery ordering follows the clock mode.
    clock:
        A :class:`VirtualClock` (default — deterministic replay) or a
        :class:`MonotonicClock` (live wall-clock execution).
    trace:
        Optional :class:`~repro.sim.tracing.TraceRecorder`.
    seed:
        Seed for :attr:`rng` (protocol-visible randomness).
    """

    #: Hard cap on virtual-mode events executed at one timestamp — the same
    #: zero-delay-chain livelock guard as
    #: :attr:`~repro.sim.events.Simulator.MAX_EVENTS_PER_TIMESTAMP`.
    MAX_EVENTS_PER_TIMESTAMP = 100_000

    def __init__(
        self,
        transport: Transport,
        clock: Optional[Clock] = None,
        trace: Any = None,
        seed: int = 0,
    ) -> None:
        import random

        self.transport = transport
        self.clock = clock if clock is not None else VirtualClock()
        self.virtual = isinstance(self.clock, VirtualClock)
        self.trace = trace
        self.rng = random.Random(seed)
        self.events_processed = 0
        self._processes: dict[int, Any] = {}
        # Virtual-mode event heap: (time, seq, handle_or_None, callback, args),
        # the Simulator's exact entry shape and tie-breaking discipline.
        self._heap: list[tuple[float, int, Optional[_HeapTimerHandle], Callable, tuple]] = []
        self._seq = 0
        self._stopping = False
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
        if self.virtual:
            return self._push(self.now + delay, callback, args, label)
        handle = _LoopTimerHandle(label)
        handle._loop_handle = asyncio.get_running_loop().call_later(
            delay, handle._run, self, callback, args
        )
        return handle

    def set_timer_at(
        self, time: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> TimerHandle:
        """Arm a cancellable timer at absolute runtime time ``time``.

        Virtual mode rejects past times like the simulator does (time
        cannot advance between a caller reading ``now`` and scheduling).
        Wall mode clamps them to "fire immediately" instead: the monotonic
        clock keeps moving between those two instants, so a caller's
        freshly computed ``max(target, self.now)`` may already be a hair
        in the past by the time it arrives here.
        """
        if self.virtual:
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule event at {time!r}, which is before now={self.now!r}"
                )
            return self._push(time, callback, args, label)
        return self.set_timer(max(0.0, time - self.now), callback, *args, label=label)

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget lane: virtual mode skips the handle allocation."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        if self.virtual:
            self._seq += 1
            heapq.heappush(self._heap, (self.now + delay, self._seq, None, callback, args))
            return
        handle = _LoopTimerHandle()
        handle._loop_handle = asyncio.get_running_loop().call_later(
            delay, handle._run, self, callback, args
        )

    def _push(
        self, time: float, callback: Callable[..., None], args: tuple, label: str
    ) -> _HeapTimerHandle:
        handle = _HeapTimerHandle(time, label)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle, callback, args))
        return handle

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
    # Execution
    # ------------------------------------------------------------------
    async def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        poll: float = 0.02,
    ) -> None:
        """Drive the runtime inside a coroutine.

        Virtual mode executes heap events in ``(time, seq)`` order until the
        heap drains, ``until`` (virtual seconds) is reached, ``max_events``
        further events ran, or ``stop_when()`` turns true (checked between
        events); like :meth:`Simulator.run`, it finishes with ``now`` equal
        to ``until``.  Wall mode starts the transport's I/O tasks (if not
        already started) and sleeps in ``poll``-second steps until ``until``
        wall seconds elapsed or ``stop_when()`` turns true; ``max_events``
        is a replay budget and is rejected there rather than ignored.
        """
        if self.virtual:
            await self._run_virtual(until, max_events, stop_when)
            return
        if max_events is not None:
            raise ConfigurationError(
                "max_events is a virtual-mode replay budget; wall-clock runs "
                "are bounded by `until` and `stop_when`"
            )
        await self.transport.start()
        deadline = None if until is None else self.now + until
        while not self._stopping:
            if stop_when is not None and stop_when():
                return
            if deadline is not None:
                remaining = deadline - self.now
                if remaining <= 0:
                    return
                await asyncio.sleep(min(poll, remaining))
            else:
                await asyncio.sleep(poll)

    async def _run_virtual(
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop_when: Optional[Callable[[], bool]],
    ) -> None:
        clock = self.clock
        heap = self._heap
        budget = max_events if max_events is not None else -1
        if max_events is not None and budget <= 0:
            return
        events_at_now = 0
        last_time = clock.now
        executed = 0
        while heap:
            if budget == 0:
                return
            if stop_when is not None and stop_when():
                return
            entry = heap[0]
            handle = entry[2]
            if handle is not None and handle.cancelled:
                heapq.heappop(heap)
                continue
            event_time = entry[0]
            if until is not None and event_time > until:
                clock.advance_to(until)
                return
            heapq.heappop(heap)
            if handle is not None:
                handle.fired = True
            if event_time != last_time:
                clock.advance_to(event_time)
                last_time = event_time
                events_at_now = 1
            else:
                events_at_now += 1
                if events_at_now > self.MAX_EVENTS_PER_TIMESTAMP:
                    raise SimulationError(
                        f"more than {self.MAX_EVENTS_PER_TIMESTAMP} events executed "
                        f"at timestamp {event_time!r} without time advancing; give "
                        "the transport a positive delay or jitter floor"
                    )
            self.events_processed += 1
            entry[3](*entry[4])
            if budget > 0:
                budget -= 1
            executed += 1
            if executed % 256 == 0:
                # Stay cooperative: let other loop tasks (sibling runtimes,
                # watchdogs) breathe during long deterministic replays.
                await asyncio.sleep(0)
        if until is not None:
            clock.advance_to(until)

    def run_sync(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Blocking convenience wrapper: ``asyncio.run(self.run(...))``.

        Virtual mode only — a wall-clock runtime needs a caller-owned loop
        so transports and replicas can share it.
        """
        if not self.virtual:
            raise ConfigurationError(
                "run_sync is only available with a VirtualClock; drive a "
                "wall-clock runtime from your own event loop via `await run(...)`"
            )
        asyncio.run(self.run(until=until, max_events=max_events))

    async def stop(self) -> None:
        """Stop a wall-mode run loop and shut the transport down."""
        self._stopping = True
        await self.transport.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "virtual" if self.virtual else "wall"
        return (
            f"AsyncioRuntime({mode}, now={self.now:.3f}, "
            f"processes={sorted(self._processes)}, events={self.events_processed})"
        )
