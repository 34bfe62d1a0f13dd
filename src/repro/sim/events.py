"""Event queue and virtual-time simulator kernel.

The kernel is intentionally small: a priority queue of ``(time, sequence)``
ordered events, each carrying a callback.  Everything else in the library
(message delivery, local-clock timers, protocol timeouts) is built on top of
:meth:`Simulator.set_timer` / :meth:`Simulator.set_timer_at` (cancellable
timers) and :meth:`Simulator.call_after` (the handle-free fast lane used by
message deliveries).  Those, ``now``, :meth:`Simulator.spawn` and ``rng``
make the simulator the runtime a transport is bound to: in virtual time
here, and on the wall clock as
:class:`~repro.runtime.wallclock.WallClockKernel`, the same heap whose
``now`` reads a monotonic clock.

The contract the protocol core relies on, on both clocks:

1. **Single-threaded callbacks.**  All protocol callbacks — message
   deliveries, timer fires — run sequentially; no two ever overlap.
2. **Timers never fire early** and fire at most once unless cancelled.
3. **Zero-delay work keeps its order**: ``call_after(0.0, ...)`` callbacks
   run in the order they were scheduled, after every entry already due.
4. **Time is monotone**: ``now`` never decreases between callbacks.

Self-messages are delivered immediately — the paper's Section-4
convention — by every transport, not the kernel.

Determinism: ties on time are broken by insertion order, and all randomness
in the library flows through :attr:`Simulator.rng`, which is seeded at
construction.  Two runs with the same configuration and seed produce
identical traces.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Optional

from repro.errors import SimulationError

# Heap entries are plain ``(time, seq, handle_or_None, callback, args)``
# tuples: tuple comparison runs in C and never reaches the third element
# (seq is unique), where a dataclass with ``order=True`` paid a Python-level
# ``__lt__`` on every sift — a measurable share of large-n runs.  Fire-and-
# forget events (the bulk of all events: every network delivery) carry
# ``None`` in the handle slot, so they cost one tuple and nothing else — no
# EventHandle allocation and no cancellation bookkeeping on the hot path.


class EventHandle:
    """Handle returned by the scheduling methods, used to cancel an event."""

    __slots__ = ("time", "callback", "args", "cancelled", "fired", "label", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        label: str = "",
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.label = label
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is still scheduled and not cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"EventHandle(t={self.time:.3f}, {state}, label={self.label!r})"


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for :attr:`rng`.  All random choices made by delay models,
        leader-schedule shuffles, workloads etc. must use this generator so
        that runs are reproducible.
    """

    #: Compaction kicks in once this many cancelled entries linger in the
    #: queue *and* they outnumber the live ones (see :meth:`_note_cancelled`).
    COMPACTION_MIN_CANCELLED = 256

    #: Hard cap on events executed at one virtual timestamp.  A zero-delay
    #: event chain (e.g. a delay model proposing 0.0 for every message) makes
    #: unbounded progress without virtual time ever advancing, so
    #: ``run(until=...)`` would otherwise never return.  Exceeding the budget
    #: raises :class:`SimulationError` instead of livelocking.  Legitimate
    #: bursts sit far below it: a broadcast is one event per distinct
    #: delivery time, so even an all-to-all round is O(n) events an instant.
    #: Handle-free :meth:`call_after` events draw on the same budget.
    MAX_EVENTS_PER_TIMESTAMP = 100_000

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Optional[EventHandle], Callable[..., None], tuple]] = []
        self._events_processed = 0
        self._events_at_now = 0
        self._cancelled_pending = 0
        self.rng = random.Random(seed)
        self.seed = seed

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for run budgets)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of heap entries still queued, *including* cancelled ones.

        Cancellation is lazy: a cancelled event stays in the heap until it is
        popped or a compaction sweep removes it, so this is a measure of heap
        size, not of outstanding work.  Use :attr:`active_events` for the
        number of events that will actually fire.
        """
        return len(self._queue)

    @property
    def active_events(self) -> int:
        """Number of queued events that are not cancelled (i.e. will fire)."""
        return len(self._queue) - self._cancelled_pending

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def set_timer(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        return self.set_timer_at(self.now + delay, callback, *args, label=label)

    def set_timer_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time!r}, which is before now={self._now!r}"
            )
        handle = EventHandle(time, callback, args, label=label, sim=self)
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, handle, callback, args))
        return handle

    def call_after(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Schedule ``callback(*args)`` ``delay`` units from now, fire-and-forget.

        The fast lane for events that are never cancelled or inspected:
        no :class:`EventHandle` is allocated and no cancellation bookkeeping
        happens — the event is one heap tuple.  All network deliveries go
        through this path; use :meth:`set_timer` when the caller may need to
        cancel (timers, timeouts).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, None, callback, args))

    def spawn(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at this instant, after the events already
        due now (``call_after(0.0, ...)``)."""
        self.call_after(0.0, callback, *args)

    # ------------------------------------------------------------------
    # Lazy-cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel` the first time a handle is cancelled.

        Timer-heavy protocols (Lumiere/Fever pacemakers re-arm timeouts on
        every view) cancel thousands of events that would otherwise linger in
        the heap until their scheduled time.  Once the cancelled entries both
        exceed :attr:`COMPACTION_MIN_CANCELLED` and outnumber the live ones,
        the queue is rebuilt without them, keeping push/pop costs bounded by
        the *active* event count.
        """
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACTION_MIN_CANCELLED
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap and restore the invariant.

        Compacts **in place**: run() holds a local reference to the queue
        list across events, so rebinding ``self._queue`` here would leave it
        draining a stale list.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[2] is None or not entry[2].cancelled]
        heapq.heapify(queue)
        self._cancelled_pending = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _budget_exceeded(self) -> SimulationError:
        return SimulationError(
            f"more than {self.MAX_EVENTS_PER_TIMESTAMP} events executed at "
            f"timestamp {self._now!r} without time advancing: a zero-delay "
            "event chain (e.g. a delay model proposing 0.0 for every message "
            "— give NetworkConfig a min_delay floor)"
        )

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue is empty, ``until`` is reached, or
        ``max_events`` further events have been processed.

        When ``until`` is given, the simulator finishes with ``now`` equal to
        ``until`` even if the queue drained earlier, so callers can treat it
        as "advance virtual time to this point".
        """
        # The heap root is read in place and popped once: peeking and then
        # re-popping it for every event was, by profile, the single largest
        # kernel-side cost of large-n runs.  ``max_events=1`` is one step.
        queue = self._queue
        budget = max_events if max_events is not None else -1
        if max_events is not None and budget <= 0:
            return
        max_at_now = self.MAX_EVENTS_PER_TIMESTAMP
        while queue:
            if budget == 0:
                return
            entry = queue[0]
            handle = entry[2]
            if handle is not None and handle.cancelled:
                heapq.heappop(queue)
                self._cancelled_pending -= 1
                continue
            time = entry[0]
            if until is not None and time > until:
                if until > self._now:
                    self._now = until
                    self._events_at_now = 0
                return
            heapq.heappop(queue)
            if handle is not None:
                handle.fired = True
            if time != self._now:
                self._now = time
                self._events_at_now = 1
            else:
                self._events_at_now += 1
                if self._events_at_now > max_at_now:
                    raise self._budget_exceeded()
            self._events_processed += 1
            entry[3](*entry[4])
            if budget > 0:
                budget -= 1
        if until is not None and until > self._now:
            self._now = until
            self._events_at_now = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, active={self.active_events}, "
            f"processed={self._events_processed})"
        )
