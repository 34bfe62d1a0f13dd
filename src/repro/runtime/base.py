"""The runtime seam: what a protocol process may ask of its environment.

Everything below the consensus engine and the pacemakers — virtual-time
simulation, an asyncio event loop, real sockets — is reached exclusively
through a :class:`Runtime`.  The protocol core never imports a simulator,
an event loop or a socket; it sends (:meth:`Runtime.send` /
:meth:`Runtime.broadcast`), reads time (:attr:`Runtime.now`), arms timers
(:meth:`Runtime.set_timer` / :meth:`Runtime.set_timer_at`, both returning a
cancellable :class:`TimerHandle`) and defers work (:meth:`Runtime.spawn`).

Two families implement the interface:

* :class:`~repro.runtime.simulation.SimRuntime` — a thin adapter over the
  discrete-event :class:`~repro.sim.events.Simulator`, the only
  virtual-time kernel, and a :class:`~repro.runtime.transports.Transport`.
  Every call is a direct pass-through onto one of the two.
* :class:`~repro.runtime.asyncio_runtime.AsyncioRuntime` — runs the same
  protocol objects on an asyncio event loop in wall time, over a pluggable
  :class:`~repro.runtime.transports.Transport` (in-memory, TCP or shared
  memory).

The contract the protocol core relies on (and every runtime must honour):

1. **Single-threaded callbacks.**  All protocol callbacks — message
   deliveries, timer fires — run sequentially; no two callbacks of the same
   process ever overlap.
2. **Timers never fire early** and fire at most once unless cancelled.
3. **Self-messages are delivered immediately** (the paper's Section-4
   convention): a process broadcasting receives its own copy at the
   sending instant, before any later-scheduled work.
4. **Time is monotone**: ``now`` never decreases between callbacks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Protocol, Sequence, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """Handle to an armed timer: cancellable, and inspectable while pending.

    :class:`~repro.sim.events.EventHandle` satisfies this protocol, as do
    the asyncio-backed handles; protocol code only ever calls
    :meth:`cancel` and reads :attr:`pending`.
    """

    def cancel(self) -> None:
        """Prevent the timer from firing.  Safe to call more than once."""
        ...

    @property
    def pending(self) -> bool:
        """True while the timer has neither fired nor been cancelled."""
        ...


class Clock(ABC):
    """A source of the runtime's notion of "now".

    The protocol core reads time only through :attr:`Runtime.now`, which
    delegates here.  Virtual-time runs read the simulator's own time;
    wall-clock runtimes a :class:`~repro.runtime.asyncio_runtime.MonotonicClock`
    (``time.monotonic`` re-zeroed at construction, so runs start near 0.0
    like simulated ones).
    """

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall, depending on the clock)."""


class Runtime(ABC):
    """Everything a protocol process may ask of its environment.

    Implementations also expose one conventional attribute the interface
    does not abstract over: ``rng``, a seeded :class:`random.Random`; all
    protocol-visible randomness must flow through it so runs stay
    reproducible.
    """

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def now(self) -> float:
        """Current runtime time (virtual in simulation, wall-clock when live)."""

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    @abstractmethod
    def set_timer(
        self, delay: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> TimerHandle:
        """Run ``callback(*args)`` ``delay`` seconds from now; cancellable."""

    @abstractmethod
    def set_timer_at(
        self, time: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> TimerHandle:
        """Run ``callback(*args)`` at absolute runtime time ``time``; cancellable."""

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`set_timer`: no handle, no cancellation.

        The delivery fast lane (mirroring
        :meth:`~repro.sim.events.Simulator.schedule_fired`); runtimes with a
        cheaper no-handle path override it.
        """
        self.set_timer(delay, callback, *args)

    def spawn(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` soon, after the current callback returns.

        The runtime equivalent of ``call_soon``: used to break re-entrancy
        (e.g. a local-clock timer whose target is already reached still
        fires asynchronously).
        """
        self.call_after(0.0, callback, *args)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    @abstractmethod
    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Send ``payload`` from processor ``sender`` to ``recipient``."""

    @abstractmethod
    def broadcast(self, sender: int, payload: Any) -> None:
        """Send ``payload`` from ``sender`` to every processor, including itself."""

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    @abstractmethod
    def register(self, process: Any) -> None:
        """Attach a process (anything with ``pid`` and ``deliver(payload, sender)``)."""

    @property
    @abstractmethod
    def process_ids(self) -> Sequence[int]:
        """Sorted ids of every addressable processor (local and remote)."""
