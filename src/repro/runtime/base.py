"""The runtime seam: time and timers, the half of a process's world that is not messaging.

A protocol process touches its world in two ways.  It sends and receives
point-to-point messages through its
:class:`~repro.runtime.transports.Transport`, and it reads time and arms
timers through the :class:`Runtime` that transport is bound to.
References run one way: a process holds its transport, the transport
holds its runtime, and the runtime holds neither.

Two classes satisfy :class:`Runtime`:

* :class:`~repro.sim.events.Simulator` — the discrete-event kernel, the
  only virtual-time runtime (the ``run_scenario`` lane).
* :class:`~repro.runtime.asyncio_runtime.AsyncioRuntime` — an asyncio
  event loop in wall time, under the socket and shared-memory transports.

:class:`Runtime` is a structural :class:`~typing.Protocol`, so the kernel
satisfies it without importing this package (the protocol core loads
:mod:`repro.sim` and nothing under :mod:`repro.runtime`).

The contract the protocol core relies on (and every runtime must honour):

1. **Single-threaded callbacks.**  All protocol callbacks — message
   deliveries, timer fires — run sequentially; no two callbacks of the same
   process ever overlap.
2. **Timers never fire early** and fire at most once unless cancelled.
3. **Zero-delay work keeps its order**: ``call_after(0.0, ...)`` callbacks
   run in the order they were scheduled, after the current callback.
4. **Time is monotone**: ``now`` never decreases between callbacks.

The one documented divergence: :meth:`Runtime.set_timer_at` at a past time
raises on the simulator (time cannot move between reading ``now`` and
scheduling, so a past target is a bug) and fires at once on a wall clock
(which keeps moving in between).  Self-messages are delivered immediately
— the paper's Section-4 convention — by every transport, not the runtime.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Protocol, runtime_checkable


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
    """A source of a wall-clock runtime's notion of "now".

    :class:`~repro.runtime.asyncio_runtime.AsyncioRuntime` reads time
    here, from a :class:`~repro.runtime.asyncio_runtime.MonotonicClock`
    (``time.monotonic`` re-zeroed at construction, so runs start near 0.0
    like simulated ones).
    """

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall, depending on the clock)."""


@runtime_checkable
class Runtime(Protocol):
    """A clock and timers: everything a process asks of its world but messaging.

    ``rng`` is a seeded :class:`random.Random`; all protocol-visible
    randomness flows through it so runs stay reproducible.
    """

    rng: random.Random

    @property
    def now(self) -> float:
        """Current runtime time (virtual in simulation, wall-clock when live)."""
        ...

    def set_timer(
        self, delay: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> TimerHandle:
        """Run ``callback(*args)`` ``delay`` seconds from now; cancellable."""
        ...

    def set_timer_at(
        self, time: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> TimerHandle:
        """Run ``callback(*args)`` at absolute runtime time ``time``; cancellable."""
        ...

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`set_timer`: no handle, no cancellation.
        Every delivery of a transport comes through here."""
        ...

    def spawn(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` soon, after the current callback returns
        (``call_after(0.0, ...)``): breaks re-entrancy."""
        ...
