"""``SimRuntime``: the discrete-event simulator behind the runtime seam.

The :class:`~repro.sim.events.Simulator` is the repo's only virtual-time
kernel, and this adapter is deliberately nothing but pass-throughs:
``set_timer`` *is* :meth:`~repro.sim.events.Simulator.schedule`,
``call_after`` *is* ``schedule_fired``, and ``send`` / ``broadcast`` /
``register`` go to the :class:`~repro.runtime.transports.Transport` the
runtime was built over — a :class:`~repro.runtime.transports.LocalTransport`,
bare or under a :class:`~repro.faults.transport.FaultyTransport`, which
schedules its deliveries back through :meth:`SimRuntime.call_after`.  This
is the virtual-time lane (``run_scenario``): seeded, replayable event for
event, and the oracle the wall-clock lanes' transport stack is tested on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.runtime.base import Runtime, TimerHandle
from repro.runtime.transports import Transport

if TYPE_CHECKING:  # pragma: no cover - type-checking only
    from repro.sim.events import Simulator


class SimRuntime(Runtime):
    """Adapter presenting a :class:`Simulator` + a transport as a :class:`Runtime`.

    Parameters
    ----------
    sim:
        The discrete-event simulator providing time and timers.
    transport:
        The message fabric; bound to this runtime here, so its deliveries
        run on ``sim``.
    """

    __slots__ = ("sim", "transport", "rng")

    def __init__(self, sim: "Simulator", transport: Transport) -> None:
        self.sim = sim
        self.transport = transport
        self.rng = sim.rng
        transport.bind(self)

    # ------------------------------------------------------------------
    # Time and timers
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    @property
    def events_processed(self) -> int:
        """Events the simulator has executed."""
        return self.sim.events_processed

    def set_timer(
        self, delay: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> TimerHandle:
        """Schedule via the simulator's cancellable lane."""
        return self.sim.schedule(delay, callback, *args, label=label)

    def set_timer_at(
        self, time: float, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> TimerHandle:
        """Schedule at absolute virtual time via the simulator's cancellable lane."""
        return self.sim.schedule_at(time, callback, *args, label=label)

    def call_after(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget lane: no handle allocation (``schedule_fired``)."""
        self.sim.schedule_fired(delay, callback, *args)

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
        """Register the process as a transport endpoint."""
        self.transport.register(process)

    @property
    def process_ids(self) -> Sequence[int]:
        """Sorted ids of all registered processes."""
        return self.transport.process_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimRuntime(now={self.sim.now:.3f}, n={len(self.process_ids)})"
