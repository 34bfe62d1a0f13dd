"""``SimRuntime``: the discrete-event simulator behind the runtime seam.

The :class:`~repro.sim.events.Simulator` is the repo's only virtual-time
kernel, and this adapter is deliberately nothing but pass-throughs onto it:
``set_timer`` *is* :meth:`~repro.sim.events.Simulator.schedule`,
``call_after`` *is* ``schedule_fired``, and ``send`` / ``broadcast`` go to
whichever message fabric the runtime was built over:

* the grouped-delivery :class:`~repro.sim.network.Network` — the simulated
  lane (``run_scenario``).  A protocol issues the exact same simulator and
  network calls, in the same order, as the pre-runtime code did, so the
  event heap sees identical ``(time, seq)`` entries (the
  ``tests/test_batched_delivery.py`` equivalence suite and the committed
  ``benchmarks/BASELINE_smoke.json`` decision counts both guard this);
* any :class:`~repro.runtime.transports.Transport` — the deterministic live
  lane (``run_live_scenario``): a per-recipient
  :class:`~repro.runtime.transports.LocalTransport`, bare or under a
  :class:`~repro.runtime.chaos.FaultyTransport`, schedules its deliveries
  back through :meth:`SimRuntime.call_after`.  With zero jitter it reaches
  the simulated lane's decisions, ledgers and fault counts exactly, which
  makes it the oracle the wall-clock lanes' transport stack is tested on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from repro.runtime.base import Runtime, TimerHandle
from repro.runtime.transports import Transport

if TYPE_CHECKING:  # pragma: no cover - type-checking only
    from repro.sim.events import Simulator
    from repro.sim.network import Network
    from repro.sim.tracing import TraceRecorder


class SimRuntime(Runtime):
    """Adapter presenting a :class:`Simulator` + a message fabric as a :class:`Runtime`.

    Parameters
    ----------
    sim:
        The discrete-event simulator providing time and timers.
    network:
        The message fabric: the partial-synchrony
        :class:`~repro.sim.network.Network`, or a
        :class:`~repro.runtime.transports.Transport` (bound to this runtime
        here, so its deliveries run on ``sim``).
    trace:
        Optional trace recorder, exposed as :attr:`trace` by convention.
    """

    __slots__ = ("sim", "network", "trace", "rng")

    def __init__(
        self,
        sim: "Simulator",
        network: Union["Network", Transport],
        trace: "TraceRecorder" = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.trace = trace
        self.rng = sim.rng
        if isinstance(network, Transport):
            network.bind(self)

    # ------------------------------------------------------------------
    # Time and timers
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

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
        """Point-to-point send through the fabric."""
        self.network.send(sender, recipient, payload)

    def broadcast(self, sender: int, payload: Any) -> None:
        """Broadcast (including self) through the fabric."""
        self.network.broadcast(sender, payload)

    def register(self, process: Any) -> None:
        """Register the process as a fabric endpoint."""
        self.network.register(process)

    @property
    def process_ids(self) -> Sequence[int]:
        """Sorted ids of all registered processes."""
        return self.network.process_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimRuntime(now={self.sim.now:.3f}, n={len(self.process_ids)})"
