"""Transport-level fault injection: where the model's adversary acts.

Latency lives in the transport, so :class:`FaultyTransport` decorates any
:class:`~repro.runtime.transports.Transport`, asks the
:class:`~repro.faults.delays.DelayModel` for each message's fate and
decides the arrival with
:meth:`~repro.faults.delays.NetworkConfig.delivery_time` — the one place a
delay model is imposed, on every lane.

Determinism contract: the context's delay stream
(``random.Random(schedule_seed)``) is consumed *only* by delay models — one
``propose_delay`` per non-self send, in send order, ascending recipient
within a broadcast — and a model's other coins come from its own
:meth:`~repro.faults.delays.DelayContext.stream`.  Over a
:class:`~repro.runtime.transports.LocalTransport` bound to the simulator
kernel (:class:`~repro.sim.events.Simulator`) a scenario therefore
replays event for event (``tests/data/lane_fingerprints.json`` pins 39 runs
captured on the fabric this stack replaced).  Wall clocks (and real TCP
latency underneath a schedule) break exact replay; there the schedule is an
approximation — see ``docs/runtimes.md``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.faults.delays import DelayContext, DelayModel, NetworkConfig, PendingSend
from repro.metrics.counters import Counters
from repro.runtime.transports import Transport

if TYPE_CHECKING:
    from repro.sim.events import Simulator


class FaultyTransport(Transport):
    """Fault decorator over any transport: delay, partition, drop, duplicate.

    Wraps an ``inner`` transport and intercepts every non-self ``send`` and
    ``broadcast``: the ``schedule`` (any
    :class:`~repro.faults.delays.DelayModel`) decides each message's fate —
    its delay, or its copies (dropped, duplicated) — and
    ``network.delivery_time`` bounds every proposed delay by the
    partial-synchrony envelope.  Partitions, targeted DoS, traffic-class
    throttles and loss all arrive this way, and each model counts itself
    into ``counters``.  ``FaultyTransport(inner, Lossy(), network)`` is
    transparent: every copy takes the fabric's own latency.

    Delivery mechanics depend on the inner transport: transports exposing
    ``send_grouped`` (``LocalTransport``) get exact scheduling with
    truthful envelope ``deliver_time``, a broadcast's deliveries grouped by
    arrival; any other transport (``TcpTransport``, ``ShmTransport``) is
    approximated by holding the send itself for the proposed delay — real
    network latency then adds on top, and a copy that never arrives is
    never minted (the frame never exists).

    Listener lists are shared with the inner transport, and its totals
    (messages sent and delivered, frames) stay there, so
    ``MetricsCollector.attach_transport`` observes a wrapped transport
    exactly as an unwrapped one.  A socket or ring node's ``pid`` offsets
    the context's streams, so the nodes of a cluster draw different ones.
    """

    def __init__(
        self,
        inner: Transport,
        schedule: DelayModel,
        network: NetworkConfig,
        schedule_seed: int = 0,
        counters: Optional[Counters] = None,
    ) -> None:
        # Deliberately no super().__init__(): counters, listener lists and
        # message ids all belong to the inner transport — one accounting
        # surface, whether or not the transport is wrapped.
        self._inner = inner
        self._runtime: Optional[Simulator] = None
        self.send_listeners = inner.send_listeners
        self.deliver_listeners = inner.deliver_listeners
        self.schedule = schedule
        self.network = network
        self.counters = counters if counters is not None else Counters()
        self._ctx = DelayContext(
            random.Random(schedule_seed), self.counters, getattr(inner, "pid", 0)
        )
        self._send_grouped = getattr(inner, "send_grouped", None)
        #: The fabric's own latency, for copies a model leaves at ``None``:
        #: the in-memory transport's constant delay; ``None`` (forward now)
        #: on a socket or ring, whose latency is real.
        self._fabric_delay = None if self._send_grouped is None else inner.delay

    # -- wiring --------------------------------------------------------
    @property
    def inner(self) -> Transport:
        """The wrapped transport."""
        return self._inner

    def bind(self, runtime: Simulator) -> None:
        """Bind the wrapper and the inner transport."""
        self._runtime = runtime
        self._inner.bind(runtime)

    def register(self, process: Any) -> None:
        """Register on the inner transport (the delivery endpoints live there)."""
        self._inner.register(process)

    @property
    def process_ids(self) -> Sequence[int]:
        """The inner transport's membership."""
        return self._inner.process_ids

    async def start(self) -> None:
        """Start the inner transport's I/O."""
        await self._inner.start()

    async def stop(self) -> None:
        """Stop the inner transport's I/O."""
        await self._inner.stop()

    # -- the injection point -------------------------------------------
    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Shape, drop or duplicate one message on its way into ``inner``."""
        inner = self._inner
        if sender == recipient:
            # Self-messages are immediate on every runtime (the paper's
            # convention) and never consult the schedule.
            inner.send(sender, recipient, payload)
            return
        sends: list[tuple[int, Optional[float], bool]] = []
        self._shape(sender, recipient, payload, sends)
        if self._send_grouped is not None:
            self._send_grouped(sender, payload, sends)
            return
        # Hold-then-forward (socket and ring lanes): the schedule delays the
        # *send*; real network latency adds on top.  Approximate by design.
        # A copy that never arrives never exists here.
        for _, delay, arrives in sends:
            if arrives and delay is None:
                inner.send(sender, recipient, payload)
            elif arrives:
                self.runtime.call_after(delay, inner.send, sender, recipient, payload)

    def broadcast(self, sender: int, payload: Any, include_self: bool = True) -> None:
        """Shape a broadcast recipient by recipient, in ascending id order —
        the draws of the per-recipient loop — and hand an inner transport
        that can group deliveries the whole of it."""
        if self._send_grouped is None:
            super().broadcast(sender, payload, include_self)
            return
        sends: list[tuple[int, Optional[float], bool]] = []
        for pid in self.process_ids:
            if pid != sender:
                self._shape(sender, pid, payload, sends)
            elif include_self:
                sends.append((pid, 0.0, True))
        self._send_grouped(sender, payload, sends)

    def _shape(
        self,
        sender: int,
        recipient: int,
        payload: Any,
        sends: list[tuple[int, Optional[float], bool]],
    ) -> None:
        """Ask the schedule for one non-self message's fate and append its
        copies to ``sends`` as ``(recipient, delay, arrives)``.  A copy's
        ``None`` delay is the fabric's own latency."""
        config = self.network
        now = self.runtime.now
        pending = PendingSend(sender, recipient, payload, now, now >= config.gst)
        fate = self.schedule.propose_delay(pending, self._ctx)
        if not isinstance(fate, tuple):
            sends.append((recipient, config.delivery_time(now, fate) - now, True))
            return
        for delay, arrives in fate:
            if delay is None:
                delay = self._fabric_delay
            else:
                delay = config.delivery_time(now, delay) - now
            sends.append((recipient, delay, arrives))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultyTransport(inner={type(self._inner).__name__}, "
            f"schedule={self.schedule.describe()}, counters={self.counters!r})"
        )
