"""Transport-level fault injection: where the model's adversary acts.

The network adversary is a :class:`~repro.sim.network.DelayModel`, and
latency lives in the transport — so this module decorates any
:class:`~repro.runtime.transports.Transport` with a
:class:`FaultyTransport` that asks the schedule for each message's delay,
hands it the run's :class:`~repro.sim.network.DelayContext`, and decides
the arrival with :meth:`~repro.sim.network.NetworkConfig.delivery_time`
(plus drop/duplicate injectors, which the paper's model has no analogue
for).  It is the one place a schedule is imposed, on every lane.

Determinism contract: the schedule's RNG (``random.Random(schedule_seed)``)
is consumed *only* by delay models — one ``propose_delay`` per non-self
send, in send order, ascending recipient within a broadcast — and the
injectors draw from their own.  On the simulator kernel
(:class:`~repro.runtime.simulation.SimRuntime` over a zero-jitter
:class:`~repro.runtime.transports.LocalTransport`) a scenario therefore
replays event for event (``tests/data/lane_fingerprints.json`` pins 39 runs
captured on the fabric this stack replaced).  Wall clocks (and real TCP
latency underneath a schedule) break exact replay; there the schedule is an
approximation — see ``docs/runtimes.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import ConfigurationError
from repro.runtime.base import Runtime
from repro.runtime.transports import Transport
from repro.sim.network import (
    BASE_FAULT_COUNTS,
    Counters,
    DelayContext,
    DelayModel,
    NetworkConfig,
    PendingSend,
)

__all__ = ["BASE_FAULT_COUNTS", "ChaosConfig", "Counters", "FaultyTransport"]


# ----------------------------------------------------------------------
# Injector knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosConfig:
    """Transport injector knobs the paper's model has no analogue for.

    Drop and duplicate injectors draw from their own seeded RNG (never from
    the schedule stream), so enabling them perturbs delivery without
    perturbing the schedule's draws; at the default zero rates no injector
    RNG is consumed at all.
    """

    #: Probability a non-self message is minted but never delivered.
    drop_rate: float = 0.0
    #: Probability a non-self message is delivered twice.
    duplicate_rate: float = 0.0
    #: Seed of the injector RNG (independent of the schedule stream).
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {rate}")

    @property
    def active(self) -> bool:
        """Whether any injector can fire."""
        return self.drop_rate > 0.0 or self.duplicate_rate > 0.0

    def describe(self) -> str:
        """Parameter-faithful description (folded into live cache salts)."""
        return f"drop={self.drop_rate!r},dup={self.duplicate_rate!r},seed={self.seed}"


# ----------------------------------------------------------------------
# The transport decorator
# ----------------------------------------------------------------------
class FaultyTransport(Transport):
    """Chaos decorator over any transport: drop, delay, duplicate, partition.

    Wraps an ``inner`` transport and intercepts every ``send`` and
    ``broadcast``:

    * a ``schedule`` (any :class:`~repro.sim.network.DelayModel`) proposes
      each non-self message's latency and ``network.delivery_time`` decides
      the arrival — partitions, targeted DoS and traffic-class throttles
      all arrive this way, since they are delay models over (time,
      topology, class), and each counts itself into ``counters``;
    * drop and duplicate injectors (see :class:`ChaosConfig` rates) fire
      from a separate seeded RNG;
    * everything the chaos layer does lands in ``counters``.

    Delivery mechanics depend on the inner transport: transports exposing
    ``send_grouped`` (``LocalTransport``) get exact scheduling with
    truthful envelope ``deliver_time``, a broadcast's deliveries grouped by
    arrival; any other transport (``TcpTransport``) is approximated by
    holding the send itself for the proposed delay — real network latency
    then adds on top, and dropped messages are never minted (the frame
    never exists).  With no schedule and zero rates the wrapper is
    transparent: ``send`` delegates verbatim.

    Listener lists are shared with the inner transport, and its totals
    (messages sent and delivered, frames) stay there, so
    ``MetricsCollector.attach_transport`` observes a wrapped transport
    exactly as an unwrapped one.
    """

    def __init__(
        self,
        inner: Transport,
        schedule: Optional[DelayModel] = None,
        network: Optional[NetworkConfig] = None,
        schedule_seed: int = 0,
        chaos: Optional[ChaosConfig] = None,
        counters: Optional[Counters] = None,
    ) -> None:
        # Deliberately no super().__init__(): counters, listener lists and
        # message ids all belong to the inner transport — one accounting
        # surface, whether or not the transport is wrapped.
        if schedule is not None and network is None:
            raise ConfigurationError(
                "a schedule needs the NetworkConfig whose gst/delta/min_delay "
                "envelope bounds its proposals"
            )
        self._inner = inner
        self._runtime: Optional[Runtime] = None
        self.send_listeners = inner.send_listeners
        self.deliver_listeners = inner.deliver_listeners
        self.schedule = schedule
        self.network = network
        self.chaos = chaos if chaos is not None else ChaosConfig()
        self.counters = counters if counters is not None else Counters()
        self._ctx = DelayContext(random.Random(schedule_seed), self.counters)
        self._injector_rng = random.Random(self.chaos.seed)
        self._send_grouped = getattr(inner, "send_grouped", None)
        self._draw_delay = getattr(inner, "draw_delay", None)

    # -- wiring --------------------------------------------------------
    @property
    def inner(self) -> Transport:
        """The wrapped transport."""
        return self._inner

    @property
    def transparent(self) -> bool:
        """Whether sends delegate verbatim (no schedule, zero rates)."""
        return self.schedule is None and not self.chaos.active

    def bind(self, runtime: Runtime) -> None:
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
        if sender == recipient or self.transparent:
            # Self-messages are immediate on every runtime (the paper's
            # convention) and never consult schedules or injectors.
            inner.send(sender, recipient, payload)
            return
        sends: list[tuple[int, float, bool]] = []
        self._shape(sender, recipient, payload, sends)
        if self._send_grouped is not None:
            self._send_grouped(sender, payload, sends)
            return
        # Hold-then-forward (TCP lane): the schedule delays the *send*;
        # real network latency adds on top.  Approximate by design.  A
        # dropped frame never exists here, and neither does its duplicate.
        _, delay, delivered = sends[0]
        if delivered:
            for _ in sends:
                self.runtime.call_after(delay, inner.send, sender, recipient, payload)

    def broadcast(self, sender: int, payload: Any, include_self: bool = True) -> None:
        """Shape a broadcast recipient by recipient, in ascending id order —
        the schedule and injector draws of the per-recipient loop — and hand
        an inner transport that can group deliveries the whole of it."""
        if self._send_grouped is None or self.transparent:
            super().broadcast(sender, payload, include_self)
            return
        sends: list[tuple[int, float, bool]] = []
        for pid in self.process_ids:
            if pid != sender:
                self._shape(sender, pid, payload, sends)
            elif include_self:
                sends.append((pid, 0.0, True))
        self._send_grouped(sender, payload, sends)

    def _shape(
        self, sender: int, recipient: int, payload: Any, sends: list[tuple[int, float, bool]]
    ) -> None:
        """Decide one non-self message's fate and append it to ``sends`` as
        ``(recipient, delay, deliver)``: once, undelivered when dropped,
        twice when duplicated."""
        delay = self._delay_for(sender, recipient, payload)
        chaos = self.chaos
        dropped = (
            chaos.drop_rate > 0.0 and self._injector_rng.random() < chaos.drop_rate
        )
        duplicated = (
            chaos.duplicate_rate > 0.0
            and self._injector_rng.random() < chaos.duplicate_rate
        )
        sends.append((recipient, delay, not dropped))
        if dropped:
            self.counters.bump("drops")
        if duplicated:
            sends.append((recipient, delay, True))
            self.counters.bump("duplicates")

    def _delay_for(self, sender: int, recipient: int, payload: Any) -> float:
        """One message's latency: schedule under the envelope, else inner's own."""
        if self.schedule is None:
            # Injectors over the inner transport's native latency: consume
            # its own delay draw so accounting (and jitter streams) match an
            # unwrapped send.
            return self._draw_delay(sender, recipient) if self._draw_delay else 0.0
        config = self.network
        now = self.runtime.now
        pending = PendingSend(sender, recipient, payload, now, now >= config.gst)
        proposed = self.schedule.propose_delay(pending, self._ctx)
        return config.delivery_time(now, proposed) - now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        schedule = self.schedule.describe() if self.schedule else None
        return (
            f"FaultyTransport(inner={type(self._inner).__name__}, "
            f"schedule={schedule}, chaos=({self.chaos.describe()}), "
            f"counters={self.counters!r})"
        )
