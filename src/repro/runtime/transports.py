"""Transports: the message fabric beneath a runtime.

A :class:`Transport` owns addressing (``process_ids``), endpoint
registration and the actual movement of payloads; the runtime delegates
:meth:`~repro.runtime.base.Runtime.send` / ``broadcast`` here.  Transports
mirror the observation surface of the simulated
:class:`~repro.sim.network.Network` — ``send_listeners`` /
``deliver_listeners`` called with an envelope per message, plus
``messages_sent`` / ``messages_delivered`` counters — so the metrics layer
attaches to a live transport exactly the way it attaches to a simulated
network (:meth:`~repro.metrics.collector.MetricsCollector.attach_transport`).

Two implementations ship:

* :class:`LocalTransport` (here) — in-memory, single-runtime: the whole
  cluster lives on one runtime.  Per-message latency is
  ``delay + U(0, jitter)`` drawn from a transport-local seeded RNG, so runs
  are deterministic on the simulator kernel
  (:class:`~repro.runtime.simulation.SimRuntime`); with zero jitter it
  reproduces a ``FixedDelay`` simulation exactly.
* :class:`~repro.runtime.tcp.TcpTransport` — one node of a real cluster,
  length-prefixed frames (binary by default, JSON via ``codec="json"``)
  over ``asyncio`` TCP streams.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.runtime.base import Runtime


class TransportEnvelope(NamedTuple):
    """One in-flight message as observed by transport listeners.

    Field-compatible with the simulator's
    :class:`~repro.sim.network.Envelope` (the metrics collector duck-types
    over either).  ``deliver_time`` is the *scheduled* delivery time for
    local transports and the send time for TCP (real network latency is not
    known at send time); ``payload_digest`` is ``None`` unless the transport
    has a crypto backend attached.
    """

    msg_id: int
    sender: int
    recipient: int
    payload: Any
    send_time: float
    deliver_time: float
    payload_digest: Optional[str] = None

    @property
    def is_self_message(self) -> bool:
        """Whether the message was sent by a processor to itself."""
        return self.sender == self.recipient


class Transport(ABC):
    """Base class of all live-message fabrics.

    Subclasses implement :meth:`send` (and usually override
    :meth:`broadcast` only when they can do better than a send-per-peer
    loop) plus the async :meth:`start` / :meth:`stop` lifecycle for real
    I/O resources.  The shared machinery here handles listener fan-out,
    counters and envelope minting.
    """

    def __init__(self) -> None:
        self.send_listeners: list[Callable[[TransportEnvelope], None]] = []
        self.deliver_listeners: list[Callable[[TransportEnvelope], None]] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self._msg_ids = itertools.count()
        self._runtime: Optional[Runtime] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, runtime: Runtime) -> None:
        """Attach the runtime whose clock and scheduler deliveries use."""
        self._runtime = runtime

    @property
    def runtime(self) -> Runtime:
        """The bound runtime (raises if the transport is not bound yet)."""
        if self._runtime is None:
            raise ConfigurationError(
                f"{type(self).__name__} is not bound to a runtime yet; construct "
                "a SimRuntime or an AsyncioRuntime around it first"
            )
        return self._runtime

    @abstractmethod
    def register(self, process: Any) -> None:
        """Attach a locally hosted process as a delivery endpoint."""

    @property
    @abstractmethod
    def process_ids(self) -> Sequence[int]:
        """Sorted ids of every addressable processor, local and remote."""

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    @abstractmethod
    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Move ``payload`` from ``sender`` to ``recipient``."""

    def broadcast(self, sender: int, payload: Any, include_self: bool = True) -> None:
        """Send ``payload`` to every processor, in ascending id order.

        The id order matters for determinism: on the simulator kernel the
        per-recipient jitter draws and delivery-event sequence numbers
        follow this loop, matching the simulated network's convention.
        """
        for pid in self.process_ids:
            if include_self or pid != sender:
                self.send(sender, pid, payload)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bring up I/O resources (servers, connections).  Default: no-op."""

    async def stop(self) -> None:
        """Tear down I/O resources.  Default: no-op."""

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _mint(
        self, sender: int, recipient: int, payload: Any, deliver_time: float
    ) -> TransportEnvelope:
        """Create the envelope, bump counters and notify send listeners."""
        now = self.runtime.now
        envelope = TransportEnvelope(
            next(self._msg_ids), sender, recipient, payload, now, deliver_time
        )
        self.messages_sent += 1
        for listener in self.send_listeners:
            listener(envelope)
        return envelope

    def _delivered(self, envelope: TransportEnvelope, process: Any) -> None:
        """Notify deliver listeners and hand the payload to the process."""
        self.messages_delivered += 1
        for listener in self.deliver_listeners:
            listener(envelope)
        process.deliver(envelope.payload, envelope.sender)


class LocalTransport(Transport):
    """In-memory transport: the whole cluster on one runtime.

    Parameters
    ----------
    delay:
        Base latency applied to every message between *distinct* processors
        (self-messages are always immediate, the paper's convention).
    jitter:
        Width of the uniform jitter band added to ``delay``; each message
        draws ``U(0, jitter)`` from the transport's own seeded RNG, so a
        given ``(seed, send order)`` always yields the same latencies —
        deterministic replay on the simulator kernel, reproducible noise
        under a wall clock.
    seed:
        Seed of the jitter RNG.
    """

    def __init__(self, delay: float = 0.0, jitter: float = 0.0, seed: int = 0) -> None:
        super().__init__()
        if delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        if jitter < 0:
            raise ConfigurationError(f"jitter must be non-negative, got {jitter}")
        self.delay = delay
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._processes: dict[int, Any] = {}
        self._sorted_ids: tuple[int, ...] = ()

    def register(self, process: Any) -> None:
        """Register a process; ids must be unique and never unregister."""
        pid = process.pid
        if pid in self._processes:
            raise SimulationError(f"process id {pid} registered twice")
        self._processes[pid] = process
        self._sorted_ids = tuple(sorted(self._processes))

    @property
    def process_ids(self) -> Sequence[int]:
        """Sorted ids of all registered processes."""
        return self._sorted_ids

    def draw_delay(self, sender: int, recipient: int) -> float:
        """The latency this transport would apply to one message, drawn now.

        Consumes one jitter draw when jitter is configured, exactly as
        :meth:`send` would — callers that use the returned value with
        :meth:`send_with_delay` keep the RNG stream identical to an
        unwrapped transport.
        """
        if sender == recipient:
            return 0.0
        delay = self.delay
        if self.jitter:
            delay += self._rng.uniform(0.0, self.jitter)
        return delay

    def send_with_delay(
        self,
        sender: int,
        recipient: int,
        payload: Any,
        delay: float,
        deliver: bool = True,
    ) -> TransportEnvelope:
        """Send with an exact caller-imposed latency (the chaos-layer seam).

        Mints the envelope (counters and send listeners fire as usual, with
        the true ``deliver_time``) and schedules delivery ``delay`` seconds
        out.  ``deliver=False`` mints without scheduling — the envelope was
        sent but never arrives, which is how a drop injector keeps the
        sender-side accounting honest.
        """
        process = self._processes.get(recipient)
        if process is None:
            raise SimulationError(f"unknown recipient {recipient}")
        envelope = self._mint(sender, recipient, payload, self.runtime.now + delay)
        if deliver:
            self.runtime.call_after(delay, self._delivered, envelope, process)
        return envelope

    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Schedule an in-memory delivery through the runtime's timer lane."""
        self.send_with_delay(
            sender, recipient, payload, self.draw_delay(sender, recipient)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalTransport(n={len(self._processes)}, delay={self.delay}, "
            f"jitter={self.jitter}, sent={self.messages_sent})"
        )
