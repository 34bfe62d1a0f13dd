"""Transports: the message fabric beneath a runtime.

A :class:`Transport` owns addressing (``process_ids``), endpoint
registration and the actual movement of payloads; the runtime delegates
:meth:`~repro.runtime.base.Runtime.send` / ``broadcast`` here.  Every
transport has one observation surface — ``send_listeners`` /
``deliver_listeners`` called with an :class:`Envelope`
per message, plus ``messages_sent`` / ``messages_delivered`` counters —
which is what the metrics layer attaches to
(:meth:`~repro.metrics.collector.MetricsCollector.attach_transport`).

Two implementations ship:

* :class:`LocalTransport` (here) — in-memory, single-runtime: the whole
  cluster lives on one runtime, every message between distinct processors
  takes one constant ``delay`` (noise is a delay model's business:
  :class:`~repro.faults.transport.FaultyTransport`).  On the simulator
  kernel (:class:`~repro.runtime.simulation.SimRuntime`) this is the
  virtual-time lane, and one broadcast costs one runtime event per distinct
  delivery time.
* :class:`~repro.runtime.tcp.TcpTransport` — one node of a real cluster,
  length-prefixed frames (:mod:`repro.runtime.codec`) over ``asyncio`` TCP
  streams.

:class:`FramedTransport` (here) is what the frame-moving transports — TCP
and the shared-memory :class:`~repro.runtime.shm.ShmTransport` — have in
common, including the TCP readers' decode (once per process for the
transports that share a codec there; a shm worker's one drain decodes each
frame once by construction) and the one place a frame that fails to decode
is counted.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.runtime.base import Runtime
from repro.runtime.codec import WireCodec, WireCodecError, default_codec


class Envelope(NamedTuple):
    """A single point-to-point message in flight.

    Tuple-backed (``NamedTuple``) rather than a frozen dataclass: one
    envelope is allocated per delivery, and the frozen-dataclass ``__init__``
    (one guarded ``object.__setattr__`` per field) was the single largest
    allocation cost of the send path — tuple construction is one C call,
    ~4x cheaper, while staying immutable with named-field access.

    Attributes
    ----------
    msg_id:
        Unique, monotonically increasing id assigned by the transport.
    sender, recipient:
        Processor ids of the two endpoints.
    payload:
        The message content, delivered verbatim.
    send_time:
        Time the message was sent, on the runtime's clock.
    deliver_time:
        Time the message is scheduled to be delivered — the send time on
        the socket and shared-memory transports, whose latency is not known
        when the envelope is minted.
    """

    msg_id: int
    sender: int
    recipient: int
    payload: Any
    send_time: float
    deliver_time: float

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
        self.send_listeners: list[Callable[[Envelope], None]] = []
        self.deliver_listeners: list[Callable[[Envelope], None]] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        #: Inbound frame bodies run through a codec: stays zero on a
        #: transport that moves objects, and below the frames received
        #: wherever co-located transports share a decode
        #: (:meth:`FramedTransport._decode`, a shm worker's drain).
        self.frames_decoded = 0
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
        per-recipient delay draws and delivery-event sequence numbers
        follow this loop.  This per-recipient form is what every socket
        lane runs, and the reference a transport that groups a broadcast's
        deliveries (:meth:`LocalTransport.send_grouped`) is tested against.
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
        self, sender: int, recipient: int, payload: Any, now: float, deliver_time: float
    ) -> Envelope:
        """Create the envelope, bump counters and notify send listeners.

        ``now`` is the caller's one reading of the runtime clock for this
        send: the envelope's ``send_time``, and what ``deliver_time`` was
        derived from.
        """
        envelope = Envelope(
            next(self._msg_ids), sender, recipient, payload, now, deliver_time
        )
        self.messages_sent += 1
        for listener in self.send_listeners:
            listener(envelope)
        return envelope

    def _delivered(self, envelope: Envelope, process: Any) -> None:
        """Notify deliver listeners and hand the payload to the process."""
        self.messages_delivered += 1
        for listener in self.deliver_listeners:
            listener(envelope)
        process.deliver(envelope.payload, envelope.sender)


class FramedTransport(Transport):
    """One node of a cluster whose peers are reached through encoded frames.

    The half :class:`~repro.runtime.tcp.TcpTransport` and
    :class:`~repro.runtime.shm.ShmTransport` share: the wire codec, the one
    hosted process and the peer map, loopback delivery, the
    ``frames_dropped`` / ``frames_rejected`` / ``last_errors`` accounting
    the metrics layer and :class:`~repro.faults.transport.FaultyTransport`
    read, the decode of an inbound TCP frame body (:meth:`_decode`) and the
    rejection of one that fails to decode (:meth:`_reject`).

    Parameters
    ----------
    pid:
        The processor id of the (single) local process this node hosts.
    codec:
        The :class:`~repro.runtime.codec.WireCodec` frames are encoded and
        decoded with; the shared :func:`~repro.runtime.codec.default_codec`
        when omitted.  All nodes of one cluster must register the same
        classes in the same order.
    """

    def __init__(self, pid: int, codec: Optional[WireCodec] = None) -> None:
        super().__init__()
        self.pid = pid
        self.codec = codec if codec is not None else default_codec()
        #: Frames this node lost: a writer that exhausted its connect window
        #: died holding them, or an outbound ring was full.  Read into a
        #: run's counts by ``MetricsCollector.attach_transport``, so a
        #: silently lost frame always leaves a trace in ``RunMetrics``.
        self.frames_dropped = 0
        #: Inbound frames that failed to decode (:meth:`_reject`).
        self.frames_rejected = 0
        #: Errors surfaced instead of swallowed (``{where}: {error!r}``
        #: strings); clusters aggregate them into ``teardown_errors``.
        self.last_errors: list[str] = []
        self._peers: dict[int, tuple[str, int]] = {}
        self._sorted_ids: tuple[int, ...] = (pid,)
        self._process: Any = None
        self._shares_frames = False

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def register(self, process: Any) -> None:
        """Attach the node's local process (exactly one per transport)."""
        if process.pid != self.pid:
            raise ConfigurationError(
                f"{type(self).__name__} for pid {self.pid} cannot host process "
                f"{process.pid}; one transport per node"
            )
        if self._process is not None:
            raise SimulationError(f"process id {self.pid} registered twice")
        self._process = process

    def set_peers(self, peers: Mapping[int, tuple[str, int]]) -> None:
        """Install the full ``pid -> address`` map (own entry ignored)."""
        self._peers = {pid: tuple(addr) for pid, addr in peers.items() if pid != self.pid}
        self._sorted_ids = tuple(sorted({self.pid, *self._peers}))

    @property
    def process_ids(self) -> Sequence[int]:
        """Sorted ids of the whole cluster (self plus peers)."""
        return self._sorted_ids

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _share_frames(self, sharing: bool) -> None:
        """Join (on start) or leave (on stop) the transports of this process
        that decode with :attr:`codec`.  Idempotent."""
        if sharing != self._shares_frames:
            self._shares_frames = sharing
            if sharing:
                self.codec.frames.attach()
            else:
                self.codec.frames.detach()

    def _deliver_local(self, sender: int, payload: Any, now: float) -> None:
        """Immediate loopback delivery to the hosted process."""
        envelope = self._mint(sender, self.pid, payload, now, now)
        if self._process is None:
            return
        self.runtime.call_after(0.0, self._delivered, envelope, self._process)

    def _decode(self, body: Any) -> tuple[int, Any]:
        """``(sender, payload)`` of one inbound TCP frame body.

        A process hosting several transports on one codec — every replica
        of a shard — sees a broadcast's frame once per local recipient, byte
        for byte.  The first of them decodes it; the others take the same
        immutable payload from the codec's
        :class:`~repro.runtime.codec.FrameMemo`, so the frame costs the
        process one decode and its ``Block`` one ``block_id`` hash.  A
        transport alone on its codec decodes ``body`` where it lies and
        never sees the memo.  A body that fails to decode raises
        :class:`WireCodecError` for each recipient, which rejects it
        (:meth:`_reject`), and is not remembered.  (A shm worker needs no
        memo: its drain decodes each frame once for all its recipients.)
        """
        frames = self.codec.frames
        if frames.sharers < 2:
            self.frames_decoded += 1
            return self.codec.decode_body(body)
        body = bytes(body)
        decoded = frames.get(body)
        if decoded is None:
            self.frames_decoded += 1
            decoded = self.codec.decode_body(body)
            frames.put(body, decoded)
        return decoded

    def _reject(self, where: str, error: WireCodecError) -> None:
        """Count and record one inbound frame that failed to decode.

        Every framed lane ends a malformed frame here: in ``frames_rejected``
        (a run's ``counts``) and in :attr:`last_errors`.  What happens to the
        stream is the lane's call — TCP drops the connection, a ring consumes
        the frame and reads on.
        """
        self.frames_rejected += 1
        self.last_errors.append(f"{where}->{self.pid}: {error!r}")

    def _receive(self, sender: int, payload: Any) -> None:
        """Hand one decoded inbound frame to the hosted process."""
        now = self.runtime.now
        envelope = Envelope(
            next(self._msg_ids), sender, self.pid, payload, now, now
        )
        self.runtime.events_processed += 1
        self._delivered(envelope, self._process)


class LocalTransport(Transport):
    """In-memory transport: the whole cluster on one runtime.

    Parameters
    ----------
    delay:
        Latency of every message between *distinct* processors
        (self-messages are always immediate, the paper's convention).  A
        :class:`~repro.faults.transport.FaultyTransport` reads it as the
        fabric's own latency.
    """

    def __init__(self, delay: float = 0.0) -> None:
        super().__init__()
        if delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        self.delay = delay
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

    def send_grouped(
        self, sender: int, payload: Any, sends: Iterable[tuple[int, float, bool]]
    ) -> None:
        """Send ``payload`` once per ``(recipient, delay, deliver)`` entry.

        The transport's one send primitive, and the fault layer's seam: each
        entry mints an envelope in ``sends`` order (counters and send
        listeners fire as usual, with the true ``deliver_time``) that
        arrives exactly ``delay`` seconds out.  ``deliver=False`` mints
        without delivering — the message was sent but never arrives, which
        is how a dropped copy keeps the sender-side accounting honest.

        Entries that share a delay share one runtime event, whose callback
        hands the payload to each recipient in ``sends`` order.  That is
        the order one event per entry would have fired in (equal time,
        ascending insertion sequence, and nothing else is scheduled between
        the entries of one call), so grouping changes the number of events
        and nothing a process, a listener or an RNG can see.
        """
        now = self.runtime.now
        processes = self._processes
        mint = self._mint
        # delay -> (delivery time, envelopes to deliver then): the entries of
        # one group share one float, not one each.
        groups: dict[float, tuple[float, list[Envelope]]] = {}
        for recipient, delay, deliver in sends:
            if recipient not in processes:
                raise SimulationError(f"unknown recipient {recipient}")
            group = groups.get(delay)
            if group is None:
                group = groups[delay] = (now + delay, [])
            envelope = mint(sender, recipient, payload, now, group[0])
            if deliver:
                group[1].append(envelope)
        call_after = self.runtime.call_after
        for delay, (_, group) in groups.items():
            if group:
                call_after(delay, self._deliver_group, group)

    def _deliver_group(self, envelopes: Sequence[Envelope]) -> None:
        processes = self._processes
        for envelope in envelopes:
            self._delivered(envelope, processes[envelope.recipient])

    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Schedule an in-memory delivery through the runtime's timer lane."""
        delay = 0.0 if sender == recipient else self.delay
        self.send_grouped(sender, payload, ((recipient, delay, True),))

    def broadcast(self, sender: int, payload: Any, include_self: bool = True) -> None:
        """Send to every processor in ascending id order, grouping the
        deliveries: one runtime event per distinct delay (the self-copy's
        and the peers')."""
        delay = self.delay
        self.send_grouped(
            sender,
            payload,
            [
                (pid, 0.0 if pid == sender else delay, True)
                for pid in self._sorted_ids
                if include_self or pid != sender
            ],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalTransport(n={len(self._processes)}, delay={self.delay}, "
            f"sent={self.messages_sent})"
        )
