"""``ShmTransport``: shared-memory message fabric for co-located node processes.

A process-placement :class:`~repro.runner.process_cluster.LiveCluster` with
``transport="tcp"`` pays localhost-TCP syscalls, length-prefix framing and
at least two full buffer copies for every frame exchanged between processes
that live on the *same machine*.  This module replaces that path with
fixed-size **SPSC ring buffers, one per (sender pid, reading worker)**,
backed by :class:`multiprocessing.shared_memory.SharedMemory`.  A *reading
worker* of a sender is any worker process that hosts a pid other than the
sender, so a cluster of n pids in P workers has n × P rings at most (n when
every replica shares one worker, n(n − 1) at one worker per pid):

* a frame carries a **recipient tag** — one pid, or every pid of the reading
  worker but the sender — so a broadcast is one push per reading worker
  (one push in all when the replicas share a worker) and a unicast is one
  push into the ring of its recipient's worker;
* the producer encodes a frame straight into a reusable staging buffer
  (:meth:`~repro.runtime.codec.WireCodec.encode_into`, no intermediate
  ``bytes``) and copies it into the ring **once**;
* each worker reads through one :class:`ShmEndpoint`, whose one drain sweeps
  every inbound ring of the worker and decodes each frame **once**, in place
  from a ``memoryview`` over the ring, before handing the payload to each
  local recipient — a broadcast costs its worker one decode by
  construction, and a ring is never skipped through for another worker's
  frames;
* in steady state neither side makes a single syscall per frame — the ring
  is plain memory shared by two processes.

Idle workers must not burn CPU, so delivery is **doorbell-driven, one
doorbell per worker**: the endpoint binds a nonblocking **UDP doorbell**
socket, whose address every pid of the worker reports in the same bootstrap
address-exchange as a TCP port, and the doorbell's ``add_reader`` callback
drains the rings synchronously — the same shape as the TCP reader's
``data_received``, with no pump task and no per-wake allocations; the event
loop simply blocks in its selector between bursts.  A frame a co-located
replica pushes *during* a drain is picked up by the next sweep of the same
callback.  Only when a whole sweep of the worker's rings comes back empty
does the endpoint raise the *sleeping* flag in each inbound ring's header,
then re-check once (closing the race with a producer that pushed after the
last sweep but read the flag before it rose).  A producer that observes the
flag clears it and rings the reader's doorbell — a datagram to another
worker, a scheduled drain in its own — and the woken reader lowers every
flag before it sweeps, so a burst costs each worker one doorbell, not one
per push.  A coarse :attr:`ShmEndpoint.WAKE_TIMEOUT` re-check timer
backstops the handshake: x86-64 gives no store-load barrier between
"producer stores frame, loads flag" and "consumer stores flag, loads write
index", so a poke can in principle be missed — the timer bounds the hiccup
instead of hanging the link.

Overflow is accounted, never blocking: a frame that does not fit is dropped
on the producer side, counted in :attr:`ShmTransport.frames_dropped` (the
same counter the metrics layer folds into a run's fault counts for TCP) and
surfaced once per ring in :attr:`ShmTransport.last_errors`.

Lifecycle: the **parent** (the ``LiveCluster`` coordinator) creates every
segment before forking workers (:func:`create_cluster_rings`) and is the
only process that ever unlinks them (:func:`destroy_cluster_rings`).  Workers
attach by deterministic name (:func:`attach_ring`).  Creating the first
segment starts the parent's :mod:`multiprocessing.resource_tracker`
process before any fork, so every forked worker inherits its connection
to that one tracker: attach-side registrations deduplicate against the
parent's and the parent's ``unlink`` retires them — workers must *not*
unregister, which would yank the parent's own registration out of the
shared tracker.  A parent killed outright leaves that tracker to unlink
the segments once the last worker has exited.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from multiprocessing.shared_memory import SharedMemory
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from repro.errors import ConfigurationError, SimulationError
from repro.runtime.codec import LENGTH_PREFIX_BYTES, WireCodec, WireCodecError, default_codec
from repro.runtime.transports import FramedTransport

if TYPE_CHECKING:
    from repro.runtime.wallclock import WallClockKernel
    from repro.sim.events import EventHandle

#: Bytes reserved at the front of every segment for the ring header.
#: Fields live on separate 64-byte lines so the producer-owned write index
#: and the consumer-owned read index never share a cache line.
RING_HEADER_BYTES = 256

#: Default data capacity of one ring (a protocol frame is typically well
#: under 1 KiB, so this buffers hundreds of frames).
DEFAULT_RING_BYTES = 256 * 1024

#: Smallest accepted ring capacity; anything less cannot hold a burst.
MIN_RING_BYTES = 4096

#: Recipient tag of a frame for every pid of its reading worker but the
#: sender (a broadcast); any other tag is the one recipient's pid.
EVERY_LOCAL = 0xFFFF


# The two indices are read by the *other* process while their owner updates
# them, so each must change in one aligned 8-byte store and be read in one
# load.  ``SpscRing._load`` / ``_store`` therefore go through a ``cast("Q")``
# view of the header (CPython copies a whole word per item access) — never
# ``struct.pack_into``, which zero-fills its destination before writing it,
# letting a reader on another core see index 0, decode stale bytes and never
# find a frame boundary again.
_WORD_WRITE = 0  # producer-owned monotonic write index (header word 0)
_WORD_READ = 8  # consumer-owned monotonic read index (byte offset 64)
_OFF_SLEEP = 128  # consumer-sleeping flag (1 byte)

_PREFIX = struct.Struct(">I")
assert _PREFIX.size == LENGTH_PREFIX_BYTES

# A ring frame is the ring's length prefix, the 2-byte recipient tag, then
# the codec's frame as :meth:`~repro.runtime.codec.WireCodec.encode_into`
# appends it (its own prefix included): a peeked body is the tag, and the
# codec body from ``_BODY_AT`` on.
_HEAD = struct.Struct(">IH")
_HEAD_ROOM = bytes(_HEAD.size)
_BODY_AT = _HEAD.size - _PREFIX.size + LENGTH_PREFIX_BYTES


class SpscRing:
    """Single-producer single-consumer byte ring over a shared-memory buffer.

    Layout: a :data:`RING_HEADER_BYTES` header (monotonic write index,
    monotonic read index, consumer-sleeping flag — the indices never wrap,
    so ``write - read`` is always the exact number of unread bytes) followed
    by ``capacity`` data bytes addressed modulo ``capacity``.  Frames are
    stored exactly as the codec emits them — 4-byte big-endian length prefix
    plus body — and either part may wrap around the end of the data region.

    One process may call :meth:`try_push`; a different (or the same) process
    may call :meth:`peek`/:meth:`consume`.  Each side caches its own index
    in Python and publishes it to the header for the other side, so a push
    costs one header load and one header store.
    """

    def __init__(self, buf: memoryview, capacity: int) -> None:
        self._buf = buf
        self._words = buf[:RING_HEADER_BYTES].cast("Q")
        self._data = buf[RING_HEADER_BYTES : RING_HEADER_BYTES + capacity]
        self.capacity = capacity
        self._w = self._load(_WORD_WRITE)
        self._r = self._load(_WORD_READ)
        #: Frames refused by :meth:`try_push` because the ring was full.
        self.dropped = 0
        self._pending = 0  # total bytes of the last peeked frame

    # ------------------------------------------------------------------
    # Header accessors: the only code that touches the shared indices
    # ------------------------------------------------------------------
    def _load(self, word: int) -> int:
        return self._words[word]

    def _store(self, word: int, value: int) -> None:
        self._words[word] = value

    @property
    def unread_bytes(self) -> int:
        """Bytes written but not yet consumed (either side may ask)."""
        return self._load(_WORD_WRITE) - self._load(_WORD_READ)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def try_push(self, frame: Union[bytes, bytearray, memoryview]) -> bool:
        """Copy one complete frame (prefix included) into the ring.

        Returns ``False`` — and counts the frame in :attr:`dropped` —
        when the frame does not fit in the free space; the ring is never
        blocked on and existing content is never overwritten.
        """
        n = len(frame)
        w = self._w
        cap = self.capacity
        if n > cap - (w - self._load(_WORD_READ)):
            self.dropped += 1
            return False
        pos = w % cap
        first = cap - pos
        if n <= first:
            self._data[pos : pos + n] = frame
        else:
            view = memoryview(frame)
            self._data[pos:] = view[:first]
            self._data[: n - first] = view[first:]
        # Data is in place before the index store publishes it (x86-64
        # preserves store order; CPython executes these sequentially).
        self._w = w + n
        self._store(_WORD_WRITE, self._w)
        return True

    def consumer_sleeping(self) -> bool:
        """Whether the consumer advertised it is parked on its doorbell."""
        return self._buf[_OFF_SLEEP] != 0

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def peek(self) -> Optional[Union[bytes, memoryview]]:
        """The next frame's body without consuming it, or ``None`` if empty.

        A contiguous body comes back as a ``memoryview`` straight into the
        ring — decode it *before* :meth:`consume`, which is what makes the
        read path zero-copy (the producer cannot overwrite unconsumed
        bytes).  A body that wraps the ring edge is assembled into a fresh
        ``bytes`` from its two slices.
        """
        r = self._r
        if self._load(_WORD_WRITE) == r:
            return None
        cap = self.capacity
        data = self._data
        pos = r % cap
        if pos + LENGTH_PREFIX_BYTES <= cap:
            length = _PREFIX.unpack_from(data, pos)[0]
        else:
            split = cap - pos
            length = int.from_bytes(
                bytes(data[pos:]) + bytes(data[: LENGTH_PREFIX_BYTES - split]),
                "big",
            )
        self._pending = LENGTH_PREFIX_BYTES + length
        body_pos = (pos + LENGTH_PREFIX_BYTES) % cap
        if body_pos + length <= cap:
            return data[body_pos : body_pos + length]
        split = cap - body_pos
        return bytes(data[body_pos:]) + bytes(data[: length - split])

    def consume(self) -> None:
        """Advance past the frame returned by the last :meth:`peek`."""
        self._r += self._pending
        self._pending = 0
        self._store(_WORD_READ, self._r)

    def set_sleeping(self, flag: bool) -> None:
        """Publish (or retract) the consumer's about-to-sleep advertisement."""
        self._buf[_OFF_SLEEP] = 1 if flag else 0

    def detach(self) -> None:
        """Release this ring's views so the segment can be closed."""
        self._data.release()
        self._words.release()
        self._buf.release()




# ----------------------------------------------------------------------
# Ring topology and segment lifecycle
# ----------------------------------------------------------------------
def ring_segment_name(token: str, src: int, worker: int) -> str:
    """Deterministic segment name of the ring from pid ``src`` into ``worker``.

    ``token`` is the cluster's shm namespace (minted once by the parent);
    both sides derive the same name independently, so no ring handle ever
    crosses the control pipe.
    """
    return f"repro-{token}-{src}-w{worker}"


def reading_workers(src: int, shards: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The workers pid ``src`` has a ring into: every worker (an index into
    ``shards``, each worker's pids) that hosts a pid other than ``src``."""
    return tuple(
        worker for worker, pids in enumerate(shards) if any(pid != src for pid in pids)
    )


def create_cluster_rings(
    token: str, shards: Sequence[Sequence[int]], ring_bytes: int
) -> list[SharedMemory]:
    """Create one segment per (sender pid, reading worker) (parent side).

    ``shards`` holds every worker's pids, in worker order.  The parent
    calls this before forking workers and keeps the returned handles; it
    is the sole owner of the segments' lifetime
    (:func:`destroy_cluster_rings`).
    """
    if ring_bytes < MIN_RING_BYTES:
        raise ConfigurationError(
            f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes}"
        )
    segments: list[SharedMemory] = []
    try:
        for pids in shards:
            for src in pids:
                for worker in reading_workers(src, shards):
                    segments.append(
                        SharedMemory(
                            name=ring_segment_name(token, src, worker),
                            create=True,
                            size=RING_HEADER_BYTES + ring_bytes,
                        )
                    )
    except Exception:
        destroy_cluster_rings(segments)
        raise
    return segments


def destroy_cluster_rings(segments: Sequence[SharedMemory]) -> None:
    """Close and unlink every segment, ignoring already-gone ones."""
    for segment in segments:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - views still exported
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def attach_ring(name: str) -> SharedMemory:
    """Attach an existing segment without adopting its lifetime (worker side).

    CPython's :mod:`multiprocessing.resource_tracker` registers shared
    memory on *attach* as well as on create — but a worker forked after
    :func:`create_cluster_rings` inherits the *parent's* tracker
    connection (the create started the tracker), whose registration cache
    is a set:
    the attach-side register deduplicates against the parent's create-side
    one, and the parent's ``unlink()`` retires it.  Unregistering here
    would remove the parent's registration from the shared tracker (and a
    second worker's unregister would raise ``KeyError`` inside the tracker
    process), so attaching is all this needs to do.
    """
    return SharedMemory(name=name, create=False)


# ----------------------------------------------------------------------
# One worker's end of the fabric
# ----------------------------------------------------------------------
class ShmEndpoint:
    """One worker's end of the shared-memory fabric: its doorbell, the rings
    it reads and fills, and the one drain that reads them.

    Each pid the worker hosts is a :class:`ShmTransport` over the endpoint
    (``ShmTransport(pid, endpoint)``); the transports bind, start and stop
    it, and every one of them reports its doorbell address.  The endpoint
    starts with the first of its transports to start and stops with the
    first to stop: the worker reads, and goes quiet, as one.

    Parameters
    ----------
    token:
        The cluster's shm namespace; all workers of one cluster must agree
        (the parent mints it and ships it through the shard spec).
    shards:
        Every worker's pids, in worker order — the ring topology the parent
        created the segments for (:func:`create_cluster_rings`).
    worker:
        This worker's index in ``shards``.
    codec:
        The :class:`~repro.runtime.codec.WireCodec` of every local
        transport; the shared :func:`~repro.runtime.codec.default_codec`
        when omitted.
    ring_bytes:
        Data capacity of each ring.  Must match the creator's value — both
        sides derive the data region from it.
    host:
        Doorbell bind host (loopback; shm peers are local by definition).
    """

    #: Period of the idle re-check timer: backstops a missed doorbell.
    WAKE_TIMEOUT = 0.05

    #: Frames drained from one ring before giving its siblings a turn.
    MAX_DRAIN_PER_RING = 128

    #: Drain sweeps executed inside one callback before the remainder is
    #: continued first in the kernel's next pass — keeps timers and the
    #: control pipe responsive under a sustained flood.
    MAX_SWEEPS_PER_CALLBACK = 8

    def __init__(
        self,
        token: str,
        shards: Sequence[Sequence[int]],
        worker: int,
        codec: Optional[WireCodec] = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
        host: str = "127.0.0.1",
    ) -> None:
        if ring_bytes < MIN_RING_BYTES:
            raise ConfigurationError(
                f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes}"
            )
        self.token = token
        self.shards = tuple(tuple(pids) for pids in shards)
        self.worker = worker
        self.codec = codec if codec is not None else default_codec()
        self.ring_bytes = ring_bytes
        self.host = host
        #: This worker's transports by pid (each registers itself).
        self.transports: dict[int, ShmTransport] = {}
        #: The worker of every pid of the cluster.
        self.worker_of = {pid: index for index, pids in enumerate(self.shards) for pid in pids}
        if max(self.worker_of, default=0) >= EVERY_LOCAL:
            raise ConfigurationError(f"shm recipient tags name pids below {EVERY_LOCAL}")
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # The kernel this worker's transports are bound to: it runs the
        # backstop and every drain the loop's doorbell callback did not.
        self._kernel: Optional[WallClockKernel] = None
        self._segments: list[SharedMemory] = []
        self._rings: list[SpscRing] = []
        # (sender, ring, recipients by tag) per inbound ring, sender order.
        self._inbound: tuple[tuple[int, SpscRing, dict], ...] = ()
        self._doorbells: dict[int, tuple[str, int]] = {}
        self._running = False
        self._backstop_handle: Optional[EventHandle] = None
        self._drain_scheduled = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound doorbell address (resolves the ephemeral port)."""
        if self._sock is None:
            return (self.host, 0)
        return self._sock.getsockname()[:2]

    async def start_server(self) -> tuple[str, int]:
        """Bind the UDP doorbell (once); returns its address for the peer exchange."""
        if self._sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setblocking(False)
            sock.bind((self.host, 0))
            self._sock = sock
        return self.address

    async def start(self) -> None:
        """Attach every ring this worker reads or fills and arm the doorbell.

        Runs once, after every local transport has its peers (the
        cluster-wide address map names each worker's doorbell).  There is
        no pump task: the doorbell's ``add_reader`` callback drains the
        rings directly, and a single :attr:`WAKE_TIMEOUT` re-check timer
        on the transports' kernel backstops a missed poke.
        """
        if self._running:
            return
        await self.start_server()
        loop = self._loop = asyncio.get_running_loop()
        rings: dict[tuple[int, int], SpscRing] = {}
        for pids in self.shards:
            for src in pids:
                for worker in reading_workers(src, self.shards):
                    if worker == self.worker or src in self.transports:
                        rings[src, worker] = self._attach(
                            ring_segment_name(self.token, src, worker)
                        )
        receivers = {
            pid: transport for pid, transport in sorted(self.transports.items())
            if transport._process is not None
        }
        peers: dict[int, tuple[str, int]] = {}
        for transport in self.transports.values():
            peers.update(transport._peers)
            transport._wire(rings)
        self._doorbells = {
            worker: peers[pids[0]] for worker, pids in enumerate(self.shards)
            if worker != self.worker and pids and pids[0] in peers
        }
        self._inbound = tuple(
            (src, ring, {
                EVERY_LOCAL: tuple(t for pid, t in receivers.items() if pid != src),
                **{pid: (t,) for pid, t in receivers.items()},
            })
            for (src, worker), ring in sorted(rings.items())
            if worker == self.worker
        )
        # Idle until the first poke: advertise sleep so the first producer
        # of every inbound ring rings the doorbell.
        for _, ring, _ in self._inbound:
            ring.set_sleeping(True)
        assert self._sock is not None
        loop.add_reader(self._sock.fileno(), self._on_datagram)
        self._kernel = self.transports[min(self.transports)].runtime
        self._backstop_handle = self._kernel.set_timer(self.WAKE_TIMEOUT, self._backstop)
        self._running = True
        for transport in self.transports.values():
            transport._stopped = False

    def _attach(self, name: str) -> SpscRing:
        segment = attach_ring(name)
        self._segments.append(segment)
        ring = SpscRing(segment.buf, self.ring_bytes)
        self._rings.append(ring)
        return ring

    async def stop(self) -> None:
        """Stop reading, detach every ring, close the doorbell.  Never raises.

        Segments are *closed*, never unlinked — the parent owns their
        lifetime.  Every local transport stops sending with it (late sends
        vanish), and ``_running`` turns an already-scheduled drain or
        backstop firing into a no-op, so teardown cannot race a callback
        into detached rings.
        """
        self._running = False
        for transport in self.transports.values():
            transport._stopped = True
            transport._ring_to, transport._out = {}, ()
        if self._backstop_handle is not None:
            self._backstop_handle.cancel()
            self._backstop_handle = None
        self._inbound = ()
        if self._sock is not None:
            if self._loop is not None:
                try:
                    self._loop.remove_reader(self._sock.fileno())
                except (RuntimeError, OSError):
                    pass
            self._sock.close()
            self._sock = None
        for ring in self._rings:
            try:
                ring.detach()
            except BufferError as exc:  # pragma: no cover - view leaked
                self._error(f"shm-detach-w{self.worker}: {exc!r}")
        self._rings.clear()
        for segment in self._segments:
            try:
                segment.close()
            except BufferError as exc:  # pragma: no cover - view leaked
                self._error(f"shm-close-w{self.worker}: {exc!r}")
        self._segments.clear()

    def _error(self, error: str) -> None:  # pragma: no cover - view leaked
        """Surface a teardown error on the worker's lowest-pid transport."""
        if self.transports:
            self.transports[min(self.transports)].last_errors.append(error)

    # ------------------------------------------------------------------
    # Waking
    # ------------------------------------------------------------------
    def ring(self, worker: int) -> None:
        """Wake ``worker``'s drain (a producer found its consumer asleep):
        a datagram to another worker's doorbell, a scheduled drain here."""
        if worker == self.worker:
            self._awake()
            self._schedule_drain()
            return
        address = self._doorbells.get(worker)
        if address is not None and self._sock is not None:
            try:
                self._sock.sendto(b"\x00", address)
            except OSError:
                pass  # full socket buffer etc.; WAKE_TIMEOUT covers it

    def _awake(self) -> None:
        """Lower every inbound sleeping flag: no producer rings until the
        drain parks again."""
        for _, ring, _ in self._inbound:
            ring.set_sleeping(False)

    def _schedule_drain(self) -> None:
        if not self._drain_scheduled and self._running:
            self._drain_scheduled = True
            self._kernel.call_next(self._drain_continue)

    def _drain_continue(self) -> None:
        self._drain_scheduled = False
        self._drain()

    def _on_datagram(self) -> None:
        """The doorbell rang: empty its socket, lower the flags, drain."""
        assert self._sock is not None
        try:
            while True:
                self._sock.recv(64)
        except OSError:  # BlockingIOError once the socket is empty
            pass
        self._awake()
        self._drain()

    def _backstop(self) -> None:
        """Periodic missed-poke insurance: re-check rings, re-arm timer."""
        self._backstop_handle = None
        if not self._running:
            return
        if any(ring.unread_bytes for _, ring, _ in self._inbound):
            self._awake()
            self._drain()
        self._backstop_handle = self._kernel.set_timer(self.WAKE_TIMEOUT, self._backstop)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Sweep every inbound ring until a whole sweep is empty, then park.

        Runs synchronously inside the doorbell callback (or its
        continuation, first in the kernel's next pass), exactly as the TCP
        reader delivers each frame it reads.  Only an empty sweep raises
        the flags, then one final re-check closes the race with a producer
        that pushed after the sweep but read its flag before it rose.  A
        sustained flood is rescheduled after
        :attr:`MAX_SWEEPS_PER_CALLBACK` sweeps so timers and co-located
        tasks keep running between bursts.
        """
        if not self._running:
            return
        for _ in range(self.MAX_SWEEPS_PER_CALLBACK):
            if not self._sweep():
                break
        else:
            # Budget exhausted with frames still flowing: yield to the loop
            # and continue in a fresh callback.
            self._schedule_drain()
            return
        inbound = self._inbound
        for _, ring, _ in inbound:
            ring.set_sleeping(True)
        if any(ring.unread_bytes for _, ring, _ in inbound):
            self._awake()
            self._schedule_drain()

    def _sweep(self) -> int:
        """One pass over every inbound ring; returns the frames delivered.

        Each frame is decoded once — in place from the ring's memoryview,
        before the read index advances (the producer cannot overwrite
        unconsumed bytes) — and its payload handed to each recipient its
        tag names, in pid order, as the ring's sender's (not the sender the
        frame names).  The first recipient counts the decode.
        Each ring yields at most :attr:`MAX_DRAIN_PER_RING` frames per
        sweep so one loud sender cannot starve the others.
        """
        delivered = 0
        decode = self.codec.decode_body
        budget = self.MAX_DRAIN_PER_RING
        for src, ring, routes in self._inbound:
            for _ in range(budget):
                body = ring.peek()
                if body is None:
                    break
                recipients = routes.get(body[0] << 8 | body[1])
                try:
                    if recipients is None:
                        raise WireCodecError(
                            f"recipient tag {body[0] << 8 | body[1]} names no pid "
                            f"of worker {self.worker}"
                        )
                    payload = decode(body[_BODY_AT:])[1]
                except WireCodecError as exc:
                    body = None  # release the memoryview into the ring
                    ring.consume()
                    for transport in recipients or routes[EVERY_LOCAL][:1]:
                        transport._reject(f"shm-decode-{src}", exc)
                    continue
                body = None
                ring.consume()
                if not recipients:
                    continue
                delivered += 1
                recipients[0].frames_decoded += 1
                for transport in recipients:
                    transport._receive(src, payload)
        return delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmEndpoint(token={self.token!r}, worker={self.worker}, "
            f"pids={sorted(self.transports)}, rings={len(self._rings)}, "
            f"running={self._running})"
        )


class ShmTransport(FramedTransport):
    """Shared-memory message fabric for a single node of a live cluster.

    Drop-in sibling of :class:`~repro.runtime.tcp.TcpTransport` for nodes
    that share a machine: the same ``send``/``broadcast``/listener surface,
    the same ``start_server``/``set_peers`` bootstrap dance (the address
    exchanged is the node's worker's UDP doorbell instead of a TCP listen
    port), the same ``frames_dropped``/``frames_rejected``/``last_errors``
    accounting — so :class:`~repro.faults.transport.FaultyTransport` and the
    metrics layer wrap it unchanged.  Only meaningful under a wall clock (it
    is built for :class:`~repro.runner.process_cluster.LiveCluster`
    workers).  Sending is the node's own; receiving is its worker's
    :class:`ShmEndpoint`, which hands it its decoded frames.

    Besides the framed-transport totals it counts ``shm_pushes`` (frames
    copied into a ring) and ``shm_doorbells`` (pushes that found the reader
    asleep and woke it), both read into a run's counts.

    Parameters
    ----------
    pid:
        The processor id of the node; ``endpoint``'s worker must host it.
    endpoint:
        The :class:`ShmEndpoint` of the worker the node lives in (its codec
        is the node's).
    """

    def __init__(self, pid: int, endpoint: ShmEndpoint) -> None:
        super().__init__(pid, endpoint.codec)
        if endpoint.worker_of.get(pid) != endpoint.worker:
            raise ConfigurationError(
                f"worker {endpoint.worker} hosts pids "
                f"{endpoint.shards[endpoint.worker]}, not {pid}"
            )
        if pid in endpoint.transports:
            raise ConfigurationError(f"pid {pid} already has a transport on its worker")
        endpoint.transports[pid] = self
        self.endpoint = endpoint
        #: Frames this node copied into a ring.
        self.shm_pushes = 0
        #: Pushes that found their reader asleep and rang its doorbell.
        self.shm_doorbells = 0
        self._stopped = False
        # Wired by the endpoint's start: every other pid's (worker, ring),
        # and each ring this node fills once, for broadcasts.
        self._ring_to: dict[int, tuple[int, SpscRing]] = {}
        self._out: tuple[tuple[int, SpscRing], ...] = ()
        self._scratch = bytearray()
        self._overflowed: set[int] = set()

    def _wire(self, rings: dict[tuple[int, int], SpscRing]) -> None:
        """Take this node's outbound rings out of the endpoint's ``rings``."""
        worker_of = self.endpoint.worker_of
        self._out = tuple(
            (worker, ring) for (src, worker), ring in sorted(rings.items()) if src == self.pid
        )
        out = dict(self._out)
        self._ring_to = {
            pid: (worker_of[pid], out[worker_of[pid]])
            for pid in worker_of if pid != self.pid
        }

    # ------------------------------------------------------------------
    # Addressing and lifecycle: the worker's endpoint
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The worker's bound doorbell address."""
        return self.endpoint.address

    async def start_server(self) -> tuple[str, int]:
        """Bind the worker's UDP doorbell; returns its address for the peer exchange."""
        return await self.endpoint.start_server()

    async def start(self) -> None:
        """Start the worker's endpoint (the first local transport to start does)."""
        await self.endpoint.start()

    async def stop(self) -> None:
        """Stop the worker's endpoint, and every local transport with it.  Never raises."""
        await self.endpoint.stop()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Deliver locally (immediate) or encode once and push to the
        recipient's worker ring, tagged with the recipient.

        After :meth:`stop` the rings are gone but replica timers may still
        fire for a few loop iterations; their sends are silently dropped,
        exactly as a closed TCP socket swallows late writes.
        """
        if self._stopped:
            return
        now = self.runtime.now
        if recipient == self.pid:
            self._deliver_local(sender, payload, now)
            return
        route = self._ring_to.get(recipient)
        if route is None:
            raise SimulationError(f"unknown recipient {recipient}")
        self._mint(sender, recipient, payload, now, now)
        self._push(*route, self._frame(recipient, sender, payload))

    def broadcast(self, sender: int, payload: Any, include_self: bool = True) -> None:
        """Send to every processor: one envelope per recipient, one frame
        encoded once and pushed once per reading worker."""
        if self._stopped:
            return
        now = self.runtime.now
        for pid in self.process_ids:
            if not include_self and pid == sender:
                continue
            if pid == self.pid:
                self._deliver_local(sender, payload, now)
            else:
                self._mint(sender, pid, payload, now, now)
        if self._out:
            frame = self._frame(EVERY_LOCAL, sender, payload)
            for worker, ring in self._out:
                self._push(worker, ring, frame)

    def _frame(self, tag: int, sender: int, payload: Any) -> bytearray:
        """The ring frame of ``payload`` for ``tag``, in the staging buffer."""
        frame = self._scratch
        del frame[:]
        frame += _HEAD_ROOM
        size = self.codec.encode_into(sender, payload, frame)
        _HEAD.pack_into(frame, 0, size + _HEAD.size - _PREFIX.size, tag)
        return frame

    def _push(self, worker: int, ring: SpscRing, frame: Union[bytes, bytearray]) -> None:
        """Ring-push with overflow accounting and doorbell poke."""
        if not ring.try_push(frame):
            self.frames_dropped += 1
            if worker not in self._overflowed:
                self._overflowed.add(worker)
                self.last_errors.append(
                    f"shm-ring-{self.pid}->w{worker}: ring full "
                    f"({self.endpoint.ring_bytes} B), frame of {len(frame)} B dropped"
                )
            return
        self.shm_pushes += 1
        if ring.consumer_sleeping():
            # Clear before ringing so this burst costs one wake-up; the
            # reader re-arms the flag itself when a sweep finds nothing.
            ring.set_sleeping(False)
            self.shm_doorbells += 1
            self.endpoint.ring(worker)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmTransport(pid={self.pid}, worker={self.endpoint.worker}, "
            f"token={self.endpoint.token!r}, sent={self.messages_sent}, "
            f"pushes={self.shm_pushes}, doorbells={self.shm_doorbells}, "
            f"frames_dropped={self.frames_dropped}, "
            f"teardown_errors={len(self.last_errors)})"
        )
