"""``ShmTransport``: shared-memory message fabric for co-located node processes.

A process-placement :class:`~repro.runner.process_cluster.LiveCluster` with
``transport="tcp"`` pays localhost-TCP syscalls, length-prefix framing and
at least two full buffer copies for every frame exchanged between processes
that live on the *same machine*.  This module replaces that path with one
fixed-size **SPSC ring buffer per directed node pair**, backed by
:class:`multiprocessing.shared_memory.SharedMemory`:

* the producer encodes a frame straight into a reusable staging buffer
  (:meth:`~repro.runtime.codec.WireCodec.encode_into`, no intermediate
  ``bytes``) and copies it into the ring **once**;
* the consumer decodes frames **in place** from a ``memoryview`` over the
  ring and only then advances the read index: a node alone in its process
  never copies a contiguous frame out before decoding.  A process hosting
  several nodes instead copies each body out once, as the key under which
  its transports share the decoded payload
  (:meth:`~repro.runtime.transports.FramedTransport._decode`): a broadcast
  then costs that process one decode, not one per local recipient;
* in steady state neither side makes a single syscall per frame — the ring
  is plain memory shared by two processes.

Idle links must not burn CPU, so delivery is **doorbell-driven**: each
node binds a nonblocking **UDP doorbell** socket whose address rides the
exact same bootstrap address-exchange as a TCP port, and the doorbell's
``add_reader`` callback drains every inbound ring synchronously — the
same shape as the TCP reader's ``data_received``, with no pump task and
no per-wake allocations; the event loop simply blocks in its selector
between bursts.  When a drain burst finds every ring empty, the consumer
re-arms a *sleeping* flag in each inbound ring's header and re-checks
once (closing the race with a producer that pushed after the last sweep
but read the flag before it rose).  A producer that observes the flag
pokes the doorbell — one datagram, then the flag is cleared, so an
entire burst costs one syscall, not one per frame.  A coarse
:attr:`ShmTransport.WAKE_TIMEOUT` re-check timer backstops the handshake:
x86-64 gives no store-load barrier between "producer stores frame, loads
flag" and "consumer stores flag, loads write index", so a poke can in
principle be missed — the timer bounds the hiccup instead of hanging the
link.

Overflow is accounted, never blocking: a frame that does not fit is dropped
on the producer side, counted in :attr:`ShmTransport.frames_dropped` (the
same counter the metrics layer folds into a run's fault counts for TCP) and
surfaced once per peer in :attr:`ShmTransport.last_errors`.

Lifecycle: the **parent** (the ``LiveCluster`` coordinator) creates every
segment before spawning workers (:func:`create_cluster_rings`) and is the
only process that ever unlinks them (:func:`destroy_cluster_rings`).  Workers
attach by deterministic name (:func:`attach_ring`); spawned workers inherit the
parent's :mod:`multiprocessing.resource_tracker` process, so attach-side
registrations deduplicate against the parent's and the parent's ``unlink``
retires them — workers must *not* unregister, which would yank the
parent's own registration out of the shared tracker.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Optional, Sequence, Union

from repro.errors import ConfigurationError, SimulationError
from repro.runtime.codec import LENGTH_PREFIX_BYTES, WireCodec, WireCodecError
from repro.runtime.transports import FramedTransport

#: Bytes reserved at the front of every segment for the ring header.
#: Fields live on separate 64-byte lines so the producer-owned write index
#: and the consumer-owned read index never share a cache line.
RING_HEADER_BYTES = 256

#: Default data capacity of one directed ring (a protocol frame is
#: typically well under 1 KiB, so this buffers hundreds of frames).
DEFAULT_RING_BYTES = 256 * 1024

#: Smallest accepted ring capacity; anything less cannot hold a burst.
MIN_RING_BYTES = 4096

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


def ring_segment_name(token: str, src: int, dst: int) -> str:
    """Deterministic segment name of the ``src -> dst`` ring of a cluster.

    ``token`` is the cluster's shm namespace (minted once by the parent);
    both sides derive the same name independently, so no ring handle ever
    crosses the control pipe.
    """
    return f"repro-{token}-{src}-{dst}"


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
# Segment lifecycle helpers
# ----------------------------------------------------------------------
def create_cluster_rings(
    token: str, pids: Sequence[int], ring_bytes: int
) -> list[SharedMemory]:
    """Create one segment per directed node pair (parent side).

    The parent calls this before spawning workers and keeps the returned
    handles; it is the sole owner of the segments' lifetime
    (:func:`destroy_cluster_rings`).
    """
    if ring_bytes < MIN_RING_BYTES:
        raise ConfigurationError(
            f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes}"
        )
    segments: list[SharedMemory] = []
    try:
        for src in pids:
            for dst in pids:
                if src == dst:
                    continue
                segments.append(
                    SharedMemory(
                        name=ring_segment_name(token, src, dst),
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
    memory on *attach* as well as on create — but spawned workers inherit
    the *parent's* tracker process, whose registration cache is a set:
    the attach-side register deduplicates against the parent's create-side
    one, and the parent's ``unlink()`` retires it.  Unregistering here
    would remove the parent's registration from the shared tracker (and a
    second worker's unregister would raise ``KeyError`` inside the tracker
    process), so attaching is all this needs to do.
    """
    return SharedMemory(name=name, create=False)


class ShmTransport(FramedTransport):
    """Shared-memory message fabric for a single node of a live cluster.

    Drop-in sibling of :class:`~repro.runtime.tcp.TcpTransport` for nodes
    that share a machine: the same ``send``/``broadcast``/listener surface,
    the same ``start_server``/``set_peers`` bootstrap dance (the address
    exchanged is the node's UDP doorbell instead of a TCP listen port), the
    same ``frames_dropped``/``frames_rejected``/``last_errors`` accounting
    — so :class:`~repro.runtime.chaos.FaultyTransport` and the metrics
    layer wrap it unchanged.  Only meaningful under a wall clock (it is
    built for :class:`~repro.runner.process_cluster.LiveCluster` workers).

    Parameters
    ----------
    pid, codec:
        As for :class:`~repro.runtime.transports.FramedTransport`.
    token:
        The cluster's shm namespace; all nodes of one cluster must agree
        (the parent mints it and ships it through the shard spec).
    ring_bytes:
        Data capacity of each directed ring this node consumes or fills.
        Must match the creator's value — both sides derive the data region
        from it.
    host:
        Doorbell bind host (loopback; shm peers are local by definition).
    """

    #: Period of the idle re-check timer: backstops a missed doorbell.
    WAKE_TIMEOUT = 0.05

    #: Empty re-sweeps after a drain burst before re-arming the sleep
    #: flags (a producer may push between the last sweep and the flags;
    #: the post-park unread re-check catches anything this misses, so one
    #: sweep of spin insurance is enough).
    SPIN_SWEEPS = 1

    #: Frames drained from one ring before giving its siblings a turn.
    MAX_DRAIN_PER_RING = 128

    #: Drain sweeps executed inside one doorbell callback before the
    #: remainder is rescheduled with ``call_soon`` — keeps timers and the
    #: control pipe responsive under a sustained flood.
    MAX_SWEEPS_PER_CALLBACK = 8

    def __init__(
        self,
        pid: int,
        token: str,
        codec: Optional[WireCodec] = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
        host: str = "127.0.0.1",
    ) -> None:
        super().__init__(pid, codec)
        self.token = token
        self.host = host
        if ring_bytes < MIN_RING_BYTES:
            raise ConfigurationError(
                f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes}"
            )
        self.ring_bytes = ring_bytes
        self._sock: Optional[socket.socket] = None
        self._rings_out: dict[int, SpscRing] = {}
        self._rings_in: dict[int, SpscRing] = {}
        self._segments: list[SharedMemory] = []
        self._in_pairs: tuple[tuple[int, SpscRing], ...] = ()
        self._stopped = False
        self._reader_installed = False
        self._backstop_handle: Optional[asyncio.TimerHandle] = None
        self._drain_scheduled = False
        self._scratch = bytearray()
        self._overflowed: set[int] = set()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound doorbell address (resolves the ephemeral port)."""
        if self._sock is None:
            return (self.host, 0)
        return self._sock.getsockname()[:2]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start_server(self) -> tuple[str, int]:
        """Bind the UDP doorbell; returns its address for the peer exchange."""
        if self._sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setblocking(False)
            sock.bind((self.host, 0))
            self._sock = sock
        return self.address

    async def start(self) -> None:
        """Attach every ring this node touches and arm the doorbell.

        There is no pump task: the doorbell's ``add_reader`` callback
        drains rings directly (exactly as the TCP reader's
        ``data_received`` delivers frames), the event loop blocks in its
        selector whenever nothing is ready, and a single
        :attr:`WAKE_TIMEOUT` re-check timer backstops a missed poke.
        """
        await self.start_server()
        self._share_frames(True)
        loop = asyncio.get_running_loop()
        if not self._reader_installed:
            assert self._sock is not None
            loop.add_reader(self._sock.fileno(), self._on_doorbell)
            self._reader_installed = True
        if not self._rings_out:
            for peer in self._peers:
                self._rings_out[peer] = self._attach(
                    ring_segment_name(self.token, self.pid, peer)
                )
                self._rings_in[peer] = self._attach(
                    ring_segment_name(self.token, peer, self.pid)
                )
        # Frozen (peer, ring) pairs: the drain loop sweeps these dozens of
        # times per burst, and a tuple walks faster than a dict view.
        self._in_pairs = tuple(self._rings_in.items())
        self._stopped = False
        # Idle until the first poke: advertise sleep so the first producer
        # of every inbound ring rings the doorbell.
        for ring in self._rings_in.values():
            ring.set_sleeping(True)
        if self._backstop_handle is None:
            self._backstop_handle = loop.call_later(self.WAKE_TIMEOUT, self._backstop)

    def _attach(self, name: str) -> SpscRing:
        segment = attach_ring(name)
        self._segments.append(segment)
        return SpscRing(segment.buf, self.ring_bytes)

    async def stop(self) -> None:
        """Disarm the doorbell, detach rings, close the socket.  Never raises.

        Segments are *closed*, never unlinked — the parent owns their
        lifetime.  ``_stopped`` turns any already-scheduled drain
        continuation or backstop firing into a no-op, so teardown cannot
        race a callback into detached rings.
        """
        self._stopped = True
        self._share_frames(False)
        if self._backstop_handle is not None:
            self._backstop_handle.cancel()
            self._backstop_handle = None
        if self._reader_installed and self._sock is not None:
            try:
                asyncio.get_running_loop().remove_reader(self._sock.fileno())
            except (RuntimeError, OSError):
                pass
            self._reader_installed = False
        for ring in (*self._rings_out.values(), *self._rings_in.values()):
            try:
                ring.detach()
            except BufferError as exc:  # pragma: no cover - view leaked
                self.last_errors.append(f"shm-detach-{self.pid}: {exc!r}")
        self._rings_out.clear()
        self._rings_in.clear()
        self._in_pairs = ()
        for segment in self._segments:
            try:
                segment.close()
            except BufferError as exc:  # pragma: no cover - view leaked
                self.last_errors.append(f"shm-close-{self.pid}: {exc!r}")
        self._segments.clear()
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Deliver locally (immediate) or encode once and push to the ring.

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
        if recipient not in self._rings_out:
            raise SimulationError(f"unknown recipient {recipient}")
        self._mint(sender, recipient, payload, now, now)
        scratch = self._scratch
        del scratch[:]
        self.codec.encode_into(sender, payload, scratch)
        self._push(recipient, scratch)

    def broadcast(self, sender: int, payload: Any, include_self: bool = True) -> None:
        """Send to every processor, encoding the frame once for all rings."""
        if self._stopped:
            return
        scratch = None
        now = self.runtime.now
        for pid in self.process_ids:
            if not include_self and pid == sender:
                continue
            if pid == self.pid:
                self._deliver_local(sender, payload, now)
                continue
            if scratch is None:
                scratch = self._scratch
                del scratch[:]
                self.codec.encode_into(sender, payload, scratch)
            self._mint(sender, pid, payload, now, now)
            self._push(pid, scratch)

    def _push(self, recipient: int, frame: Union[bytes, bytearray]) -> None:
        """Ring-push with overflow accounting and doorbell poke."""
        ring = self._rings_out[recipient]
        if not ring.try_push(frame):
            self.frames_dropped += 1
            if recipient not in self._overflowed:
                self._overflowed.add(recipient)
                self.last_errors.append(
                    f"shm-ring-{self.pid}->{recipient}: ring full "
                    f"({self.ring_bytes} B), frame of {len(frame)} B dropped"
                )
            return
        if ring.consumer_sleeping():
            # Clear before poking so a burst costs one datagram, not one
            # per frame; the consumer re-arms the flag itself next time it
            # finds every ring empty.
            ring.set_sleeping(False)
            addr = self._peers.get(recipient)
            if addr is not None and self._sock is not None:
                try:
                    self._sock.sendto(b"\x00", addr)
                except OSError:
                    pass  # full socket buffer etc.; WAKE_TIMEOUT covers it

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _on_doorbell(self) -> None:
        """Drain the doorbell socket, then drain the rings in this callback."""
        assert self._sock is not None
        try:
            while True:
                self._sock.recv(64)
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass
        self._drain_burst()

    def _drain_ready(self) -> int:
        """One sweep over all inbound rings; returns frames delivered.

        Frames decode from the ring's memoryview — in place, or through
        the frame memo co-located transports share — before the read index
        advances (the producer cannot overwrite unconsumed bytes), then
        deliver exactly like the TCP pump.  Each ring yields
        at most :attr:`MAX_DRAIN_PER_RING` frames per sweep so one loud
        peer cannot starve the others.
        """
        delivered = 0
        for peer, ring in self._in_pairs:
            if self._stopped:
                break
            for _ in range(self.MAX_DRAIN_PER_RING):
                body = ring.peek()
                if body is None:
                    break
                try:
                    sender, payload = self._decode(body)
                except WireCodecError as exc:
                    self._reject(f"shm-decode-{peer}", exc)
                    ring.consume()
                    continue
                finally:
                    body = None  # release a memoryview into the ring
                ring.consume()
                delivered += 1
                if self._process is not None:
                    self._receive(sender, payload)
        return delivered

    def _drain_burst(self) -> None:
        """Drain every inbound ring until all are empty, then re-arm sleep.

        Runs synchronously inside the doorbell callback (or a ``call_soon``
        continuation of itself), exactly as the TCP reader delivers frames
        from ``data_received`` — no pump task, no per-wake allocations.
        After :attr:`SPIN_SWEEPS` consecutive empty sweeps the flags go
        back up, then one final re-check closes the race with a producer
        that pushed after the last sweep but read the flag before it rose.
        A sustained flood is rescheduled after
        :attr:`MAX_SWEEPS_PER_CALLBACK` sweeps so timers and co-located
        tasks keep running between bursts.
        """
        if self._stopped:
            return
        pairs = self._in_pairs
        empty_sweeps = 0
        for _ in range(self.MAX_SWEEPS_PER_CALLBACK):
            if self._drain_ready():
                empty_sweeps = 0
            else:
                empty_sweeps += 1
                if empty_sweeps >= self.SPIN_SWEEPS:
                    break
        else:
            # Budget exhausted with frames still flowing: yield to the
            # loop and continue in a fresh callback.
            if not self._drain_scheduled and not self._stopped:
                self._drain_scheduled = True
                asyncio.get_running_loop().call_soon(self._drain_continue)
            return
        for _, ring in pairs:
            ring.set_sleeping(True)
        if any(ring.unread_bytes for _, ring in pairs):
            for _, ring in pairs:
                ring.set_sleeping(False)
            if not self._drain_scheduled and not self._stopped:
                self._drain_scheduled = True
                asyncio.get_running_loop().call_soon(self._drain_continue)

    def _drain_continue(self) -> None:
        self._drain_scheduled = False
        self._drain_burst()

    def _backstop(self) -> None:
        """Periodic missed-poke insurance: re-check rings, re-arm timer."""
        self._backstop_handle = None
        if self._stopped:
            return
        if any(ring.unread_bytes for ring in self._rings_in.values()):
            for ring in self._rings_in.values():
                ring.set_sleeping(False)
            self._drain_burst()
        self._backstop_handle = asyncio.get_running_loop().call_later(
            self.WAKE_TIMEOUT, self._backstop
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmTransport(pid={self.pid}, token={self.token!r}, "
            f"peers={sorted(self._peers)}, sent={self.messages_sent}, "
            f"frames_dropped={self.frames_dropped}, "
            f"teardown_errors={len(self.last_errors)})"
        )
