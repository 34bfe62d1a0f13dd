"""``TcpTransport``: one cluster node speaking length-prefixed frames over TCP.

Pyre-style seam: the replica's only I/O surface is ``send``/``broadcast``,
and everything network-shaped — servers, connections, framing, reconnects —
lives here.  Each node runs

* one ``asyncio`` **server** accepting inbound peer connections, whose
  reader coroutines decode each frame and hand it to the replica at once
  (:meth:`~repro.runtime.transports.FramedTransport._receive`, one kernel
  event), as a shm worker's ring drain does, and
* one lazily started **writer task per peer**, owning an outbound queue and
  the (re)connect loop, so ``send`` never blocks the protocol callback that
  called it.

Readers and kernel passes are callbacks of one asyncio loop, so the
replica's protocol callbacks run one at a time, exactly as in the
simulator.

Frames are ``4-byte big-endian length || body`` (see
:mod:`repro.runtime.codec`).  Ports may be ephemeral: start the server
first (:meth:`TcpTransport.start_server`), read the bound
:attr:`TcpTransport.address`, then exchange the address map via
:meth:`TcpTransport.set_peers` — ``examples/live_cluster.py`` and
:class:`~repro.runner.process_cluster.Shard` do exactly this dance.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional, Union

from repro.errors import SimulationError
from repro.runtime.codec import (
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    WireCodec,
    WireCodecError,
)
from repro.runtime.transports import FramedTransport


class TcpTransport(FramedTransport):
    """TCP message fabric for a single node of a live cluster.

    Parameters
    ----------
    pid, codec:
        As for :class:`~repro.runtime.transports.FramedTransport`.
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port; read
        :attr:`address` after :meth:`start_server`.
    connect_timeout:
        How long a writer keeps retrying each (re)connect window to a peer
        before giving up (covers the all-nodes-starting-at-once race and
        peer restarts).  A writer that exhausts the window dies — its
        in-flight frames are counted in :attr:`frames_dropped` — and is
        respawned by the next ``send`` to that peer, so an outage longer
        than the window delays traffic rather than partitioning the node
        permanently.

    A writer that wakes up with several frames queued flushes them all in
    **one** ``write()`` + ``drain()``.  The byte stream is exactly the
    frames' concatenation — length-prefixed, in queue order, untouched — so
    the receiver cannot tell how they were written; only the syscall count
    drops (``tests/test_tcp_batching.py`` pins it).
    """

    #: Upper bound on frames flushed per coalesced ``write()`` — bounds the
    #: size of the held batch a reconnecting writer must resend.
    MAX_COALESCED_FRAMES = 512

    def __init__(
        self,
        pid: int,
        host: str = "127.0.0.1",
        port: int = 0,
        codec: Optional[WireCodec] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        super().__init__(pid, codec)
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._outboxes: dict[int, asyncio.Queue] = {}
        self._writers: dict[int, asyncio.Task] = {}
        self._reader_tasks: set[asyncio.Task] = set()
        self._connections: dict[int, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The actually bound listen address (resolves ``port=0``)."""
        if self._server is None:
            return (self.host, self.port)
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return (host, port)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start_server(self) -> tuple[str, int]:
        """Bind and start the inbound server; returns the bound address."""
        if self._server is None:
            self._server = await asyncio.start_server(self._on_connection, self.host, self.port)
            self._share_frames(True)  # readers decode from here on
        return self.address

    async def start(self) -> None:
        """Start the server (if needed)."""
        await self.start_server()

    async def stop(self) -> None:
        """Tear the node down: own tasks cancelled, peers signalled via EOF.

        Reader tasks (owned by asyncio's stream server) are *not* cancelled
        directly — cancelling a client-handler task trips asyncio's
        ``connection_made`` done-callback into re-raising the cancellation.
        Closing the outbound connections instead EOFs the peers' readers
        (and theirs ours, when every node stops), which is the clean exit
        path ``_on_connection`` already handles; stragglers are cancelled
        only after a grace wait.

        Teardown never raises, but it no longer *hides* either: a writer
        task that died of anything other than the cancellation we just
        requested records the error in :attr:`last_errors`, so cluster
        shutdown can report real bugs instead of swallowing them.
        """
        self._share_frames(False)
        own = list(self._writers.values())
        for task in own:
            task.cancel()
        for task in own:
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception as exc:  # noqa: BLE001 - collected, not hidden
                self.last_errors.append(f"{task.get_name()}: {exc!r}")
        self._writers.clear()
        for writer in self._connections.values():
            writer.close()
        self._connections.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._reader_tasks:
            _, pending = await asyncio.wait(list(self._reader_tasks), timeout=0.5)
            for task in pending:
                task.cancel()
        self._reader_tasks.clear()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, sender: int, recipient: int, payload: Any) -> None:
        """Deliver locally (immediate) or frame and queue for a peer."""
        now = self.runtime.now
        if recipient == self.pid:
            self._deliver_local(sender, payload, now)
            return
        if recipient not in self._peers:
            raise SimulationError(f"unknown recipient {recipient}")
        self._mint(sender, recipient, payload, now, now)
        frame = bytearray()
        self.codec.encode_into(sender, payload, frame)
        self._enqueue_frame(recipient, frame)

    def broadcast(self, sender: int, payload: Any, include_self: bool = True) -> None:
        """Send to every processor, encoding the frame **once** for all peers.

        The per-peer ``send`` loop of the base class framed the identical
        payload once per recipient — an O(n) encode per broadcast.  Here the
        frame bytes are produced once (``encode_into`` a single buffer, no
        intermediate ``bytes``) and the same object is enqueued on every
        peer's outbox (outboxes never mutate frames), so a broadcast costs
        one encode regardless of cluster size.
        """
        frame: Optional[bytearray] = None
        now = self.runtime.now
        for pid in self.process_ids:
            if not include_self and pid == sender:
                continue
            if pid == self.pid:
                self._deliver_local(sender, payload, now)
                continue
            if frame is None:
                frame = bytearray()
                self.codec.encode_into(sender, payload, frame)
            self._mint(sender, pid, payload, now, now)
            self._enqueue_frame(pid, frame)

    def _enqueue_frame(self, recipient: int, frame: Union[bytes, bytearray]) -> None:
        """Queue encoded frame bytes for a peer and (re)spawn its writer task.

        Frames may be ``bytearray`` staging buffers from ``encode_into`` —
        they are never mutated after enqueue, and both the coalescing join
        and the asyncio transport accept any bytes-like object.
        """
        outbox = self._outboxes.get(recipient)
        if outbox is None:
            outbox = self._outboxes[recipient] = asyncio.Queue()
        outbox.put_nowait(frame)
        # Spawn the peer's writer task lazily — and respawn it if a previous
        # incarnation died (a peer down for longer than connect_timeout kills
        # its writer; the next send retries rather than leaving the node
        # silently partitioned from a peer that has since recovered).
        writer_task = self._writers.get(recipient)
        if writer_task is None or writer_task.done():
            self._writers[recipient] = asyncio.create_task(
                self._writer(recipient), name=f"tcp-writer-{self.pid}->{recipient}"
            )

    async def _connect(self, peer: int) -> asyncio.StreamWriter:
        """(Re)establish the outbound connection to ``peer``, with retries.

        Each (re)connection attempt window gets ``connect_timeout`` to
        succeed — this covers both the all-nodes-starting-at-once race and
        a peer restarting mid-run.
        """
        host, port = self._peers[peer]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.connect_timeout
        while True:
            try:
                _, writer = await asyncio.open_connection(host, port)
            except OSError:
                if loop.time() >= deadline:
                    raise
                await asyncio.sleep(0.05)
            else:
                self._connections[peer] = writer
                return writer

    async def _writer(self, peer: int) -> None:
        """Own the outbound link to ``peer``: connect, drain the queue, reconnect.

        A dropped connection (peer restart, TCP reset) closes the stream,
        keeps the unsent frames, reconnects and resends them — the node is
        never silently partitioned from a peer that comes back.

        Every wakeup greedily drains the outbox (up to
        :attr:`MAX_COALESCED_FRAMES`) and flushes the whole batch as a
        single ``write()`` + ``drain()``.  Frames are concatenated in queue
        order and never mutated, so the byte stream — and therefore the
        peer's decode sequence — is the frames' concatenation; a protocol
        burst (a broadcast fan-in, a view change) costs one syscall pair
        instead of one per frame.

        A writer that exhausts its connect window gives up *audibly*: the
        frames it was holding are counted in :attr:`frames_dropped` before
        the task exits (the next ``send`` to the peer spawns a fresh
        incarnation).
        """
        outbox = self._outboxes[peer]
        writer: Optional[asyncio.StreamWriter] = None
        batch: list[Union[bytes, bytearray]] = []
        while True:
            if not batch:
                batch.append(await outbox.get())
                while len(batch) < self.MAX_COALESCED_FRAMES:
                    try:
                        batch.append(outbox.get_nowait())
                    except asyncio.QueueEmpty:
                        break
            if writer is None:
                try:
                    writer = await self._connect(peer)
                except OSError:
                    # Connect window exhausted: the held frames are lost.
                    # Count them — a silent drop here is indistinguishable
                    # from a network partition to everyone upstream.
                    self.frames_dropped += len(batch)
                    return
            try:
                writer.write(batch[0] if len(batch) == 1 else b"".join(batch))
                await writer.drain()
            except (ConnectionError, OSError):
                writer.close()
                if self._connections.get(peer) is writer:
                    del self._connections[peer]
                writer = None  # reconnect and resend the held batch
            else:
                batch.clear()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
            task.add_done_callback(self._reader_tasks.discard)
        try:
            while True:
                prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
                length = int.from_bytes(prefix, "big")
                if length > MAX_FRAME_BYTES:
                    # Malformed or hostile peer: the body is never read, so
                    # the framing is lost with it.
                    self._reject("tcp-frame", WireCodecError(
                        f"frame of {length} bytes exceeds MAX_FRAME_BYTES"
                    ))
                    break
                body = await reader.readexactly(length)
                try:
                    sender, payload = self._decode(body)
                except WireCodecError as exc:
                    # Malformed or version-skewed peer: drop the connection.
                    self._reject("tcp-decode", exc)
                    break
                if self._process is None:
                    continue
                try:
                    self._receive(sender, payload)
                except Exception as exc:  # noqa: BLE001 - collected, not hidden
                    self.last_errors.append(f"tcp-deliver-{sender}->{self.pid}: {exc!r}")
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer went away; its writer will reconnect if it returns
        except asyncio.CancelledError:
            # Teardown-only cancellation (see stop()); completing normally
            # keeps asyncio's connection_made done-callback from re-raising
            # the cancellation into the loop's exception handler.
            pass
        finally:
            writer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TcpTransport(pid={self.pid}, address={self.address}, "
            f"peers={sorted(self._peers)}, sent={self.messages_sent}, "
            f"frames_dropped={self.frames_dropped}, "
            f"teardown_errors={len(self.last_errors)})"
        )
