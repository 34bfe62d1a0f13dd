"""Coalesced TCP writes: byte-stream equivalence, drop accounting, teardown errors.

A ``TcpTransport`` writer flushes every frame it finds queued in one
``write()``.  The test below holds the *byte stream* a peer receives to the
independent oracle ``b"".join(frames)`` — the strongest statement possible
for a framed protocol (the receiver cannot even in principle tell how the
frames were written).

The reader's side of the same economy is the frame memo: nodes that share a
codec in one process decode a broadcast's frame once (the shm twin of these
tests is in ``tests/test_shm_transport.py``).
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.consensus.blocks import Block
from repro.consensus.messages import Proposal
from repro.metrics.collector import MetricsCollector
from repro.runtime import MonotonicClock, TcpTransport, WallClockKernel
from repro.runtime.codec import MAX_FRAME_BYTES, WireCodec, _register_library_messages


def _frame(index: int, size: int = 40) -> bytes:
    body = (b"%06d" % index) * (size // 6)
    return len(body).to_bytes(4, "big") + body


async def _accumulating_server():
    """A server that appends every received byte to one buffer."""
    received = bytearray()
    done = asyncio.Event()

    async def on_connection(reader, writer):
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                break
            received.extend(chunk)
            done.set()
        writer.close()

    server = await asyncio.start_server(on_connection, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    return server, (host, port), received


async def _send_frames(address, frames) -> bytes:
    """Push ``frames`` through a writer task and return the peer's byte stream."""
    server, addr, received = address
    transport = TcpTransport(0, connect_timeout=5.0)
    transport.set_peers({1: addr})
    for frame in frames:
        transport._enqueue_frame(1, frame)
    total = sum(len(frame) for frame in frames)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 10.0
    while len(received) < total and loop.time() < deadline:
        await asyncio.sleep(0.005)
    await transport.stop()
    return bytes(received)


@pytest.mark.tcp
@pytest.mark.parametrize("count", [1, 3, 200, 700])
def test_coalesced_writes_are_byte_stream_identical(count):
    """The peer receives exactly the frames' concatenation.

    200 frames enqueued before the writer first wakes exercises real
    batches; 700 crosses MAX_COALESCED_FRAMES, so the cap path (multiple
    coalesced writes) is covered too.
    """
    frames = [_frame(i) for i in range(count)]
    expected = b"".join(frames)

    async def run() -> bytes:
        address = await _accumulating_server()
        try:
            return await _send_frames(address, frames)
        finally:
            address[0].close()
            await address[0].wait_closed()

    assert asyncio.run(run()) == expected


@pytest.mark.tcp
def test_exhausted_connect_window_counts_dropped_frames():
    """A writer that dies of an unreachable peer counts the frames it held."""
    # Bind-then-close: a port that was ours a moment ago, now refusing.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()[:2]
    probe.close()

    async def run() -> TcpTransport:
        transport = TcpTransport(0, connect_timeout=0.3)
        transport.set_peers({1: dead_address})
        for i in range(3):
            transport._enqueue_frame(1, _frame(i))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 5.0
        while transport.frames_dropped < 3 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await transport.stop()
        return transport

    transport = asyncio.run(run())
    assert transport.frames_dropped == 3
    assert "frames_dropped=3" in repr(transport)


@pytest.mark.tcp
def test_stop_collects_task_errors_instead_of_swallowing():
    """Teardown records non-cancellation task deaths in ``last_errors``."""

    async def run() -> TcpTransport:
        transport = TcpTransport(0)

        async def doomed_writer():
            raise RuntimeError("writer exploded mid-run")

        transport._writers[1] = asyncio.create_task(
            doomed_writer(), name="tcp-writer-0->1"
        )
        await asyncio.sleep(0.01)  # let the task die before teardown
        await transport.stop()
        return transport

    transport = asyncio.run(run())
    assert len(transport.last_errors) == 1
    assert "tcp-writer-0->1" in transport.last_errors[0]
    assert "writer exploded mid-run" in transport.last_errors[0]
    assert "teardown_errors=1" in repr(transport)


# ----------------------------------------------------------------------
# The frame memo on the reader side
# ----------------------------------------------------------------------
class _SpyCodec(WireCodec):
    """The codec, counting ``decode_body`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.decodes = 0

    def decode_body(self, body):
        self.decodes += 1
        return super().decode_body(body)


class _Sink:
    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.received: list[tuple[int, object]] = []

    def deliver(self, payload, sender) -> None:
        self.received.append((sender, payload))


async def _start_nodes(codecs):
    """One started, peered TcpTransport per entry of ``codecs`` (pid = index)."""
    transports = [TcpTransport(pid, codec=codec) for pid, codec in enumerate(codecs)]
    sinks = [_Sink(pid) for pid in range(len(codecs))]
    for transport, sink in zip(transports, sinks):
        transport.bind(WallClockKernel(MonotonicClock()))
        transport.register(sink)
    peers = {t.pid: await t.start_server() for t in transports}
    for transport in transports:
        transport.set_peers(peers)
        await transport.start()
    return transports, sinks


async def _wait_until(predicate, timeout: float = 8.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached within the budget")
        await asyncio.sleep(0.005)


def _proposal(tag: str) -> Proposal:
    block = Block(view=3, parent_id="genesis", proposer=0, payload=("tx", tag))
    return Proposal(view=3, block=block, justify=None)


@pytest.mark.tcp
def test_co_located_tcp_nodes_decode_a_broadcast_once():
    codec = _register_library_messages(_SpyCodec())

    async def run():
        transports, sinks = await _start_nodes([codec] * 3)
        try:
            transports[0].broadcast(0, _proposal("same"))
            await _wait_until(lambda: all(len(sink.received) == 1 for sink in sinks))
            shared = codec.decodes
            # An equivocating sender's two frames are two frames.
            transports[0].send(0, 1, _proposal("a"))
            transports[0].send(0, 2, _proposal("b"))
            await _wait_until(lambda: all(len(sink.received) == 2 for sink in sinks[1:]))
        finally:
            for transport in transports:
                await transport.stop()
        return transports, sinks, shared

    transports, sinks, shared = asyncio.run(run())
    assert shared == 1 and codec.decodes == 3
    assert sinks[1].received[0][1] is sinks[2].received[0][1]
    assert sinks[1].received[1][1].block.payload == ("tx", "a")
    assert sinks[2].received[1][1].block.payload == ("tx", "b")
    assert sum(t.frames_decoded for t in transports) == 3
    assert codec.frames.sharers == 0 and len(codec.frames) == 0  # emptied on the way out


@pytest.mark.tcp
def test_a_delivery_that_raises_is_recorded_and_the_reader_reads_on():
    """The reader hands each frame to the replica itself: an exception the
    delivery raises lands in ``last_errors`` and the next frame arrives."""
    codecs = [_register_library_messages(_SpyCodec()) for _ in range(2)]

    async def run():
        transports, sinks = await _start_nodes(codecs)
        deliver = sinks[1].deliver

        def explode_once(payload, sender):
            sinks[1].deliver = deliver
            raise RuntimeError("replica exploded")

        sinks[1].deliver = explode_once
        try:
            for tag in "ab":
                transports[0].send(0, 1, _proposal(tag))
            await _wait_until(lambda: len(sinks[1].received) == 1)
        finally:
            for transport in transports:
                await transport.stop()
        return transports, sinks

    transports, sinks = asyncio.run(run())
    assert sinks[1].received[0][1].block.payload == ("tx", "b")
    assert len(transports[1].last_errors) == 1
    assert transports[1].last_errors[0].startswith("tcp-deliver-0->1: ")
    assert "replica exploded" in transports[1].last_errors[0]


@pytest.mark.tcp
def test_a_tcp_node_alone_on_its_codec_never_consults_the_memo():
    codecs = [_register_library_messages(_SpyCodec()) for _ in range(2)]

    async def run():
        transports, sinks = await _start_nodes(codecs)
        try:
            for tag in "abc":
                transports[0].send(0, 1, _proposal(tag))
            await _wait_until(lambda: len(sinks[1].received) == 3)
        finally:
            for transport in transports:
                await transport.stop()
        return transports

    transports = asyncio.run(run())
    assert codecs[1].decodes == transports[1].frames_decoded == 3
    assert all(codec.frames.lookups == 0 for codec in codecs)


@pytest.mark.tcp
def test_a_malformed_tcp_frame_drops_each_connection_and_is_never_cached():
    codec = _register_library_messages(_SpyCodec())
    garbage = (2).to_bytes(4, "big") + b"\x00\xff"  # sender 0, then an unknown tag

    async def run():
        transports, _ = await _start_nodes([codec] * 2)
        try:
            for transport in transports:
                reader, writer = await asyncio.open_connection(*transport.address)
                writer.write(garbage)
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""  # hung up on
                writer.close()
            return codec.decodes, len(codec.frames)
        finally:
            for transport in transports:
                await transport.stop()

    decodes, remembered = asyncio.run(run())
    assert decodes == 2 and remembered == 0


@pytest.mark.tcp
def test_a_malformed_tcp_frame_is_counted_as_rejected():
    """A frame that fails to decode, or announces more than MAX_FRAME_BYTES,
    is counted in ``frames_rejected`` (and so in the run's counts), recorded
    in ``last_errors`` and hangs up the connection it came on."""
    garbage = (2).to_bytes(4, "big") + b"\x00\xff"  # sender 0, then an unknown tag
    oversized = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")

    async def run():
        transports, sinks = await _start_nodes([None])
        metrics = MetricsCollector()
        metrics.attach_transport(transports[0])
        try:
            for frame in (garbage, oversized):
                reader, writer = await asyncio.open_connection(*transports[0].address)
                writer.write(frame)
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""  # hung up on
                writer.close()
        finally:
            await transports[0].stop()
        return transports[0], sinks[0], metrics.counts

    transport, sink, counts = asyncio.run(run())
    assert transport.frames_rejected == counts["frames_rejected"] == 2
    assert transport.frames_decoded == 1 and not sink.received
    assert [error.split(": ")[0] for error in transport.last_errors] == [
        "tcp-decode->0", "tcp-frame->0",
    ]
    assert "unknown tag" in transport.last_errors[0]
    assert "MAX_FRAME_BYTES" in transport.last_errors[1]
