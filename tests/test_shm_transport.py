"""Shared-memory transport tests: ring mechanics, live delivery, chaos.

Three layers, mirroring how the transport is built:

* :class:`~repro.runtime.shm.SpscRing` unit tests over a plain bytearray —
  wraparound (prefix and body split across the ring edge), overflow
  accounting, monotonic never-wrapping indices, and the producer/consumer
  sleep-flag handshake, exercised through *two* ring views over one buffer
  exactly as two processes would see it;
* in-process :class:`~repro.runtime.shm.ShmTransport` pairs over real
  shared-memory segments and UDP doorbells — delivery, overflow surfacing
  through ``frames_dropped``/``last_errors``, a malformed frame through
  ``frames_rejected``/``last_errors``, teardown and post-stop sends;
* chaos composition: a :class:`~repro.runtime.chaos.FaultyTransport`
  wrapping shm counts drops and targeted delays in its ``Counters`` bag
  exactly as it does over TCP;
* the frame memo: transports that share a codec in one process decode a
  broadcast's frame once and hand every local recipient the same payload,
  a transport alone on its codec decodes in place and never sees the memo.

The wall-clock tests (everything touching real segments or sockets) are
``tcp``-marked so CI's tier-1 matrix skips them; the live-smoke job runs
this file in full.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
import uuid

import pytest

from repro.consensus.blocks import Block
from repro.consensus.messages import Proposal
from repro.crypto.backend import make_backend, use_backend
from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig
from repro.runner import make_live_cluster
from repro.runtime.asyncio_runtime import AsyncioRuntime, MonotonicClock
from repro.runtime.chaos import ChaosConfig, Counters, FaultyTransport
from repro.metrics.collector import MetricsCollector
from repro.runtime.codec import (
    FrameMemo,
    WireCodec,
    _register_library_messages,
    default_codec,
)
from repro.runtime.shm import (
    DEFAULT_RING_BYTES,
    MIN_RING_BYTES,
    RING_HEADER_BYTES,
    ShmTransport,
    SpscRing,
    attach_ring,
    create_cluster_rings,
    destroy_cluster_rings,
    ring_segment_name,
)
from repro.sim.network import FixedDelay, NetworkConfig, TargetedDelay


def _frame(body: bytes) -> bytes:
    """A wire frame exactly as the codec emits one: 4-byte BE prefix + body."""
    return len(body).to_bytes(4, "big") + body


def _ring(capacity: int) -> SpscRing:
    return SpscRing(memoryview(bytearray(RING_HEADER_BYTES + capacity)), capacity)


def _token() -> str:
    return f"t{uuid.uuid4().hex[:10]}"


# ----------------------------------------------------------------------
# SpscRing mechanics (no shared memory needed: any buffer works)
# ----------------------------------------------------------------------
class TestSpscRing:
    def test_push_peek_consume_roundtrip(self):
        ring = _ring(256)
        bodies = [b"alpha", b"", b"x" * 100]
        for body in bodies:
            assert ring.try_push(_frame(body))
        for body in bodies:
            got = ring.peek()
            assert bytes(got) == body
            ring.consume()
        assert ring.peek() is None
        assert ring.unread_bytes == 0

    def test_wraparound_splits_prefix_and_body(self):
        # Frame length 17 against capacity 32: the write position visits
        # every residue of gcd(17, 32) = 1, so over 64 frames both the
        # 4-byte prefix and the body get split across the ring edge.
        cap = 32
        ring = _ring(cap)
        for i in range(64):
            body = bytes([i % 256]) * 13
            assert ring.try_push(_frame(body)), f"push {i} refused"
            got = ring.peek()
            assert got is not None and bytes(got) == body, f"frame {i} corrupted"
            ring.consume()
        # Indices are monotonic and never wrap: 64 frames of 17 bytes.
        assert ring._w == ring._r == 64 * 17 > cap

    def test_two_views_over_one_buffer_agree(self):
        # Producer and consumer each construct their own ring view, exactly
        # as two processes attaching the same segment do; indices must
        # publish through the header, not through Python state.
        buf = memoryview(bytearray(RING_HEADER_BYTES + 128))
        producer = SpscRing(buf, 128)
        consumer = SpscRing(buf, 128)
        assert producer.try_push(_frame(b"cross-process"))
        assert bytes(consumer.peek()) == b"cross-process"
        consumer.consume()
        assert producer.unread_bytes == 0
        # The freed space is visible to the producer's next push.
        assert producer.try_push(_frame(b"x" * 100))

    def test_overflow_refuses_and_counts_without_corruption(self):
        ring = _ring(64)
        kept = _frame(b"a" * 40)
        assert ring.try_push(kept)
        assert not ring.try_push(_frame(b"b" * 40))
        assert ring.dropped == 1
        # The refused frame left the stored one untouched.
        assert bytes(ring.peek()) == b"a" * 40
        ring.consume()
        # Space freed by consume accepts new frames again.
        assert ring.try_push(_frame(b"b" * 40))
        assert ring.dropped == 1

    def test_exact_fit_fills_the_whole_capacity(self):
        ring = _ring(64)
        body = b"f" * 60  # frame == capacity exactly
        assert ring.try_push(_frame(body))
        assert ring.unread_bytes == 64
        assert not ring.try_push(_frame(b""))  # even 4 bytes do not fit
        assert bytes(ring.peek()) == body

    def test_sleep_flag_handshake(self):
        buf = memoryview(bytearray(RING_HEADER_BYTES + 64))
        producer = SpscRing(buf, 64)
        consumer = SpscRing(buf, 64)
        assert not producer.consumer_sleeping()
        consumer.set_sleeping(True)
        assert producer.consumer_sleeping()
        producer.set_sleeping(False)  # the poking producer retracts it
        assert not consumer.consumer_sleeping()

    def test_codec_frames_decode_in_place_from_the_ring(self):
        codec = default_codec()
        ring = _ring(4096)
        scratch = bytearray()
        payloads = ["ping", {"k": (1, 2)}, 12345]
        for payload in payloads:
            del scratch[:]
            codec.encode_into(3, payload, scratch)
            assert ring.try_push(scratch)
        for payload in payloads:
            body = ring.peek()
            sender, decoded = codec.decode_body(body)
            body = None  # release the memoryview before consume
            ring.consume()
            assert sender == 3 and decoded == payload


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
class TestSegmentLifecycle:
    @pytest.mark.tcp
    def test_create_attach_destroy(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1], MIN_RING_BYTES)
        try:
            assert len(segments) == 2  # one per directed pair
            attached = attach_ring(ring_segment_name(token, 0, 1))
            assert attached.size >= RING_HEADER_BYTES + MIN_RING_BYTES
            attached.close()
        finally:
            destroy_cluster_rings(segments)
        with pytest.raises(FileNotFoundError):
            attach_ring(ring_segment_name(token, 0, 1))

    def test_tiny_rings_are_rejected(self):
        with pytest.raises(ConfigurationError):
            create_cluster_rings(_token(), [0, 1], MIN_RING_BYTES - 1)
        with pytest.raises(ConfigurationError):
            ShmTransport(0, _token(), ring_bytes=MIN_RING_BYTES - 1)

    def test_transport_hosts_exactly_its_own_pid(self):
        transport = ShmTransport(2, _token())

        class Proc:
            pid = 3

        with pytest.raises(ConfigurationError):
            transport.register(Proc())


# ----------------------------------------------------------------------
# Two OS processes, one ring: the indices must never be seen half-written
# ----------------------------------------------------------------------
_PROBE_CAPACITY = 1 << 20
#: Multi-byte starting value and stride, so a torn or zero-filled store of
#: the index shows up as 0 or as a value that went backwards.
_INDEX_BASE = 1 << 40
_INDEX_STRIDE = 0x0101010101


def _publish_indices(name: str, seconds: float) -> None:
    """Child: publish a strictly increasing write index, as fast as it can."""
    segment = attach_ring(name)
    ring = SpscRing(segment.buf, _PROBE_CAPACITY)
    value = _INDEX_BASE
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        for _ in range(1000):
            value += _INDEX_STRIDE
            ring._store(0, value)
    ring.detach()
    segment.close()


def _stream_body(seq: int) -> bytes:
    return seq.to_bytes(4, "big") * (256 + seq % 256)  # 1-2 KiB


def _push_stream(name: str, frames: int, conn) -> None:
    """Child: push ``frames`` numbered frames, report refused pushes."""
    segment = attach_ring(name)
    ring = SpscRing(segment.buf, _PROBE_CAPACITY)
    for seq in range(frames):
        ring.try_push(_frame(_stream_body(seq)))
    conn.send(ring.dropped)
    ring.detach()
    segment.close()


@pytest.mark.tcp
class TestRingAcrossProcesses:
    def _segment(self):
        from multiprocessing.shared_memory import SharedMemory

        return SharedMemory(
            name=f"repro-{_token()}", create=True,
            size=RING_HEADER_BYTES + _PROBE_CAPACITY,
        )

    def test_published_index_is_never_seen_zero_or_torn(self):
        """The reader of an index never sees 0 or a value that went back.

        ``struct.pack_into`` zero-fills its destination before writing, so
        an index published with it reads as 0 on another core a fifth of
        the time; the ring's ``_store``/``_load`` move the whole word.
        """
        segment = self._segment()
        ring = SpscRing(segment.buf, _PROBE_CAPACITY)
        ring._store(0, _INDEX_BASE)
        ctx = multiprocessing.get_context("spawn")
        child = ctx.Process(target=_publish_indices, args=(segment.name, 2.0))
        child.start()
        reads = zeros = backwards = 0
        last = _INDEX_BASE
        try:
            while child.is_alive():
                for _ in range(1000):
                    seen = ring._load(0)
                    reads += 1
                    if seen == 0:
                        zeros += 1
                    elif seen < last:
                        backwards += 1
                    else:
                        last = seen
            child.join(timeout=5.0)
        finally:
            if child.is_alive():
                child.kill()
            ring.detach()
            destroy_cluster_rings([segment])
        assert child.exitcode == 0
        assert last > _INDEX_BASE, "the publisher never ran alongside the reader"
        assert (zeros, backwards) == (0, 0), f"{zeros} zero and {backwards} stale of {reads} reads"

    def test_frame_stream_decodes_cleanly_with_no_spurious_full(self):
        """A numbered stream between two processes arrives intact.

        The stream is smaller than the ring, so a refused push can only
        come from a misread read index; the indices start beyond one lap
        of the ring, so a misread write index could not pass for empty.
        """
        frames = 400
        segment = self._segment()
        ring = SpscRing(segment.buf, _PROBE_CAPACITY)
        filler = _frame(b"\0" * 4092)
        for _ in range(2 * _PROBE_CAPACITY // len(filler)):
            assert ring.try_push(filler)
            ring.peek()
            ring.consume()
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_push_stream, args=(segment.name, frames, child_conn))
        child.start()
        received = 0
        deadline = time.monotonic() + 8.0
        try:
            while received < frames and time.monotonic() < deadline:
                body = ring.peek()
                if body is None:
                    continue
                assert bytes(body) == _stream_body(received), f"frame {received} is garbled"
                body = None  # release the memoryview before consume
                ring.consume()
                received += 1
            dropped = parent_conn.recv() if parent_conn.poll(5.0) else None
            child.join(timeout=5.0)
        finally:
            if child.is_alive():
                child.kill()
            ring.detach()
            destroy_cluster_rings([segment])
        assert received == frames
        assert dropped == 0, f"{dropped} pushes refused on a ring that was never full"


# ----------------------------------------------------------------------
# Live in-process transport pairs over real segments and doorbells
# ----------------------------------------------------------------------
class _Sink:
    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.received: list[tuple[int, object]] = []

    def deliver(self, payload, sender) -> None:
        self.received.append((sender, payload))


async def _wait_until(predicate, timeout: float = 8.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached within the budget")
        await asyncio.sleep(0.005)


async def _start_pair(token, ring_bytes=DEFAULT_RING_BYTES, wrap0=None):
    """Two ShmTransports (pids 0, 1) on one loop, started and peered.

    ``wrap0`` optionally decorates pid 0's transport (chaos tests) before
    the runtime binds it.
    """
    t0 = ShmTransport(0, token, ring_bytes=ring_bytes)
    t1 = ShmTransport(1, token, ring_bytes=ring_bytes)
    outer0 = wrap0(t0) if wrap0 is not None else t0
    r0 = AsyncioRuntime(outer0, clock=MonotonicClock())
    r1 = AsyncioRuntime(t1, clock=MonotonicClock())
    sinks = (_Sink(0), _Sink(1))
    r0.register(sinks[0])
    r1.register(sinks[1])
    peers = {0: await t0.start_server(), 1: await t1.start_server()}
    t0.set_peers(peers)
    t1.set_peers(peers)
    await t0.start()
    await t1.start()
    return (outer0, t1), sinks


@pytest.mark.tcp
class TestShmTransportPair:
    def test_send_and_broadcast_deliver_across_segments(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1], MIN_RING_BYTES)

        async def run():
            (t0, t1), sinks = await _start_pair(token, MIN_RING_BYTES)
            try:
                t0.send(0, 1, "unicast")
                await _wait_until(lambda: len(sinks[1].received) >= 1)
                t1.broadcast(1, "fanout")  # remote to 0, local to 1
                await _wait_until(
                    lambda: len(sinks[0].received) >= 1
                    and len(sinks[1].received) >= 2
                )
            finally:
                await t0.stop()
                await t1.stop()
            return sinks

        sinks = asyncio.run(run())
        assert sinks[1].received[0] == (0, "unicast")
        assert (1, "fanout") in sinks[0].received
        assert (1, "fanout") in sinks[1].received
        destroy_cluster_rings(segments)

    def test_many_frames_survive_ring_wraparound(self):
        # MIN_RING_BYTES is far smaller than 400 frames' worth of bytes, so
        # the ring wraps many times while the consumer keeps draining.
        token = _token()
        segments = create_cluster_rings(token, [0, 1], MIN_RING_BYTES)

        async def run():
            (t0, t1), sinks = await _start_pair(token, MIN_RING_BYTES)
            try:
                for i in range(400):
                    t0.send(0, 1, f"msg-{i}")
                    if i % 16 == 0:
                        await asyncio.sleep(0)  # let the doorbell drain
                await _wait_until(
                    lambda: len(sinks[1].received) + t0.frames_dropped >= 400
                )
                dropped = t0.frames_dropped
            finally:
                await t0.stop()
                await t1.stop()
            return sinks[1].received, dropped

        received, dropped = asyncio.run(run())
        assert dropped == 0, f"ring overflowed ({dropped} dropped)"
        assert [p for _, p in received] == [f"msg-{i}" for i in range(400)]
        destroy_cluster_rings(segments)

    def test_overflow_counts_frames_and_surfaces_one_error(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1], MIN_RING_BYTES)

        async def run():
            # Only the producer runs: nothing ever drains ring 0 -> 1.
            t0 = ShmTransport(0, token, ring_bytes=MIN_RING_BYTES)
            AsyncioRuntime(t0, clock=MonotonicClock())
            peers = {0: await t0.start_server(), 1: ("127.0.0.1", 9)}
            t0.set_peers(peers)
            await t0.start()
            try:
                payload = "y" * 512
                for _ in range(40):  # ~40 frames of >512 B into 4096 B
                    t0.send(0, 1, payload)
            finally:
                await t0.stop()
            return t0

        t0 = asyncio.run(run())
        assert t0.frames_dropped > 0
        assert len(t0.last_errors) == 1  # one entry per peer, not per frame
        assert "ring full" in t0.last_errors[0]
        destroy_cluster_rings(segments)

    def test_a_malformed_frame_is_counted_as_rejected(self):
        """The frame is consumed, counted in ``frames_rejected`` (and so in
        the run's counts) and recorded in ``last_errors``; the ring reads on."""
        token = _token()
        segments = create_cluster_rings(token, [0, 1], MIN_RING_BYTES)

        async def run():
            (t0, t1), sinks = await _start_pair(token, MIN_RING_BYTES)
            metrics = MetricsCollector()
            metrics.attach_transport(t1)
            try:
                t0._push(1, _frame(b"\x00\xff"))  # sender 0, then an unknown tag
                t0.send(0, 1, "after")
                await _wait_until(lambda: sinks[1].received)
            finally:
                await t0.stop()
                await t1.stop()
            return t1, sinks[1], metrics.counts

        try:
            t1, sink, counts = asyncio.run(run())
        finally:
            destroy_cluster_rings(segments)
        assert t1.frames_rejected == counts["frames_rejected"] == 1
        assert sink.received == [(0, "after")]
        assert len(t1.last_errors) == 1
        assert t1.last_errors[0].startswith("shm-decode-0->1: ")
        assert "unknown tag" in t1.last_errors[0]

    def test_sends_after_stop_are_silently_swallowed(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1], MIN_RING_BYTES)

        async def run():
            (t0, t1), _ = await _start_pair(token, MIN_RING_BYTES)
            await t0.stop()
            await t1.stop()
            # Late replica timers still fire sends; they must vanish like
            # writes into a closed TCP socket, not raise into the loop.
            t0.send(0, 1, "late")
            t0.broadcast(0, "late-fanout")
            return t0

        t0 = asyncio.run(run())
        assert t0.frames_dropped == 0
        assert t0.last_errors == []
        destroy_cluster_rings(segments)


# ----------------------------------------------------------------------
# The frame memo: one decode per frame per process
# ----------------------------------------------------------------------
class _SpyCodec(WireCodec):
    """The codec, recording what ``decode_body`` was handed."""

    def __init__(self) -> None:
        super().__init__()
        self.decoded: list[type] = []

    def decode_body(self, body):
        self.decoded.append(type(body))
        return super().decode_body(body)


def _spy_codec() -> _SpyCodec:
    return _register_library_messages(_SpyCodec())


class _CountingClock(MonotonicClock):
    """A wall clock that counts how often it is read."""

    __slots__ = ("reads",)

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0

    @property
    def now(self) -> float:
        self.reads += 1
        return super().now


async def _start_nodes(token, codecs, ring_bytes=MIN_RING_BYTES, clock=None):
    """One started, peered ShmTransport per entry of ``codecs`` (pid = index)."""
    transports = [
        ShmTransport(pid, token, codec=codec, ring_bytes=ring_bytes)
        for pid, codec in enumerate(codecs)
    ]
    sinks = [_Sink(pid) for pid in range(len(codecs))]
    for transport, sink in zip(transports, sinks):
        AsyncioRuntime(transport, clock=clock or MonotonicClock()).register(sink)
    peers = {t.pid: await t.start_server() for t in transports}
    for transport in transports:
        transport.set_peers(peers)
        await transport.start()
    return transports, sinks


def _proposal(view: int, tag: str = "") -> Proposal:
    block = Block(view=view, parent_id="genesis", proposer=0, payload=("tx", tag))
    return Proposal(view=view, block=block, justify=None)


def test_memo_never_grows_past_its_bound():
    codec = _spy_codec()
    first, second = (ShmTransport(pid, "unused", codec=codec) for pid in (0, 1))
    first._share_frames(True)
    second._share_frames(True)
    for i in range(10_000):
        body = codec.encode_frame(0, f"frame-{i}")[4:]
        assert first._decode(body) == (0, f"frame-{i}")
        assert second._decode(memoryview(body)) == (0, f"frame-{i}")
        assert len(codec.frames) <= FrameMemo.BOUND
    # Every frame was decoded once and found once, even across retirements.
    assert len(codec.decoded) == first.frames_decoded == 10_000
    assert second.frames_decoded == 0 and codec.frames.lookups == 20_000
    first._share_frames(False)
    assert len(codec.frames) > 0  # one sharer left: kept, just not consulted
    second._share_frames(False)
    assert len(codec.frames) == 0 and codec.frames.sharers == 0


@pytest.mark.tcp
class TestFrameMemo:
    def test_co_located_recipients_share_one_decode_and_one_block_id(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1, 2], MIN_RING_BYTES)
        codec = _spy_codec()
        proposal = _proposal(3)

        async def run():
            transports, sinks = await _start_nodes(token, [codec] * 3)
            try:
                transports[0].broadcast(0, proposal)
                await _wait_until(lambda: all(len(sink.received) == 1 for sink in sinks))
            finally:
                for transport in transports:
                    await transport.stop()
            return transports, sinks

        with use_backend(make_backend("counting")) as backend:
            transports, sinks = asyncio.run(run())
            (_, own), (_, first), (_, second) = (sink.received[0] for sink in sinks)
            assert own is proposal  # loopback never meets the codec
            assert first == proposal and first is second and first is not proposal
            assert len(codec.decoded) == 1
            assert sorted(t.frames_decoded for t in transports) == [0, 0, 1]
            assert [t.messages_delivered for t in transports] == [1, 1, 1]
            before = backend.digest_calls
            assert first.block.block_id == second.block.block_id
            assert backend.digest_calls == before + 1
        destroy_cluster_rings(segments)

    def test_an_equivocating_senders_frames_decode_separately(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1, 2], MIN_RING_BYTES)
        codec = _spy_codec()

        async def run():
            transports, sinks = await _start_nodes(token, [codec] * 3)
            try:
                transports[0].send(0, 1, _proposal(3, "a"))
                transports[0].send(0, 2, _proposal(3, "b"))
                await _wait_until(lambda: sinks[1].received and sinks[2].received)
            finally:
                for transport in transports:
                    await transport.stop()
            return sinks

        sinks = asyncio.run(run())
        (_, first), (_, second) = sinks[1].received[0], sinks[2].received[0]
        assert len(codec.decoded) == 2
        assert first.block.payload == ("tx", "a") and second.block.payload == ("tx", "b")
        destroy_cluster_rings(segments)

    def test_a_transport_alone_on_its_codec_decodes_in_place(self):
        # One replica per process: nothing to share with, so a frame is
        # decoded where it lies in the ring and the memo is never asked.
        token = _token()
        segments = create_cluster_rings(token, [0, 1], DEFAULT_RING_BYTES)
        codecs = [_spy_codec(), _spy_codec()]

        async def run():
            transports, sinks = await _start_nodes(token, codecs, DEFAULT_RING_BYTES)
            try:
                for view in range(20):
                    transports[0].send(0, 1, _proposal(view))
                await _wait_until(lambda: len(sinks[1].received) == 20)
            finally:
                for transport in transports:
                    await transport.stop()
            return transports

        transports = asyncio.run(run())
        assert codecs[1].decoded == [memoryview] * 20
        assert transports[1].frames_decoded == 20
        assert all(codec.frames.lookups == 0 and len(codec.frames) == 0 for codec in codecs)
        destroy_cluster_rings(segments)

    def test_a_malformed_frame_is_reported_per_recipient_and_never_cached(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1, 2], MIN_RING_BYTES)
        codec = _spy_codec()
        garbage = _frame(b"\x00\xff")  # sender 0, then an unknown tag

        async def run():
            transports, sinks = await _start_nodes(token, [codec] * 3)
            try:
                transports[0]._push(1, garbage)
                transports[0]._push(2, garbage)
                transports[0].broadcast(0, "after", include_self=False)
                await _wait_until(lambda: sinks[1].received and sinks[2].received)
                remembered = len(codec.frames)
            finally:
                for transport in transports:
                    await transport.stop()
            return transports, remembered

        transports, remembered = asyncio.run(run())
        for transport in transports[1:]:
            assert len(transport.last_errors) == 1 and transport.frames_rejected == 1
            assert "unknown tag" in transport.last_errors[0]
        # Both recipients tried the bad frame; only the good one is kept.
        assert len(codec.decoded) == 3 and remembered == 1
        destroy_cluster_rings(segments)

    def test_one_clock_read_stamps_each_envelope(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1], MIN_RING_BYTES)
        clock = _CountingClock()
        minted, delivered = [], []

        async def run():
            transports, sinks = await _start_nodes(
                token, [default_codec()] * 2, clock=clock
            )
            transports[0].send_listeners.append(minted.append)
            transports[1].deliver_listeners.append(delivered.append)
            try:
                before = clock.reads
                transports[0].send(0, 1, "ping")
                assert clock.reads == before + 1
                transports[0].broadcast(0, "fanout", include_self=False)
                assert clock.reads == before + 2
                await _wait_until(lambda: len(sinks[1].received) == 2)
                # ... and one per frame on the way in.
                assert clock.reads == before + 4
            finally:
                for transport in transports:
                    await transport.stop()

        asyncio.run(run())
        assert len(minted) == 2 and len(delivered) == 2
        for envelope in minted + delivered:
            assert envelope.send_time <= envelope.deliver_time
        assert minted[0].send_time <= delivered[0].send_time
        destroy_cluster_rings(segments)


# ----------------------------------------------------------------------
# Chaos composition: FaultyTransport wraps shm unchanged
# ----------------------------------------------------------------------
@pytest.mark.tcp
class TestChaosOverShm:
    def test_drop_injector_counts_in_fault_counters(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1], MIN_RING_BYTES)
        counters = Counters()

        async def run():
            (t0, t1), sinks = await _start_pair(
                token,
                MIN_RING_BYTES,
                wrap0=lambda inner: FaultyTransport(
                    inner,
                    chaos=ChaosConfig(drop_rate=0.5, seed=11),
                    counters=counters,
                ),
            )
            try:
                for i in range(60):
                    t0.send(0, 1, f"maybe-{i}")
                await _wait_until(
                    lambda: len(sinks[1].received)
                    + counters.as_dict()["drops"] >= 60
                )
            finally:
                await t0.stop()
                await t1.stop()
            return sinks

        sinks = asyncio.run(run())
        drops = counters.as_dict()["drops"]
        assert 0 < drops < 60  # the injector really fired, and not on everything
        assert len(sinks[1].received) == 60 - drops
        destroy_cluster_rings(segments)

    def test_targeted_delay_schedule_counts_and_delays(self):
        token = _token()
        segments = create_cluster_rings(token, [0, 1], MIN_RING_BYTES)
        counters = Counters()
        network = NetworkConfig(delta=1.0, gst=0.0, actual_delay=0.05)
        schedule = TargetedDelay(
            base=FixedDelay(0.0),
            targets=frozenset({1}),
            target_delay=0.3,
            direction="to",
        )

        async def run():
            (t0, t1), sinks = await _start_pair(
                token,
                MIN_RING_BYTES,
                wrap0=lambda inner: FaultyTransport(
                    inner, schedule=schedule, network=network, counters=counters
                ),
            )
            loop = asyncio.get_running_loop()
            sent_at = loop.time()
            try:
                t0.send(0, 1, "slowed")
                await _wait_until(lambda: len(sinks[1].received) >= 1)
                arrival = loop.time() - sent_at
            finally:
                await t0.stop()
                await t1.stop()
            return arrival

        arrival = asyncio.run(run())
        assert counters.as_dict()["targeted_delays"] == 1
        # The hold-then-forward lane held the frame for the proposed delay.
        assert arrival >= 0.25
        destroy_cluster_rings(segments)


# ----------------------------------------------------------------------
# Cluster equivalence: transport="shm" is an execution detail
# ----------------------------------------------------------------------
@pytest.mark.tcp
def test_shm_and_tcp_process_clusters_agree():
    """Same config + seed ⇒ same committed chain over rings or sockets.

    Wall-clock runs stop at slightly different points, so the comparison is
    over the common prefix, which must cover at least the commit target.
    """
    target = 5
    config = ScenarioConfig(
        n=4, pacemaker="lumiere", delta=0.5, duration=30.0,
        seed=3,
    )

    async def run(transport: str):
        cluster = make_live_cluster(config, placement="process", transport=transport)
        try:
            commits = await asyncio.wait_for(
                cluster.run_until_commits(target, timeout=30.0), timeout=40.0
            )
        finally:
            await cluster.stop()
        assert commits >= target
        assert cluster.teardown_errors == []
        ledger = min(
            (list(r.ledger) for r in cluster.result().residues().values()), key=len
        )
        return ledger

    shm_chain = asyncio.run(run("shm"))
    tcp_chain = asyncio.run(run("tcp"))
    prefix = min(len(shm_chain), len(tcp_chain))
    assert prefix >= target
    assert shm_chain[:prefix] == tcp_chain[:prefix]
