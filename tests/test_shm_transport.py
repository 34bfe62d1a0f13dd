"""Shared-memory transport tests: ring mechanics, live delivery, chaos.

Layers, mirroring how the transport is built:

* :class:`~repro.runtime.shm.SpscRing` unit tests over a plain bytearray —
  wraparound (prefix and body split across the ring edge), overflow
  accounting, monotonic never-wrapping indices, and the producer/consumer
  sleep-flag handshake, exercised through *two* ring views over one buffer
  exactly as two processes would see it;
* the ring topology: one segment per (sender pid, reading worker);
* in-process :class:`~repro.runtime.shm.ShmTransport` nodes over real
  shared-memory segments and UDP doorbells, one
  :class:`~repro.runtime.shm.ShmEndpoint` per worker — delivery, overflow
  surfacing through ``frames_dropped``/``last_errors``, a malformed frame
  through ``frames_rejected``/``last_errors``, teardown and post-stop sends;
* chaos composition: a :class:`~repro.faults.transport.FaultyTransport`
  wrapping shm counts drops and targeted delays in its ``Counters`` bag
  exactly as it does over TCP;
* one decode per frame: a worker decodes each frame once, in place, and
  hands every local recipient the same payload without a frame memo (the
  memo is the TCP transports' and is pinned here too);
* clusters: one worker pushes once per broadcast and rings about once per
  burst, two workers use 2n segments and agree with TCP, and a killed
  coordinator leaves no worker and no segment behind.

The wall-clock tests (everything touching real segments or sockets) are
``tcp``-marked so CI's tier-1 matrix skips them; the live-smoke job runs
this file in full.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import uuid
from pathlib import Path

import pytest

from repro.consensus.blocks import Block
from repro.consensus.messages import Proposal
from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig
from repro.runner import make_live_cluster
from repro.runtime.asyncio_runtime import AsyncioRuntime, MonotonicClock
from repro.faults import FaultyTransport, FixedDelay, Lossy, NetworkConfig, TargetedDelay
from repro.metrics.collector import MetricsCollector
from repro.metrics.counters import Counters
from repro.runtime.codec import (
    FrameMemo,
    WireCodec,
    _register_library_messages,
    default_codec,
)
from repro.runtime.shm import (
    DEFAULT_RING_BYTES,
    EVERY_LOCAL,
    MIN_RING_BYTES,
    RING_HEADER_BYTES,
    ShmEndpoint,
    ShmTransport,
    SpscRing,
    attach_ring,
    create_cluster_rings,
    destroy_cluster_rings,
    ring_segment_name,
)
from repro.runtime.tcp import TcpTransport


def _frame(body: bytes) -> bytes:
    """A wire frame exactly as the codec emits one: 4-byte BE prefix + body."""
    return len(body).to_bytes(4, "big") + body


def _tagged(tag: int, frame: bytes) -> bytes:
    """A ring frame: the ring's prefix, the recipient tag, the codec frame."""
    return (len(frame) + 2).to_bytes(4, "big") + tag.to_bytes(2, "big") + frame


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
        segments = create_cluster_rings(token, [[0], [1]], MIN_RING_BYTES)
        try:
            assert len(segments) == 2  # one per (sender, reading worker)
            attached = attach_ring(ring_segment_name(token, 0, 1))
            assert attached.size >= RING_HEADER_BYTES + MIN_RING_BYTES
            attached.close()
        finally:
            destroy_cluster_rings(segments)
        with pytest.raises(FileNotFoundError):
            attach_ring(ring_segment_name(token, 0, 1))

    @pytest.mark.tcp
    @pytest.mark.parametrize("shards,count", [
        ([[0, 1, 2, 3]], 4),  # every replica in one worker: one ring each
        ([[0, 1], [2, 3]], 8),
        ([[0, 1, 2], [3]], 7),  # pid 3 alone: no ring into its own worker
        ([[0], [1], [2], [3]], 12),  # a worker per pid: n(n - 1)
    ])
    def test_one_ring_per_sender_and_reading_worker(self, shards, count):
        token = _token()
        segments = create_cluster_rings(token, shards, MIN_RING_BYTES)
        try:
            names = {segment.name.lstrip("/") for segment in segments}
            assert len(names) == len(segments) == count
            for worker, pids in enumerate(shards):
                for src in range(4):
                    hosts_another = any(pid != src for pid in pids)
                    assert (ring_segment_name(token, src, worker) in names) == hosts_another
        finally:
            destroy_cluster_rings(segments)

    def test_tiny_rings_are_rejected(self):
        with pytest.raises(ConfigurationError):
            create_cluster_rings(_token(), [[0], [1]], MIN_RING_BYTES - 1)
        with pytest.raises(ConfigurationError):
            ShmEndpoint(_token(), [[0, 1]], 0, ring_bytes=MIN_RING_BYTES - 1)

    def test_transport_hosts_exactly_its_own_pid(self):
        endpoint = ShmEndpoint(_token(), [[2], [3]], 0)
        transport = ShmTransport(2, endpoint)

        class Proc:
            pid = 3

        with pytest.raises(ConfigurationError):
            transport.register(Proc())
        with pytest.raises(ConfigurationError):
            ShmTransport(3, endpoint)  # another worker's pid
        with pytest.raises(ConfigurationError):
            ShmTransport(2, endpoint)  # one transport per pid


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
# Live in-process nodes over real segments and doorbells
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


#: Two pids in a worker each (the pair tests), and in one worker.
APART = ((0,), (1,))
TOGETHER = ((0, 1),)


async def _start_nodes(token, shards, ring_bytes=MIN_RING_BYTES, codecs=None,
                       clock=None, wrap0=None):
    """A started, peered ShmTransport for every pid of ``shards`` (pid order),
    one ShmEndpoint per worker — every worker on this one loop — and their sinks.

    ``codecs`` optionally gives each worker its codec; ``wrap0`` optionally
    decorates pid 0's transport (chaos tests) before the runtime binds it.
    """
    endpoints = [
        ShmEndpoint(token, shards, worker, ring_bytes=ring_bytes,
                    codec=codecs[worker] if codecs is not None else None)
        for worker in range(len(shards))
    ]
    inner = {
        pid: ShmTransport(pid, endpoints[worker])
        for worker, pids in enumerate(shards) for pid in pids
    }
    outer = {pid: wrap0(t) if wrap0 is not None and pid == 0 else t for pid, t in inner.items()}
    sinks = [_Sink(pid) for pid in sorted(inner)]
    for sink in sinks:
        outer[sink.pid].bind(AsyncioRuntime(clock=clock or MonotonicClock()))
        outer[sink.pid].register(sink)
    peers = {pid: await t.start_server() for pid, t in inner.items()}
    for transport in inner.values():
        transport.set_peers(peers)
    for pid in sorted(outer):
        await outer[pid].start()
    return [outer[pid] for pid in sorted(outer)], sinks


async def _start_pair(token, ring_bytes=DEFAULT_RING_BYTES, wrap0=None):
    """Pids 0 and 1, a worker each, on one loop, started and peered."""
    transports, sinks = await _start_nodes(token, APART, ring_bytes, wrap0=wrap0)
    return tuple(transports), sinks


@pytest.mark.tcp
class TestShmTransportPair:
    def test_send_and_broadcast_deliver_across_segments(self):
        token = _token()
        segments = create_cluster_rings(token, APART, MIN_RING_BYTES)

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
        segments = create_cluster_rings(token, APART, MIN_RING_BYTES)

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
        segments = create_cluster_rings(token, APART, MIN_RING_BYTES)

        async def run():
            # Only the producer runs: nothing ever drains ring 0 -> worker 1.
            t0 = ShmTransport(0, ShmEndpoint(token, APART, 0, ring_bytes=MIN_RING_BYTES))
            t0.bind(AsyncioRuntime(clock=MonotonicClock()))
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
        segments = create_cluster_rings(token, APART, MIN_RING_BYTES)

        async def run():
            (t0, t1), sinks = await _start_pair(token, MIN_RING_BYTES)
            metrics = MetricsCollector()
            metrics.attach_transport(t1)
            try:
                # Sender 0, then an unknown wire tag, for pid 1.
                t0._push(*t0._ring_to[1], _tagged(1, _frame(b"\x00\xff")))
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
        segments = create_cluster_rings(token, APART, MIN_RING_BYTES)

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

    def test_one_worker_reads_its_own_replicas_without_a_datagram(self):
        """Both pids in one worker: each pushes into the ring of the worker
        it lives in, a broadcast is one push, and a wake-up is a scheduled
        drain of the worker's own endpoint, never a datagram."""
        token = _token()
        segments = create_cluster_rings(token, TOGETHER, MIN_RING_BYTES)
        assert len(segments) == 2

        async def run():
            (t0, t1), sinks = await _start_nodes(token, TOGETHER)
            endpoint = t0.endpoint
            assert t1.endpoint is endpoint
            datagrams = []
            loop = asyncio.get_running_loop()
            loop.remove_reader(endpoint._sock.fileno())
            loop.add_reader(endpoint._sock.fileno(), lambda: datagrams.append(
                endpoint._sock.recv(64)))
            try:
                t0.send(0, 1, "unicast")
                t1.broadcast(1, "fanout")
                await _wait_until(lambda: len(sinks[0].received) == 1
                                  and len(sinks[1].received) == 2)
            finally:
                await t0.stop()
            assert t1._stopped  # the worker stops as one
            return (t0, t1), sinks, datagrams

        (t0, t1), sinks, datagrams = asyncio.run(run())
        destroy_cluster_rings(segments)
        assert sinks[1].received == [(0, "unicast"), (1, "fanout")]
        assert sinks[0].received == [(1, "fanout")]
        assert t0.shm_pushes == t1.shm_pushes == 1 and datagrams == []
        assert t0.shm_doorbells + t1.shm_doorbells >= 1
        assert t0.frames_decoded + t1.frames_decoded == 2


# ----------------------------------------------------------------------
# One decode per frame per worker
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


def _proposal(view: int, tag: str = "") -> Proposal:
    block = Block(view=view, parent_id="genesis", proposer=0, payload=("tx", tag))
    return Proposal(view=view, block=block, justify=None)


def test_memo_never_grows_past_its_bound():
    # The memo is the TCP transports' (a shm worker decodes each frame once
    # by construction and never consults it).
    codec = _spy_codec()
    first, second = (TcpTransport(pid, codec=codec) for pid in (0, 1))
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
        segments = create_cluster_rings(token, [[0, 1, 2]], MIN_RING_BYTES)
        codec = _spy_codec()
        proposal = _proposal(3)

        async def run():
            transports, sinks = await _start_nodes(token, [[0, 1, 2]], codecs=[codec])
            try:
                transports[0].broadcast(0, proposal)
                await _wait_until(lambda: all(len(sink.received) == 1 for sink in sinks))
            finally:
                for transport in transports:
                    await transport.stop()
            return transports, sinks

        transports, sinks = asyncio.run(run())
        (_, own), (_, first), (_, second) = (sink.received[0] for sink in sinks)
        assert own is proposal  # loopback never meets the codec
        assert first == proposal and first is second and first is not proposal
        assert codec.decoded == [memoryview]  # once, in place in the ring
        assert codec.frames.lookups == 0 and codec.frames.sharers == 0
        assert sorted(t.frames_decoded for t in transports) == [0, 0, 1]
        assert [t.shm_pushes for t in transports] == [1, 0, 0]
        assert [t.messages_delivered for t in transports] == [1, 1, 1]
        # One decoded block: the id derived for one recipient is cached for both.
        assert first.block.block_id == proposal.block.block_id
        assert vars(second.block)["block_id"] == proposal.block.block_id
        destroy_cluster_rings(segments)

    def test_an_equivocating_senders_frames_decode_separately(self):
        token = _token()
        segments = create_cluster_rings(token, [[0, 1, 2]], MIN_RING_BYTES)
        codec = _spy_codec()

        async def run():
            transports, sinks = await _start_nodes(token, [[0, 1, 2]], codecs=[codec])
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
        # One replica per worker: a frame is decoded where it lies in the
        # ring, as in a worker hosting several, and the memo is never asked.
        token = _token()
        segments = create_cluster_rings(token, APART, DEFAULT_RING_BYTES)
        codecs = [_spy_codec(), _spy_codec()]

        async def run():
            transports, sinks = await _start_nodes(token, APART, DEFAULT_RING_BYTES, codecs)
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
        segments = create_cluster_rings(token, [[0, 1, 2]], MIN_RING_BYTES)
        codec = _spy_codec()
        garbage = _frame(b"\x00\xff")  # sender 0, then an unknown tag

        async def run():
            transports, sinks = await _start_nodes(token, [[0, 1, 2]], codecs=[codec])
            try:
                sender = transports[0]
                # One bad frame for every local pid but its sender, one for pid 1.
                sender._push(*sender._ring_to[1], _tagged(EVERY_LOCAL, garbage))
                sender._push(*sender._ring_to[1], _tagged(1, garbage))
                sender.broadcast(0, "after", include_self=False)
                await _wait_until(lambda: sinks[1].received and sinks[2].received)
                remembered = len(codec.frames)
            finally:
                for transport in transports:
                    await transport.stop()
            return transports, remembered

        transports, remembered = asyncio.run(run())
        assert [t.frames_rejected for t in transports] == [0, 2, 1]
        for transport in transports[1:]:
            assert len(transport.last_errors) == transport.frames_rejected
            assert all("unknown tag" in error for error in transport.last_errors)
        # Each bad frame was tried once, whoever it was for; nothing is kept.
        assert len(codec.decoded) == 3 and remembered == 0
        assert sum(t.frames_decoded for t in transports) == 1
        destroy_cluster_rings(segments)

    def test_one_clock_read_stamps_each_envelope(self):
        token = _token()
        segments = create_cluster_rings(token, APART, MIN_RING_BYTES)
        clock = _CountingClock()
        minted, delivered = [], []

        async def run():
            transports, sinks = await _start_nodes(token, APART, clock=clock)
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
        segments = create_cluster_rings(token, APART, MIN_RING_BYTES)
        counters = Counters()

        async def run():
            (t0, t1), sinks = await _start_pair(
                token,
                MIN_RING_BYTES,
                wrap0=lambda inner: FaultyTransport(
                    inner,
                    Lossy(drop_rate=0.5, seed=11),
                    NetworkConfig(),
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
        segments = create_cluster_rings(token, APART, MIN_RING_BYTES)
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


# ----------------------------------------------------------------------
# Clusters: one drain and one doorbell per worker
# ----------------------------------------------------------------------
def _counting_sends(monkeypatch) -> None:
    """Count each ShmTransport broadcast and remote unicast that reaches the
    rings into its replica's counter bag (forked workers inherit the patch,
    and the bag ships home in the run's counts)."""
    broadcast, send = ShmTransport.broadcast, ShmTransport.send

    def counting_broadcast(self, sender, payload, include_self=True):
        if not self._stopped:
            self._process.metrics.counters.bump("test.broadcasts")
        broadcast(self, sender, payload, include_self)

    def counting_send(self, sender, recipient, payload):
        if not self._stopped and recipient != self.pid:
            self._process.metrics.counters.bump("test.unicasts")
        send(self, sender, recipient, payload)

    monkeypatch.setattr(ShmTransport, "broadcast", counting_broadcast)
    monkeypatch.setattr(ShmTransport, "send", counting_send)


@pytest.mark.tcp
def test_one_worker_pushes_once_per_broadcast_and_rings_once_per_burst(monkeypatch):
    """n = 4 in one worker: a broadcast is one push, a burst of frames wakes
    the worker once (not once per push), and each frame is decoded once."""
    _counting_sends(monkeypatch)
    config = ScenarioConfig(n=4, pacemaker="lumiere", delta=0.5, duration=30.0, seed=3)

    async def run():
        cluster = make_live_cluster(config, placement="process", processes=1, transport="shm")
        try:
            await asyncio.wait_for(cluster.run_until_commits(100, timeout=20.0), timeout=30.0)
        finally:
            await cluster.stop()
        return cluster

    cluster = asyncio.run(run())
    assert cluster.teardown_errors == [] and cluster.ledgers_are_consistent()
    counts = cluster.metrics.counts
    blocks = cluster.result().committed_blocks()
    assert blocks >= 100 and counts["frames_dropped"] == 0
    assert counts["test.broadcasts"] > 0 and counts["test.unicasts"] > 0
    # Pushes per broadcast == 1 (and one per remote unicast).
    assert counts["shm_pushes"] == counts["test.broadcasts"] + counts["test.unicasts"]
    # One wake-up per burst: the pair rings rang 11.2 times per view.
    assert counts["shm_doorbells"] <= 3 * blocks
    # One decode per pushed frame (all but those still in a ring at stop).
    assert counts["shm_pushes"] - 8 <= counts["frames_decoded"] <= counts["shm_pushes"]
    assert counts["frames_rejected"] == 0


def _run_two_shm_workers(config: ScenarioConfig, seconds: float):
    """Run ``config`` on n = 4 in two shm workers for ``seconds`` wall seconds."""

    async def run():
        cluster = make_live_cluster(config, placement="process", processes=2, transport="shm")
        try:
            await cluster.run(seconds)
        finally:
            await cluster.stop()
        return cluster

    return asyncio.run(run())


def test_loss_runs_on_the_process_lane():
    """Loss is a delay model, so each worker's nodes impose it on their own
    sends.  Progress is not asserted: nothing retransmits a dropped frame."""
    config = ScenarioConfig(
        n=4, pacemaker="lumiere", delta=0.5, duration=30.0, seed=3,
        delay_model=Lossy(drop_rate=0.05, seed=1),
    )
    cluster = _run_two_shm_workers(config, 2.0)
    assert cluster.teardown_errors == []
    assert cluster.metrics.counts["drops"] > 0
    assert cluster.ledgers_are_consistent()


def test_one_partition_counts_one_epoch_across_two_workers():
    """Both workers defer messages across the same split window; the merged
    run still reports one partition epoch."""
    config = ScenarioConfig(
        n=4, pacemaker="lumiere", delta=0.3, gst=2.0, duration=30.0, seed=0,
        scenario="split_brain_at_gst",
    )
    cluster = _run_two_shm_workers(config, 3.0)
    assert cluster.teardown_errors == []
    counts = cluster.metrics.counts
    assert counts["partitioned_messages"] > 0
    assert counts["partition_epochs"] == 1


def _dev_shm() -> set[str]:
    return set(os.listdir("/dev/shm"))


@pytest.mark.tcp
def test_two_workers_use_eight_segments_and_agree_with_tcp():
    """n = 4 in two workers: 2 × 4 segments (n(n − 1) = 12 before), and the
    same committed chain as the TCP lane."""
    target = 5
    config = ScenarioConfig(n=4, pacemaker="lumiere", delta=0.5, duration=30.0, seed=3)
    created = []

    async def run(transport: str):
        cluster = make_live_cluster(config, placement="process", processes=2, transport=transport)
        before = _dev_shm()
        try:
            await cluster.start()
            created.append({name for name in _dev_shm() - before if name.startswith("repro-")})
            commits = await asyncio.wait_for(
                cluster.run_until_commits(target, timeout=30.0), timeout=40.0
            )
        finally:
            await cluster.stop()
        assert commits >= target
        assert cluster.teardown_errors == []
        return min((list(r.ledger) for r in cluster.result().residues().values()), key=len)

    shm_chain = asyncio.run(run("shm"))
    tcp_chain = asyncio.run(run("tcp"))
    assert len(created[0]) == 8 and created[1] == set()
    assert not created[0] & _dev_shm()  # unlinked at stop
    prefix = min(len(shm_chain), len(tcp_chain))
    assert prefix >= target
    assert shm_chain[:prefix] == tcp_chain[:prefix]


_COORDINATOR = textwrap.dedent("""
    import asyncio, os
    from repro.experiments.scenario import ScenarioConfig
    from repro.runner import make_live_cluster

    async def main():
        config = ScenarioConfig(n=4, pacemaker="lumiere", delta=0.5, duration=60.0, seed=3)
        cluster = make_live_cluster(config, placement="process", processes=2, transport="shm")
        await cluster.run_until_commits(3, timeout=30.0)
        print(*(worker.process.pid for worker in cluster._workers), flush=True)
        await asyncio.sleep(60.0)

    asyncio.run(main())
""")


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie nobody has reaped yet does not)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, IndexError):
        return False
    return state != "Z"


@pytest.mark.tcp
def test_a_killed_coordinator_leaves_no_worker_and_no_segment():
    """SIGKILL the coordinator of a two-worker shm cluster mid-run: within
    2 s no worker is alive and none of its segments is left in /dev/shm."""
    before = _dev_shm()
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR], stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        workers = [int(pid) for pid in coordinator.stdout.readline().split()]
        segments = {name for name in _dev_shm() - before if name.startswith("repro-")}
        assert len(workers) == 2 and len(segments) == 8
        os.kill(coordinator.pid, signal.SIGKILL)
        coordinator.wait(timeout=5.0)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            if not any(map(_alive, workers)) and not segments & _dev_shm():
                break
            time.sleep(0.02)
        assert [pid for pid in workers if _alive(pid)] == []
        assert sorted(segments & _dev_shm()) == []
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
        coordinator.stdout.close()
