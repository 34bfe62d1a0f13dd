"""Isolated microbenches for what the in-situ wrappers cannot reach.

The traced run times layers where they work, inside a cluster.  Some numbers
cannot be had that way: the shared-memory rings and doorbells live in worker
processes no wrapper reaches, a quorum of 43 never forms at n=4, and a codec
cost per message class needs every class, not the seven a Lumiere run sends.
Each function here measures one such thing on its own and returns
``{"median", "q1", "q3", "n"}`` over at least :data:`REPEATS` repeats, each
repeat a loop long enough (:data:`BATCH_SECONDS`) for the clock to resolve.

Run directly for a table of everything::

    python benchmarks/ledger/layers.py
"""

from __future__ import annotations

import multiprocessing
import socket
import sys
import time
from pathlib import Path
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from _stats import quartiles  # noqa: E402

#: Timed repeats per microbench (the issue asks for at least five).
REPEATS = 5
#: Minimum length of one timed repeat.
BATCH_SECONDS = 0.02


def _summary(samples: list[float]) -> dict[str, float]:
    q1, q2, q3 = quartiles(samples)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(samples)}


def _per_op(loop: Callable[[int], float], repeats: int = REPEATS) -> dict[str, float]:
    """Seconds per operation; ``loop(k)`` runs k operations and returns seconds.

    The first call sizes ``k`` so that one repeat lasts about
    :data:`BATCH_SECONDS`; it also serves as the warm-up.
    """
    k = 16
    while True:
        elapsed = loop(k)
        if elapsed >= BATCH_SECONDS / 4 or k >= 1 << 20:
            break
        k *= 4
    k = max(1, int(k * BATCH_SECONDS / max(elapsed, 1e-9)))
    return _summary([loop(k) / k for _ in range(repeats)])


# ----------------------------------------------------------------------
# The message zoo: one instance of every wire class
# ----------------------------------------------------------------------
def message_zoo() -> list:
    """One realistic instance of every class the wire codecs register.

    Sized like live traffic rather than like a unit test: the proposal
    carries a 32-command client batch (``kv_sat_inline``'s forward size)
    and certificates carry a quorum of three signers (n=4).
    """
    from repro.consensus.blocks import Block
    from repro.consensus.messages import (
        ConsensusMessage, NewView, Proposal, QCAnnounce, Vote,
    )
    from repro.consensus.quorum import QuorumCertificate
    from repro.core.messages import EpochViewMessage, ViewCertificate, ViewMessage
    from repro.crypto.signatures import Signature
    from repro.crypto.threshold import PartialSignature, ThresholdSignature
    from repro.pacemakers.backoff import ViewChangeMessage
    from repro.pacemakers.base import PacemakerMessage
    from repro.pacemakers.cogsworth import RelayCertificate, WishMessage
    from repro.pacemakers.fever import FeverViewCertificate, FeverViewMessage
    from repro.pacemakers.lp22 import LP22EpochCertificate, LP22EpochViewMessage
    from repro.runner.workload import WorkloadConfig, make_command
    from repro.statemachine.commands import encode_commands
    from repro.statemachine.messages import ClientMessage, CommandBatch, CommandForward

    digest = "3f9a1c0b7d2e4f6a8b1c3d5e7f9a0b2c"
    signature = Signature(signer=3, message_digest=digest, proof=digest[::-1])
    partial = PartialSignature(signer=3, message_digest=digest, signature=signature)
    aggregate = ThresholdSignature(
        message_digest=digest, threshold=3, signers=frozenset({0, 1, 3}),
        proof=digest[8:] + digest[:8],
    )
    workload = WorkloadConfig()
    batch = CommandBatch(
        count=32,
        data=encode_commands([make_command(workload, 5, seq) for seq in range(32)]),
    )
    block = Block(
        view=7, parent_id=digest, proposer=2, payload=(batch,), justify_view=6
    )
    qc = QuorumCertificate(view=6, block_id=digest, aggregate=aggregate)
    return [
        signature, partial, aggregate, block, qc,
        ConsensusMessage(view=4), PacemakerMessage(),
        NewView(view=8, high_qc=qc),
        Proposal(view=7, block=block, justify=qc),
        QCAnnounce(view=7, qc=qc, block=block),
        Vote(view=7, block_id=digest, partial=partial),
        EpochViewMessage(view=9, partial=partial),
        ViewMessage(view=9, partial=partial),
        ViewCertificate(view=9, aggregate=aggregate),
        ViewChangeMessage(view=10, partial=partial),
        WishMessage(view=11, partial=partial),
        RelayCertificate(view=11, aggregate=aggregate),
        FeverViewMessage(view=12, partial=partial),
        FeverViewCertificate(view=12, aggregate=aggregate),
        LP22EpochViewMessage(view=13, partial=partial),
        LP22EpochCertificate(view=13, aggregate=aggregate),
        ClientMessage(), batch, CommandForward(batch=batch),
    ]


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def bench_codec() -> dict[str, dict[str, dict[str, float]]]:
    """Binary-codec encode / decode seconds and frame bytes, per zoo class."""
    from repro.runtime.codec import LENGTH_PREFIX_BYTES, make_codec

    codec = make_codec("binary")
    table: dict[str, dict[str, dict[str, float]]] = {}
    for message in message_zoo():
        frame = codec.encode_frame(1, message)
        body = frame[LENGTH_PREFIX_BYTES:]

        def encode(k: int, message=message) -> float:
            started = time.perf_counter()
            for _ in range(k):
                codec.encode_into(1, message, bytearray())
            return time.perf_counter() - started

        def decode(k: int, body=body) -> float:
            started = time.perf_counter()
            for _ in range(k):
                codec.decode_body(body)
            return time.perf_counter() - started

        table[type(message).__name__] = {
            "encode_s": _per_op(encode),
            "decode_s": _per_op(decode),
            "bytes": {"median": float(len(frame)), "q1": float(len(frame)),
                      "q3": float(len(frame)), "n": 1},
        }
    return table


def weighted_codec(
    table: dict[str, dict[str, dict[str, float]]], kind_mix: dict[str, int]
) -> dict[str, float]:
    """Per-frame encode ns, decode ns and bytes under a message-kind mix.

    ``kind_mix`` is what ``MetricsCollector.message_kinds_between`` reports;
    kinds outside the zoo are ignored, and an empty mix weighs every class
    equally.
    """
    weights = {kind: count for kind, count in kind_mix.items() if kind in table}
    if not weights:
        weights = {kind: 1 for kind in table}
    total = sum(weights.values())
    return {
        "encode_ns": sum(table[k]["encode_s"]["median"] * w for k, w in weights.items()) / total * 1e9,
        "decode_ns": sum(table[k]["decode_s"]["median"] * w for k, w in weights.items()) / total * 1e9,
        "bytes": sum(table[k]["bytes"]["median"] * w for k, w in weights.items()) / total,
    }


# ----------------------------------------------------------------------
# shm ring
# ----------------------------------------------------------------------
def bench_ring() -> dict[str, dict[str, float]]:
    """``SpscRing.try_push`` and ``peek``+``consume`` on the zoo's frames."""
    from repro.runtime.codec import make_codec
    from repro.runtime.shm import DEFAULT_RING_BYTES, RING_HEADER_BYTES, SpscRing

    codec = make_codec("binary")
    frames = [codec.encode_frame(1, message) for message in message_zoo()]
    frame_bytes = sum(len(frame) for frame in frames)
    backing = bytearray(RING_HEADER_BYTES + DEFAULT_RING_BYTES)
    ring = SpscRing(memoryview(backing), DEFAULT_RING_BYTES)
    moved = {"push": 0.0, "pop": 0.0}

    def push(k: int) -> float:
        # One operation = the whole zoo pushed; popped untimed so the ring
        # never fills.
        elapsed = 0.0
        for _ in range(k):
            started = time.perf_counter()
            for frame in frames:
                ring.try_push(frame)
            elapsed += time.perf_counter() - started
            while ring.peek() is not None:
                ring.consume()
        moved["push"] = elapsed / k
        return elapsed

    def pop(k: int) -> float:
        elapsed = 0.0
        for _ in range(k):
            for frame in frames:
                ring.try_push(frame)
            started = time.perf_counter()
            while ring.peek() is not None:
                ring.consume()
            elapsed += time.perf_counter() - started
        moved["pop"] = elapsed / k
        return elapsed

    push_zoo = _per_op(push)
    pop_zoo = _per_op(pop)
    ring.detach()
    per_frame = len(frames)
    scale = lambda s, f: {key: (f(v) if key != "n" else v) for key, v in s.items()}  # noqa: E731
    both = push_zoo["median"] + pop_zoo["median"]
    return {
        "push_s_per_frame": scale(push_zoo, lambda v: v / per_frame),
        "pop_s_per_frame": scale(pop_zoo, lambda v: v / per_frame),
        "mb_per_s": {
            "median": frame_bytes / both / 1e6,
            # Faster repeats give the higher rate: q1 of the rate pairs
            # with q3 of the times.
            "q1": frame_bytes / (push_zoo["q3"] + pop_zoo["q3"]) / 1e6,
            "q3": frame_bytes / (push_zoo["q1"] + pop_zoo["q1"]) / 1e6,
            "n": push_zoo["n"],
        },
    }


# ----------------------------------------------------------------------
# doorbell wake and control-pipe round trip, between two processes
# ----------------------------------------------------------------------
def _echo_child(conn, address) -> None:
    """Echo pipe messages and UDP datagrams back until told to stop."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(10.0)
        conn.send(sock.getsockname())
        while True:
            message = conn.recv()
            if message == "stop":
                return
            if message == "udp":
                # Park in recvfrom like a sleeping ring consumer; one poke
                # wakes it, and it pokes back.
                for _ in range(conn.recv()):
                    _, sender = sock.recvfrom(16)
                    sock.sendto(b"!", sender)
            else:
                conn.send(message)
    finally:
        sock.close()
        conn.close()


def bench_process_hops(rounds: int = 200) -> dict[str, dict[str, float]]:
    """Doorbell wake (UDP poke to a parked process, half the ping-pong) and
    ``multiprocessing.Pipe`` round trip, against one spawned echo process."""
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(10.0)
    child = ctx.Process(
        target=_echo_child, args=(child_conn, sock.getsockname()), daemon=True
    )
    child.start()
    child_conn.close()
    try:
        if not parent_conn.poll(30.0):
            raise RuntimeError("echo process did not start")
        peer = parent_conn.recv()
        pipe_samples, wake_samples = [], []
        for _ in range(REPEATS):
            started = time.perf_counter()
            for _ in range(rounds):
                parent_conn.send(b"ping")
                parent_conn.recv()
            pipe_samples.append((time.perf_counter() - started) / rounds)
            parent_conn.send("udp")
            parent_conn.send(rounds)
            started = time.perf_counter()
            for _ in range(rounds):
                sock.sendto(b"!", peer)
                sock.recvfrom(16)
            wake_samples.append((time.perf_counter() - started) / rounds / 2)
        parent_conn.send("stop")
        child.join(timeout=10.0)
    finally:
        if child.is_alive():
            child.terminate()
            child.join(timeout=5.0)
        sock.close()
        parent_conn.close()
    return {
        "pipe_rtt_s": _summary(pipe_samples),
        "doorbell_wake_s": _summary(wake_samples),
    }


# ----------------------------------------------------------------------
# crypto: batched verification per quorum size
# ----------------------------------------------------------------------
def bench_verify_batch(quorum: int) -> dict[str, float]:
    """``CryptoBackend.verify_batch`` over ``quorum`` shares of one message
    (hashing backend), as ``ThresholdScheme.combine`` issues it."""
    from repro.crypto.backend import make_backend
    from repro.crypto.signatures import PKI
    from repro.crypto.threshold import ThresholdScheme

    backend = make_backend("hashing")
    pki, keys = PKI.setup(range(quorum), backend=backend)
    scheme = ThresholdScheme(pki)
    message = ("view", 7)
    digest = backend.digest(message)
    partials = [scheme.partial_sign(keys[pid], message, digest) for pid in range(quorum)]
    items = pki.batch_verify_items([p.signature for p in partials], digest)
    if items is None or not backend.verify_batch(items):
        raise RuntimeError("verify_batch rejected a quorum of valid shares")

    def loop(k: int) -> float:
        started = time.perf_counter()
        for _ in range(k):
            backend.verify_batch(items)
        return time.perf_counter() - started

    return _per_op(loop)


# ----------------------------------------------------------------------
# statemachine: KVStore.apply
# ----------------------------------------------------------------------
def bench_kv_apply() -> dict[str, float]:
    """``KVStore.apply`` per command, fresh identities (no duplicates)."""
    from repro.runner.workload import WorkloadConfig, make_command
    from repro.statemachine.kvstore import KVStore

    workload = WorkloadConfig()
    commands = [make_command(workload, client, seq) for seq in range(256) for client in range(8)]

    def loop(k: int) -> float:
        elapsed = 0.0
        done = 0
        while done < k:
            store = KVStore()
            chunk = commands[: k - done]
            started = time.perf_counter()
            for command in chunk:
                store.apply(command)
            elapsed += time.perf_counter() - started
            done += len(chunk)
        return elapsed

    return _per_op(loop)


# ----------------------------------------------------------------------
# metrics: cross-process merge
# ----------------------------------------------------------------------
def bench_metrics_merge() -> dict[str, float]:
    """``merge_metrics_states`` over two synthetic shard snapshots of a
    fixed size (20 000 messages, 500 decisions, 2 000 commits and 5 000
    requests each), so the number compares across commits."""
    from repro.metrics.collector import MetricsCollector, merge_metrics_states
    from repro.sim.network import Envelope

    states = []
    for shard in range(2):
        collector = MetricsCollector()
        collector.set_honest(range(4))
        for index in range(20_000):
            sender = 2 * shard + index % 2
            collector.on_send(
                _envelope(Envelope, index, sender, (sender + 1) % 4, index * 1e-4)
            )
        for index in range(500):
            collector.record_decision(index * 4e-3, index, 2 * shard + index % 2)
        for index in range(2_000):
            collector.record_commit(2 * shard + index % 2, index // 2, f"b{index // 2}", index * 1e-3)
        for index in range(5_000):
            collector.record_request_submitted(2 * shard)
            collector.record_request_applied(2 * shard, index * 4e-4, index * 4e-4 + 0.02)
        states.append(collector.state())

    def loop(k: int) -> float:
        started = time.perf_counter()
        for _ in range(k):
            merge_metrics_states(states)
        return time.perf_counter() - started

    # One merge is already tens of milliseconds: time single merges.
    loop(1)
    return _summary([loop(1) for _ in range(REPEATS)])


def _envelope(envelope_cls, msg_id: int, sender: int, recipient: int, when: float):
    """A sim ``Envelope`` by field name (its field order is not this file's business)."""
    fields = {
        "msg_id": msg_id, "sender": sender, "recipient": recipient,
        "payload": _PAYLOADS[msg_id % len(_PAYLOADS)], "send_time": when,
        "deliver_time": when, "payload_digest": None,
    }
    return envelope_cls(**{name: fields[name] for name in envelope_cls._fields})


class _Vote:
    pass


class _Proposal:
    pass


_PAYLOADS = (_Vote(), _Proposal())


# ----------------------------------------------------------------------
# the two event kernels on one scenario
# ----------------------------------------------------------------------
def bench_kernels(duration: float = 4.0) -> dict[str, dict[str, float]]:
    """Events per CPU second of the discrete-event simulator and of the
    virtual-clock asyncio runtime, on the same fault-free n=64 Lumiere
    scenario — the number a verdict on keeping both kernels needs."""
    from repro.experiments.scenario import ScenarioConfig, run_scenario
    from repro.runner.live import run_live_scenario

    config = ScenarioConfig(
        n=64, pacemaker="lumiere", delta=1.0, actual_delay=0.1,
        duration=duration, seed=0, record_trace=False,
    )
    sim_samples, live_samples = [], []
    for _ in range(REPEATS):
        started = time.process_time()
        result = run_scenario(config)
        sim_samples.append(
            result.simulator.events_processed / (time.process_time() - started)
        )
        started = time.process_time()
        live = run_live_scenario(config)
        live_samples.append(live.events_processed / (time.process_time() - started))
    return {
        "sim_events_per_cpu_s": _summary(sim_samples),
        "vclock_events_per_cpu_s": _summary(live_samples),
    }


# ----------------------------------------------------------------------
# everything, as the flat numbers the per-layer metrics use
# ----------------------------------------------------------------------
def run_all(kind_mix: Optional[dict[str, int]] = None) -> dict[str, dict]:
    """Every microbench; ``kind_mix`` weighs the codec numbers."""
    codec_table = bench_codec()
    results = {
        "codec_per_class": codec_table,
        "codec_weighted": weighted_codec(codec_table, kind_mix or {}),
        "ring": bench_ring(),
        "process_hops": bench_process_hops(),
        "verify_batch": {q: bench_verify_batch(q) for q in (3, 11, 43)},
        "kv_apply_s": bench_kv_apply(),
        "metrics_merge_s": bench_metrics_merge(),
        "kernels": bench_kernels(),
    }
    return results


def _print_table(results: dict) -> None:
    def row(name: str, summary: dict[str, float], scale: float, unit: str) -> None:
        print(
            f"{name:<44} {summary['median'] * scale:>12.3f} {unit:<6} "
            f"q1 {summary['q1'] * scale:.3f}  q3 {summary['q3'] * scale:.3f}  n={summary['n']}"
        )

    for kind, cells in sorted(results["codec_per_class"].items()):
        row(f"codec.encode[{kind}]", cells["encode_s"], 1e9, "ns")
        row(f"codec.decode[{kind}]", cells["decode_s"], 1e9, "ns")
        row(f"codec.bytes[{kind}]", cells["bytes"], 1, "B")
    row("shm.push per frame", results["ring"]["push_s_per_frame"], 1e9, "ns")
    row("shm.pop per frame", results["ring"]["pop_s_per_frame"], 1e9, "ns")
    row("shm.ring throughput", results["ring"]["mb_per_s"], 1, "MB/s")
    row("shm.doorbell wake", results["process_hops"]["doorbell_wake_s"], 1e6, "us")
    row("proc.pipe round trip", results["process_hops"]["pipe_rtt_s"], 1e6, "us")
    for quorum, summary in results["verify_batch"].items():
        row(f"crypto.verify_batch[q={quorum}]", summary, 1e6, "us")
    row("statemachine.KVStore.apply", results["kv_apply_s"], 1e6, "us")
    row("metrics.merge_metrics_states", results["metrics_merge_s"], 1, "s")
    row("sim kernel", results["kernels"]["sim_events_per_cpu_s"], 1, "ev/s")
    row("virtual-clock kernel", results["kernels"]["vclock_events_per_cpu_s"], 1, "ev/s")


if __name__ == "__main__":
    _print_table(run_all())
