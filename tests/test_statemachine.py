"""Unit tests for the replicated state machine and the client-batch mempool.

Covers the three layers below the workload harness (whose end-to-end and
chaos coverage lives in ``tests/test_client_workload.py``):

* the command wire codec (varint round-trips, error paths);
* :class:`KVStore` / :class:`ReplicatedKV` — exactly-once application,
  state digests, apply-chain prefix consistency, position-based catch-up;
* :class:`Mempool` — whole-batch draining, the ``max_batch`` proposal
  bound, backpressure, queue-level duplicate suppression, and the
  synthetic-filler fallback.
"""

from __future__ import annotations

import pytest

from repro.consensus.mempool import Mempool
from repro.statemachine import (
    OP_DELETE,
    OP_PUT,
    Command,
    CommandBatch,
    KVStore,
    ReplicatedKV,
    apply_chains_consistent,
    decode_commands,
    encode_commands,
)
from repro.statemachine.kvstore import SEQ_WINDOW


def _cmd(client: int, seq: int, op: int = OP_PUT, key: str = "k", value: str = "v"):
    return Command(client, seq, op, key, value)


def _batch(commands) -> CommandBatch:
    return CommandBatch(count=len(commands), data=encode_commands(commands))


# ----------------------------------------------------------------------
# Command codec
# ----------------------------------------------------------------------
class TestCommandCodec:
    def test_roundtrip(self):
        commands = [
            Command(0, 0, OP_PUT, "a", "1"),
            Command(7, 300, OP_DELETE, "unicode ✓", ""),
            Command(2**40, 2**33, OP_PUT, "", "v" * 500),
        ]
        assert decode_commands(encode_commands(commands)) == tuple(commands)

    def test_empty_roundtrip(self):
        assert decode_commands(encode_commands([])) == ()

    def test_unknown_op_rejected(self):
        blob = encode_commands([Command(1, 1, 9, "k", "v")])
        with pytest.raises(ValueError, match="unknown command op"):
            decode_commands(blob)

    def test_trailing_bytes_rejected(self):
        blob = encode_commands([_cmd(1, 1)])
        with pytest.raises(ValueError, match="trailing bytes"):
            decode_commands(blob + b"\x00")

    def test_truncated_rejected(self):
        blob = encode_commands([_cmd(1, 1, value="long enough value")])
        with pytest.raises(ValueError):
            decode_commands(blob[:-4])


# ----------------------------------------------------------------------
# KVStore: exactly-once application
# ----------------------------------------------------------------------
class TestKVStore:
    def test_put_get_delete(self):
        store = KVStore()
        assert store.apply(_cmd(1, 0, OP_PUT, "k", "v1"))
        assert store.get("k") == "v1"
        assert store.apply(_cmd(1, 1, OP_PUT, "k", "v2"))
        assert store.get("k") == "v2"
        assert store.apply(_cmd(1, 2, OP_DELETE, "k", ""))
        assert store.get("k") is None
        assert len(store) == 0

    def test_duplicate_identity_applied_once(self):
        store = KVStore()
        assert store.apply(_cmd(3, 5, OP_PUT, "k", "first"))
        # Same identity, different payload: a re-proposed command must not
        # re-execute even if an adversary mutated its content.
        assert not store.apply(_cmd(3, 5, OP_PUT, "k", "second"))
        assert store.get("k") == "first"
        assert store.applied_total == 1
        assert store.duplicates_skipped == 1
        assert store.applied(3, 5)
        assert not store.applied(3, 4)
        assert store.applied_count(3) == 1

    def test_high_seq_bitmask(self):
        store = KVStore()
        assert store.apply(_cmd(1, 10_000))
        assert store.applied(1, 10_000)
        assert not store.applied(1, 9_999)
        assert store.applied_count(1) == 1

    def test_a_command_outside_the_filters_domain_applies_as_none(self):
        store = KVStore()
        # A client id that does not fit the digest's 8 bytes (uvarints
        # decode it fine), and a negative one.
        assert not store.apply(_cmd(2**64, 0, value="wide"))
        assert not store.apply(_cmd(-1, 0, value="negative"))
        # A sequence number at the window's bound, and one far above it.
        assert not store.apply(_cmd(1, SEQ_WINDOW, value="far"))
        assert not store.apply(_cmd(1, 1 << 24, value="farther"))
        assert store.commands_rejected == 4
        assert store.applied_total == store.duplicates_skipped == len(store) == 0
        assert store._window == {} and store._prefix == {}
        # The last slot of the window and the widest client id still apply.
        assert store.apply(_cmd(1, SEQ_WINDOW - 1))
        assert store.apply(_cmd(2**64 - 1, 0))
        assert store._window[1].bit_length() == SEQ_WINDOW
        assert store.applied_total == 2 and store.commands_rejected == 4
        store.state_digest()  # raised OverflowError on a client >= 2**64

    def test_state_digest_covers_applied_sets(self):
        # Same map contents, different applied identities => different digest.
        a, b = KVStore(), KVStore()
        a.apply(_cmd(1, 0, OP_PUT, "k", "v"))
        b.apply(_cmd(1, 1, OP_PUT, "k", "v"))
        assert a.state_digest() != b.state_digest()
        c = KVStore()
        c.apply(_cmd(1, 0, OP_PUT, "k", "v"))
        assert a.state_digest() == c.state_digest()


# ----------------------------------------------------------------------
# ReplicatedKV: ledger catch-up and apply chains
# ----------------------------------------------------------------------
class _Block:
    def __init__(self, payload):
        self.payload = payload


class _FakeLedger:
    """Just enough of Ledger for catch_up: ``len`` and ``take``."""

    def __init__(self):
        self._blocks = []

    def add(self, payload):
        self._blocks.append(_Block(tuple(payload)))

    def __len__(self):
        return len(self._blocks)

    def take(self, index):
        return self._blocks[index]


class TestReplicatedKV:
    def test_catch_up_applies_by_position(self):
        ledger = _FakeLedger()
        kv = ReplicatedKV()
        ledger.add([_batch([_cmd(1, 0, OP_PUT, "a", "1")])])
        assert kv.catch_up(ledger, now=1.0) == 1
        assert kv.applied_entries == 1
        # Catch-up is idempotent at the same ledger length.
        assert kv.catch_up(ledger, now=2.0) == 0
        ledger.add([_batch([_cmd(1, 1, OP_PUT, "b", "2")])])
        assert kv.catch_up(ledger, now=3.0) == 1
        assert kv.store.get("a") == "1" and kv.store.get("b") == "2"
        assert len(kv.apply_chain) == 2
        assert kv.last_chain == list(kv.apply_chain)[-1]

    def test_synthetic_payload_items_are_skipped(self):
        ledger = _FakeLedger()
        kv = ReplicatedKV()
        ledger.add([(0, 0), (0, 1), _batch([_cmd(2, 0, OP_PUT, "k", "v")]), "marker"])
        assert kv.catch_up(ledger, now=0.0) == 1
        assert kv.store.get("k") == "v"

    def test_committed_duplicates_filtered_and_not_chained(self):
        # The same batch committed in two blocks: second application is a
        # no-op, and the chain hashes only first applications, so another
        # replica that never saw the duplicate commit chains identically.
        batch = _batch([_cmd(1, 0, OP_PUT, "k", "v")])
        with_dup, without_dup = _FakeLedger(), _FakeLedger()
        with_dup.add([batch])
        with_dup.add([batch])
        without_dup.add([batch])
        without_dup.add([])
        kv_dup, kv_clean = ReplicatedKV(), ReplicatedKV()
        kv_dup.catch_up(with_dup, now=0.0)
        kv_clean.catch_up(without_dup, now=0.0)
        assert kv_dup.store.duplicates_skipped == 1
        assert kv_dup.apply_chain == kv_clean.apply_chain
        assert kv_dup.digest() == kv_clean.digest()

    def test_on_apply_fires_only_for_first_application(self):
        seen = []
        kv = ReplicatedKV(on_apply=lambda c, t: seen.append((c.client, c.seq, t)))
        ledger = _FakeLedger()
        batch = _batch([_cmd(1, 0), _cmd(1, 1)])
        ledger.add([batch])
        ledger.add([batch])
        kv.catch_up(ledger, now=5.0)
        assert seen == [(1, 0, 5.0), (1, 1, 5.0)]

    def test_apply_chains_prefix_consistency(self):
        assert apply_chains_consistent([("a", "b", "c"), ("a", "b"), ("a",)])
        assert not apply_chains_consistent([("a", "b"), ("a", "x")])
        assert apply_chains_consistent([])
        assert apply_chains_consistent([(), ("a",)])


# ----------------------------------------------------------------------
# Mempool
# ----------------------------------------------------------------------
class TestMempool:
    def test_synthetic_filler_uses_int_tuple_ids(self):
        pool = Mempool(owner=3, batch_size=4)
        first = pool.next_batch()
        second = pool.next_batch()
        assert first == ((3, 0), (3, 1), (3, 2), (3, 3))
        assert second == ((3, 4), (3, 5), (3, 6), (3, 7))

    def test_drains_whole_batches_up_to_max_batch(self):
        pool = Mempool(owner=0, max_batch=5)
        batches = [_batch([_cmd(1, i), _cmd(1, i + 1)]) for i in range(0, 8, 2)]
        for batch in batches:
            assert pool.ingest(batch)
        assert pool.pending_commands == 8
        # 2 + 2 fit; a third batch would exceed max_batch=5.
        assert pool.next_batch() == (batches[0], batches[1])
        assert pool.pending_commands == 4
        assert pool.next_batch() == (batches[2], batches[3])
        assert pool.pending_commands == 0

    def test_oversized_first_batch_goes_alone(self):
        pool = Mempool(owner=0, max_batch=4)
        big = _batch([_cmd(1, i) for i in range(10)])
        assert pool.ingest(big)
        assert pool.next_batch() == (big,)

    def test_backpressure_bounds_pending_commands(self):
        pool = Mempool(owner=0, max_pending=3)
        assert pool.ingest(_batch([_cmd(1, 0), _cmd(1, 1)]))
        assert not pool.ingest(_batch([_cmd(2, 0), _cmd(2, 1)]))
        assert pool.rejected == 1
        assert pool.ingest(_batch([_cmd(3, 0)]))
        assert pool.pending_commands == 3

    def test_queued_duplicates_dropped_then_forgotten(self):
        pool = Mempool(owner=0)
        batch = _batch([_cmd(1, 0)])
        assert pool.ingest(batch)
        # A retry racing its original forward: dropped while still queued...
        assert pool.ingest(batch)
        assert pool.duplicates == 1
        assert pool.pending_commands == 1
        pool.next_batch()
        # ...but accepted again once proposed, so re-proposal after a failed
        # view is possible.
        assert pool.ingest(batch)
        assert pool.pending_commands == 1
