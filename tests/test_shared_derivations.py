"""What the replicas of one process derive once and share.

The threshold scheme's message-digest memo and minted-share cache, the
process's batch memo (a committed ``CommandBatch`` decoded once, malformed
blobs applied as no commands), Lumiere's one leader table per run, and the
exactly-once filter's prefix-plus-window form — each checked against the
per-replica derivation it replaces.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.blocks import Block
from repro.core.leader_schedule import LeaderSchedule
from repro.core.messages import epoch_view_message_payload, view_message_payload
from repro.crypto.backend import make_backend
from repro.crypto.signatures import PKI
from repro.crypto.threshold import ThresholdScheme
from repro.experiments.scenario import ScenarioConfig, build_scenario, start_replicas
from repro.pacemakers.backoff import backoff_payload
from repro.pacemakers.cogsworth import cogsworth_wish_payload
from repro.pacemakers.fever import fever_view_payload
from repro.pacemakers.lp22 import lp22_epoch_payload
from repro.runner import WorkloadConfig
from repro.statemachine import (
    OP_DELETE,
    OP_PUT,
    Command,
    CommandBatch,
    KVStore,
    ReplicatedKV,
    decode_commands,
    encode_commands,
)
from repro.statemachine import kvstore

# ----------------------------------------------------------------------
# Message digests
# ----------------------------------------------------------------------
_SIGNED_SHAPES = [
    lambda view: ("qc", view, f"block-{view}"),
    view_message_payload,
    epoch_view_message_payload,
    backoff_payload,
    cogsworth_wish_payload,
    fever_view_payload,
    lp22_epoch_payload,
]


def _scheme(backend_name: str, n: int = 4):
    backend = make_backend(backend_name)
    pki, keys = PKI.setup(range(n), backend=backend)
    return ThresholdScheme(pki), keys, backend


@pytest.mark.parametrize("backend_name", ["hashing", "counting"])
def test_the_memoised_digest_is_the_backend_digest_for_every_signed_shape(backend_name):
    scheme, _, backend = _scheme(backend_name)
    for shape in _SIGNED_SHAPES:
        for view in (0, 1, 7, 1000, 10**9):
            message = shape(view)
            first = scheme.message_digest(message)
            assert first == backend.digest(message)
            calls = backend.digest_calls
            assert scheme.message_digest(message) == first
            assert backend.digest_calls == calls  # a hit computes nothing


def test_one_vote_message_is_digested_once_per_scheme():
    scheme, keys, backend = _scheme("hashing")
    message = ("qc", 5, "block-5")
    backend.reset_counters()
    partials = [scheme.partial_sign(keys[pid], message) for pid in range(3)]
    assert all(scheme.verify_partial(partial, message) for partial in partials)
    aggregate = scheme.combine(partials, 3, message)
    assert scheme.verify(aggregate, message, 3)
    # One message digest, three share signatures, the combine's one batched
    # share check and the aggregate's proof; the shares and the aggregate
    # then verify from the cache.
    assert backend.digest_calls == 1 + 3 + 1 + 1


def test_the_digest_memo_is_two_bounded_generations():
    scheme, _, _ = _scheme("hashing")
    for view in range(5000):
        scheme.message_digest(("qc", view, "b"))
    assert len(scheme._digests) <= 256 and len(scheme._digests_before) <= 256
    assert scheme.message_digest(("qc", 4999, "b")) == scheme.backend.digest(("qc", 4999, "b"))


def test_a_minted_share_verifies_from_the_cache_and_a_forged_one_does_not():
    scheme, keys, backend = _scheme("hashing")
    message = ("qc", 3, "block-3")
    partial = scheme.partial_sign(keys[1], message)
    calls = backend.digest_calls
    assert scheme.verify_partial(partial, message)
    assert backend.digest_calls == calls
    forged = type(partial)(
        signer=partial.signer,
        message_digest=partial.message_digest,
        signature=type(partial.signature)(
            signer=1, message_digest=partial.message_digest, proof="0" * 32
        ),
    )
    assert not scheme.verify_partial(forged, message)
    # Another scheme (another process) never minted it: it recomputes, and
    # the share is still valid.
    other = ThresholdScheme(scheme.pki)
    assert other.verify_partial(partial, message)
    assert not other.verify_partial(partial, ("qc", 4, "block-3"))


# ----------------------------------------------------------------------
# Batches decoded once
# ----------------------------------------------------------------------
def _reference_chain(blobs) -> tuple[list[str], KVStore]:
    """The apply chain as every replica computed it before the batch memo:
    one decode per replica, one ``hasher.update`` per field."""
    store, chain, chains = KVStore(), hashlib.sha256(b"genesis").hexdigest(), []
    for blob in blobs:
        hasher = hashlib.sha256(chain.encode("ascii"))
        try:
            commands = decode_commands(blob)
        except (ValueError, IndexError):
            commands = ()
        for command in commands:
            if store.apply(command):
                hasher.update(b"%d:%d:%d" % (command.client, command.seq, command.op))
                hasher.update(command.key.encode("utf-8"))
                hasher.update(command.value.encode("utf-8"))
        chain = hasher.hexdigest()
        chains.append(chain)
    return chains, store


class _Ledger:
    def __init__(self, blobs):
        self.blocks = [
            Block(view=i, parent_id="p", proposer=0, payload=(CommandBatch(1, blob),))
            for i, blob in enumerate(blobs)
        ]

    def __len__(self):
        return len(self.blocks)

    def take(self, index):
        return self.blocks[index]


_commands = st.lists(
    st.builds(
        Command,
        client=st.integers(0, 3),
        seq=st.integers(0, 40),
        op=st.sampled_from((OP_PUT, OP_DELETE)),
        key=st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
        value=st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    ),
    max_size=6,
)
_blobs = st.lists(
    st.one_of(
        _commands.map(encode_commands),
        st.binary(max_size=12),  # mostly malformed: bad ops, truncation, UTF-8
        _commands.map(encode_commands).map(lambda blob: blob[:-1]),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(_blobs)
def test_memoised_batch_records_give_the_per_replica_apply_chain(blobs):
    reference, reference_store = _reference_chain(blobs)
    ledger = _Ledger(blobs)
    replicas = [ReplicatedKV() for _ in range(3)]
    for kv in replicas:  # co-located replicas: the second and third hit the memo
        kv.catch_up(ledger, now=0.0)
        assert list(kv.apply_chain) == reference
        assert kv.digest() == reference_store.state_digest()
    malformed = sum(kvstore.decode_batch(blob) is None for blob in blobs)
    assert {kv.batches_malformed for kv in replicas} == {malformed}


@pytest.mark.parametrize(
    "blob",
    [b"\x01\x05\x00\x07\x00\x00", b"\x01\x05\x00\x00\x05ab", b"\x01\x05\x00\x00\x01\xff\x00"],
    ids=["unknown-op", "truncated", "bad-utf8"],
)
def test_an_undecodable_blob_is_no_commands(blob):
    assert kvstore.decode_batch(blob) is None
    assert kvstore.BATCHES.records(blob) is None
    assert kvstore.BATCHES.records("not bytes") is None


def test_one_malformed_batch_leaves_every_honest_replica_running():
    config = ScenarioConfig(
        n=4, pacemaker="lumiere", delta=1.0, actual_delay=0.1, duration=40.0, seed=0,
        workload=WorkloadConfig(mode="open", rate=2.0, clients=2, retry_interval=5.0),
    )
    result = build_scenario(config)
    pool = result.replicas[0].mempool
    honest_next = pool.next_batch
    pool.next_batch = lambda: (
        (CommandBatch(count=1, data=b"\x01\x05\x00\x07\x00\x00"),) + honest_next()
    )
    start_replicas(result.replicas)
    result.simulator.run(until=config.duration)
    assert result.ledgers_are_consistent() and result.kv_consistent()
    counts = result.client_counts()
    assert set(counts) == {0, 1, 2, 3}
    for pid, replica in result.replicas.items():
        machine = replica.state_machine
        assert machine.applied_entries == len(replica.ledger) > 10
        assert counts[pid]["kv_batches_malformed"] == machine.batches_malformed > 0
    assert result.metrics.requests_applied > 0


# ----------------------------------------------------------------------
# One leader table
# ----------------------------------------------------------------------
def _reference_leaders(n, rounds_per_epoch, seed, views):
    """``LeaderSchedule``'s formula: one shuffled permutation per round of
    2n views, a round that starts an epoch begins with the previous
    round's last leader."""
    rng, rounds = random.Random(seed), []
    for index in range(views // (2 * n) + 1):
        permutation = list(range(n))
        rng.shuffle(permutation)
        if index and index % rounds_per_epoch == 0:
            permutation.remove(rounds[-1][-1])
            permutation.insert(0, rounds[-1][-1])
        rounds.append(permutation)
    return [rounds[view // (2 * n)][(view // 2) % n] for view in range(views)]


@pytest.mark.parametrize("n", [4, 7, 64])
@pytest.mark.parametrize("rounds_per_epoch", [1, 5])
def test_the_leader_table_is_the_schedule_formula(n, rounds_per_epoch):
    views = 2 * n * rounds_per_epoch * 4 + 3  # four epoch boundaries and a bit
    reference = _reference_leaders(n, rounds_per_epoch, seed=n, views=views)
    schedule = LeaderSchedule(n, 2 * n, rounds_per_epoch, seed=n)
    # Ask from the far end first, then everything in order.
    assert schedule.leader_of(views - 1) == reference[-1]
    assert [schedule.leader_of(view) for view in range(views)] == reference
    assert schedule.leader_of(-1) == 0
    fresh = LeaderSchedule(n, 2 * n, rounds_per_epoch, seed=n)
    assert [fresh.leader_of(view) for view in range(views)] == reference


def test_a_run_holds_one_leader_table():
    result = build_scenario(ScenarioConfig(n=7, pacemaker="lumiere", seed=3, duration=1.0))
    schedules = {id(replica.pacemaker.schedule) for replica in result.replicas.values()}
    assert len(schedules) == 1
    replica = result.replicas[2]
    assert replica.leader_of(40) == replica.pacemaker.schedule.leader_of(40)


# ----------------------------------------------------------------------
# Exactly-once filter
# ----------------------------------------------------------------------
class _MaskFilter:
    """The filter before the prefix: one growing bitmask per client."""

    def __init__(self):
        self.masks: dict[int, int] = {}

    def apply(self, client, seq):
        mask = self.masks.get(client, 0)
        if mask >> seq & 1:
            return False
        self.masks[client] = mask | 1 << seq
        return True

    def state_digest(self, data):
        hasher = hashlib.sha256()
        for key in sorted(data):
            hasher.update(key.encode("utf-8") + b"\x00" + data[key].encode("utf-8") + b"\x01")
        for client in sorted(self.masks):
            mask = self.masks[client]
            hasher.update(b"\x02" + client.to_bytes(8, "big"))
            hasher.update(mask.to_bytes((mask.bit_length() + 7) // 8 or 1, "big"))
        return hasher.hexdigest()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 70)), max_size=120))
def test_the_prefix_filter_is_the_bitmask_filter(identities):
    store, reference, data = KVStore(), _MaskFilter(), {}
    for client, seq in identities:
        command = Command(client, seq, OP_PUT, f"k{seq % 5}", f"v{client}:{seq}")
        expected = reference.apply(client, seq)
        assert store.apply(command) == expected
        if expected:
            data[command.key] = command.value
        assert store.applied(client, seq)
    for client in range(4):
        mask = reference.masks.get(client, 0)
        assert store.applied_count(client) == mask.bit_count()
        assert [store.applied(client, seq) for seq in range(80)] == [
            bool(mask >> seq & 1) for seq in range(80)
        ]
    assert store.state_digest() == reference.state_digest(data)


def test_an_in_order_client_keeps_no_window():
    store = KVStore()
    for seq in range(20000):
        assert store.apply(Command(1, seq, OP_PUT, "k", "v"))
    assert store._prefix[1] == 20000 and store._window[1] == 0
    assert not store.apply(Command(1, 19999, OP_PUT, "k", "v"))
