"""The deterministic replicated key-value store.

Consensus orders :class:`~repro.statemachine.messages.CommandBatch` blobs
into the ledger; this module turns that order into state.  Two layers:

* :class:`KVStore` — the state machine proper: a dict plus an
  exactly-once filter.  Commands carry a ``(client, seq)`` identity, and
  the same command can legitimately be committed twice (a gateway
  re-forwards outstanding commands to a new leader after a failed view,
  and the original proposal may still commit later).  Clients number
  their commands densely from 0, so the filter keeps, per client, the
  count of the contiguous prefix of sequence numbers applied plus a
  bitmask of the (short) window above it: the duplicate check and the
  insert are O(window), not O(seq), and each identity is applied at most
  once no matter how often it is committed.  An identity outside the
  filter's domain — a client id that does not fit 8 bytes, or a sequence
  number :data:`SEQ_WINDOW` or more above the client's applied prefix — is
  rejected: it applies as no command, on every replica alike, and is
  counted (:attr:`KVStore.commands_rejected`).

* :class:`ReplicatedKV` — the ledger adapter: tracks how many ledger
  entries have been applied and catches up to the current length on each
  commit, taking each block from the ledger as it applies it (the ledger
  holds a block only until then).  Progress is tracked by *position*,
  never by counting commit callbacks.

A committed :class:`CommandBatch` is decoded once per process
(:data:`BATCHES`, a :class:`BatchMemo`), not once per replica: every
replica of a worker commits the same blob, and the decode yields each
command together with its apply-chain record.  A blob that does not
decode — a Byzantine leader's or forwarder's — applies as no commands, on
every replica alike, and is counted (:attr:`ReplicatedKV.batches_malformed`).

Determinism is checkable two ways.  :meth:`KVStore.state_digest` hashes
the full state (for runs that stop at the same ledger length, e.g. the
replicas of one virtual-time run).  :attr:`ReplicatedKV.apply_chain` is a running hash
chained per applied block, so two replicas stopped at *different* ledger
lengths — normal for wall-clock clusters — are still comparable over
their common prefix (:func:`apply_chains_consistent`).  Digests use
stdlib SHA-256, not the pluggable crypto backend: the counting backend's
digests are process-local and could not be compared across nodes.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Optional

from repro.crypto.backend import PackedDigests
from repro.statemachine.commands import OP_DELETE, OP_PUT, Command, decode_commands
from repro.statemachine.messages import CommandBatch


#: How far above a client's applied prefix a sequence number may land.  The
#: window is one int with a bit per sequence number, so an unbounded offset
#: would cost memory linear in ``seq`` on every replica.  Honest clients
#: number densely from 0 and stay far below it: the largest offset the
#: tier-1 suite reaches is 91 (lossy runs included), ``sim_kv_fault_n16``
#: 25 and ``kv_rate_proc_shm`` 0.
SEQ_WINDOW = 1 << 16


class KVStore:
    """Dict state machine with an exactly-once ``(client, seq)`` filter."""

    __slots__ = (
        "_data", "_prefix", "_window", "applied_total", "duplicates_skipped",
        "commands_rejected",
    )

    def __init__(self) -> None:
        self._data: dict[str, str] = {}
        # client -> how many of its first sequence numbers are all applied,
        # and -> bit i: sequence number prefix + i is applied.
        self._prefix: dict[int, int] = {}
        self._window: dict[int, int] = {}
        #: Commands applied (duplicates excluded).
        self.applied_total = 0
        #: Committed duplicates the exactly-once filter rejected.
        self.duplicates_skipped = 0
        #: Committed commands outside the filter's domain: a client id of
        #: 2**64 or more, or a sequence number :data:`SEQ_WINDOW` or more
        #: above the client's applied prefix.
        self.commands_rejected = 0

    def apply(self, command: Command) -> bool:
        """Apply one command; ``False`` if its identity was already applied
        or lies outside the filter's domain."""
        client = command.client
        prefix = self._prefix.get(client, 0)
        offset = command.seq - prefix
        window = self._window.get(client, 0)
        if offset < 0 or window >> offset & 1:
            self.duplicates_skipped += 1
            return False
        if offset >= SEQ_WINDOW or not 0 <= client < 1 << 64:
            self.commands_rejected += 1
            return False
        window |= 1 << offset
        if window & 1:
            run = (window ^ (window + 1)).bit_length() - 1  # trailing ones
            window >>= run
            self._prefix[client] = prefix + run
        self._window[client] = window
        if command.op == OP_PUT:
            self._data[command.key] = command.value
        elif command.op == OP_DELETE:
            self._data.pop(command.key, None)
        self.applied_total += 1
        return True

    def get(self, key: str) -> Optional[str]:
        """Current value of ``key`` (``None`` if absent)."""
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)

    def applied(self, client: int, seq: int) -> bool:
        """Whether the identity ``(client, seq)`` has been applied."""
        offset = seq - self._prefix.get(client, 0)
        return offset < 0 or bool(self._window.get(client, 0) >> offset & 1)

    def applied_count(self, client: int) -> int:
        """How many commands of ``client`` have been applied."""
        return self._prefix.get(client, 0) + self._window.get(client, 0).bit_count()

    def _applied_mask(self, client: int) -> int:
        """Bit ``seq`` set for every applied sequence number of ``client``."""
        prefix = self._prefix.get(client, 0)
        return self._window.get(client, 0) << prefix | (1 << prefix) - 1

    def state_digest(self) -> str:
        """SHA-256 over the sorted contents *and* the applied sets.

        Two replicas agree on this digest iff they hold the same key-value
        map and have applied exactly the same command identities.  Each
        client's applied set is hashed as one big-endian bitmask (bit
        ``seq``), rebuilt here from its prefix and window.
        """
        hasher = hashlib.sha256()
        for key in sorted(self._data):
            hasher.update(key.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(self._data[key].encode("utf-8"))
            hasher.update(b"\x01")
        for client in sorted(self._window):
            mask = self._applied_mask(client)
            hasher.update(b"\x02")
            hasher.update(client.to_bytes(8, "big"))
            hasher.update(mask.to_bytes((mask.bit_length() + 7) // 8 or 1, "big"))
        return hasher.hexdigest()


_UNSEEN = object()

#: Decoded batches per generation of the batch memo; two are kept.  Every
#: replica of a process applies a block within a few commits of the first.
BATCH_GENERATION = 128


class BatchMemo:
    """Committed batch blobs of this process, decoded once each.

    Keys are a batch's exact bytes as this process received them; values
    are what :func:`decode_batch` derives from those bytes alone, so two
    replicas sharing an entry apply exactly what the bytes say.  Bounded as
    two generations of :data:`BATCH_GENERATION` blobs.
    """

    def __init__(self) -> None:
        self.young: dict[bytes, tuple] = {}
        self.old: dict[bytes, tuple] = {}

    def records(self, data: bytes) -> Optional[tuple[tuple[Command, bytes], ...]]:
        """``data``'s ``(command, chain record)`` pairs; ``None`` if the
        blob does not decode."""
        if data.__class__ is not bytes:
            return None
        records = self.young.get(data, _UNSEEN)
        if records is _UNSEEN:
            records = self.old.get(data, _UNSEEN)
            if records is _UNSEEN:
                records = decode_batch(data)
                if len(self.young) >= BATCH_GENERATION:
                    self.old, self.young = self.young, {}
                self.young[data] = records
        return records


def decode_batch(data: bytes) -> Optional[tuple[tuple[Command, bytes], ...]]:
    """Each command of ``data`` with the bytes it adds to the apply chain,
    or ``None`` if ``data`` is not a well-formed command blob."""
    try:
        commands = decode_commands(data)
    except (ValueError, IndexError):  # UnicodeDecodeError is a ValueError
        return None
    return tuple(
        (
            command,
            b"%d:%d:%d%s%s" % (
                command.client, command.seq, command.op,
                command.key.encode("utf-8"), command.value.encode("utf-8"),
            ),
        )
        for command in commands
    )


#: The process's one batch memo.
BATCHES = BatchMemo()


class ReplicatedKV:
    """Applies committed ledger blocks to a :class:`KVStore`, by position.

    ``on_apply(command, time)`` fires for every *first* application of an
    identity — the request gateway hooks it to complete outstanding client
    requests and record end-to-end latency.
    """

    __slots__ = (
        "store", "on_apply", "batches_malformed", "_applied_entries", "_chain",
        "_chain_history", "_digest",
    )

    def __init__(
        self, on_apply: Optional[Callable[[Command, float], None]] = None
    ) -> None:
        self.store = KVStore()
        self.on_apply = on_apply
        #: Committed batches whose blob did not decode (applied as none).
        self.batches_malformed = 0
        self._applied_entries = 0
        self._chain = hashlib.sha256(b"genesis").hexdigest()
        # Every hash of the chain, each followed by a newline (the
        # PackedDigests format).
        self._chain_history = bytearray()
        self._digest = (-1, "")  # (cursor, state digest) of the last digest()

    @property
    def applied_entries(self) -> int:
        """Ledger entries applied so far (the position cursor)."""
        return self._applied_entries

    @property
    def apply_chain(self) -> PackedDigests:
        """Running state hash after each applied ledger entry, packed.

        Chained per block, so replicas stopped at different ledger lengths
        are comparable over the common prefix.  O(len) copy, not for hot
        paths: :attr:`last_chain` reads the newest hash.
        """
        return PackedDigests.from_bytes(bytes(self._chain_history))

    @property
    def last_chain(self) -> str:
        """The running state hash after the newest applied entry."""
        return self._chain

    def catch_up(self, ledger, now: float) -> int:
        """Apply every ledger entry past the cursor (taken as
        ``ledger.take(i)``, so the cost is the new entries'); return
        commands applied."""
        applied = 0
        records_of = BATCHES.records
        store_apply = self.store.apply
        on_apply = self.on_apply
        while self._applied_entries < len(ledger):
            block = ledger.take(self._applied_entries)
            self._applied_entries += 1
            hasher = hashlib.sha256(self._chain.encode("ascii"))
            for item in block.payload:
                if not isinstance(item, CommandBatch):
                    continue  # synthetic filler / equivocation markers
                records = records_of(item.data)
                if records is None:
                    self.batches_malformed += 1
                    continue
                for command, record in records:
                    if store_apply(command):
                        applied += 1
                        hasher.update(record)
                        if on_apply is not None:
                            on_apply(command, now)
            self._chain = hasher.hexdigest()
            self._chain_history += self._chain.encode("ascii")
            self._chain_history += b"\n"
        return applied

    def digest(self) -> str:
        """The store's :meth:`KVStore.state_digest`, computed once per
        cursor position (:meth:`catch_up` is what moves the store)."""
        if self._digest[0] != self._applied_entries:
            self._digest = (self._applied_entries, self.store.state_digest())
        return self._digest[1]


def apply_chains_consistent(chains: Iterable[Iterable[str]]) -> bool:
    """Prefix-consistency over per-replica apply chains.

    The state-machine analogue of ``ledgers_consistent``: every pair of
    replicas must agree on the state hash after every block both applied.
    """
    return PackedDigests.prefix_consistent(chains)
