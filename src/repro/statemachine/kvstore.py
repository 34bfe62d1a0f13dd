"""The deterministic replicated key-value store.

Consensus orders :class:`~repro.statemachine.messages.CommandBatch` blobs
into the ledger; this module turns that order into state.  Two layers:

* :class:`KVStore` — the state machine proper: a dict plus an
  exactly-once filter.  Commands carry a ``(client, seq)`` identity, and
  the same command can legitimately be committed twice (a gateway
  re-forwards outstanding commands to a new leader after a failed view,
  and the original proposal may still commit later).  The store keeps one
  arbitrary-precision bitmask per client — ``mask >> seq & 1`` — so the
  duplicate check is O(1) with no per-command allocation, and applies
  each identity at most once no matter how often it is committed.

* :class:`ReplicatedKV` — the ledger adapter: tracks how many ledger
  entries have been applied and catches up to the current length on each
  commit, taking each block from the ledger as it applies it (the ledger
  holds a block only until then).  Progress is tracked by *position*,
  never by counting commit callbacks.

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


class KVStore:
    """Dict state machine with an exactly-once ``(client, seq)`` filter."""

    __slots__ = ("_data", "_applied_masks", "applied_total", "duplicates_skipped")

    def __init__(self) -> None:
        self._data: dict[str, str] = {}
        self._applied_masks: dict[int, int] = {}
        #: Commands applied (duplicates excluded).
        self.applied_total = 0
        #: Committed duplicates the exactly-once filter rejected.
        self.duplicates_skipped = 0

    def apply(self, command: Command) -> bool:
        """Apply one command; ``False`` if its identity was already applied."""
        mask = self._applied_masks.get(command.client, 0)
        bit = 1 << command.seq
        if mask & bit:
            self.duplicates_skipped += 1
            return False
        self._applied_masks[command.client] = mask | bit
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
        return bool(self._applied_masks.get(client, 0) >> seq & 1)

    def applied_count(self, client: int) -> int:
        """How many commands of ``client`` have been applied."""
        return self._applied_masks.get(client, 0).bit_count()

    def state_digest(self) -> str:
        """SHA-256 over the sorted contents *and* the applied sets.

        Two replicas agree on this digest iff they hold the same key-value
        map and have applied exactly the same command identities.
        """
        hasher = hashlib.sha256()
        for key in sorted(self._data):
            hasher.update(key.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(self._data[key].encode("utf-8"))
            hasher.update(b"\x01")
        for client in sorted(self._applied_masks):
            mask = self._applied_masks[client]
            hasher.update(b"\x02")
            hasher.update(client.to_bytes(8, "big"))
            hasher.update(mask.to_bytes((mask.bit_length() + 7) // 8 or 1, "big"))
        return hasher.hexdigest()


class ReplicatedKV:
    """Applies committed ledger blocks to a :class:`KVStore`, by position.

    ``on_apply(command, time)`` fires for every *first* application of an
    identity — the request gateway hooks it to complete outstanding client
    requests and record end-to-end latency.
    """

    __slots__ = ("store", "on_apply", "_applied_entries", "_chain", "_chain_history", "_digest")

    def __init__(
        self, on_apply: Optional[Callable[[Command, float], None]] = None
    ) -> None:
        self.store = KVStore()
        self.on_apply = on_apply
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
        while self._applied_entries < len(ledger):
            block = ledger.take(self._applied_entries)
            self._applied_entries += 1
            hasher = hashlib.sha256(self._chain.encode("ascii"))
            for item in block.payload:
                if not isinstance(item, CommandBatch):
                    continue  # synthetic filler / equivocation markers
                for command in decode_commands(item.data):
                    if self.store.apply(command):
                        applied += 1
                        hasher.update(
                            b"%d:%d:%d" % (command.client, command.seq, command.op)
                        )
                        hasher.update(command.key.encode("utf-8"))
                        hasher.update(command.value.encode("utf-8"))
                        if self.on_apply is not None:
                            self.on_apply(command, now)
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
