"""Per-replica ledger of committed blocks.

The ledger is the externally visible output of SMR: an ordered sequence of
committed blocks (and hence commands).  Safety means the ledgers of any two
honest replicas are always prefixes of one another; the integration tests
assert exactly that via :func:`ledgers_consistent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.consensus.blocks import Block
from repro.crypto.backend import PackedDigests
from repro.errors import SafetyViolation


@dataclass(frozen=True)
class CommittedEntry:
    """One committed block together with the commit (simulation) time."""

    block: Block
    commit_time: float


class Ledger:
    """Append-only committed chain of one replica."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._entries: list[CommittedEntry] = []
        self._committed_ids: set[str] = set()

    def commit(self, block: Block, time: float) -> None:
        """Append a committed block.  Views must strictly increase."""
        if block.block_id in self._committed_ids:
            return
        if self._entries and block.view <= self._entries[-1].block.view:
            raise SafetyViolation(
                f"replica {self.owner} committed view {block.view} after "
                f"view {self._entries[-1].block.view}"
            )
        self._entries.append(CommittedEntry(block=block, commit_time=time))
        self._committed_ids.add(block.block_id)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> CommittedEntry:
        """The ``index``-th committed entry — the non-copying read the commit
        path uses (``ReplicatedKV.catch_up`` walks on from its cursor)."""
        return self._entries[index]

    @property
    def entries(self) -> Sequence[CommittedEntry]:
        """All committed entries in commit order (O(len) snapshot, not for
        hot paths: index the ledger instead)."""
        return tuple(self._entries)

    @property
    def block_ids(self) -> list[str]:
        """Committed block ids in commit order (O(len) snapshot, not for hot paths)."""
        return [entry.block.block_id for entry in self._entries]

    @property
    def commands(self) -> list:
        """Flattened committed command sequence (O(len) snapshot that decodes
        every batch — not for hot paths).

        Client batches are expanded into their decoded
        :class:`~repro.statemachine.commands.Command` tuples; synthetic
        filler ids and any other payload items pass through unchanged.
        """
        from repro.statemachine.commands import decode_commands
        from repro.statemachine.messages import CommandBatch

        flat: list = []
        for entry in self._entries:
            for item in entry.block.payload:
                if isinstance(item, CommandBatch):
                    flat.extend(decode_commands(item.data))
                else:
                    flat.append(item)
        return flat


def ledgers_consistent(ledgers: Iterable[Ledger]) -> bool:
    """Whether every pair of ledgers is prefix-consistent (the safety property)."""
    return sequences_consistent(ledger.block_ids for ledger in ledgers)


def sequences_consistent(id_sequences: Iterable[Iterable[str]]) -> bool:
    """Prefix-consistency over bare block-id sequences.

    The ledger-free form of :func:`ledgers_consistent`, for callers that
    hold only the committed ids — a multi-process cluster's coordinator
    checks safety over the :class:`~repro.crypto.backend.PackedDigests` its
    node processes shipped back, without ever holding the ledgers themselves.
    """
    return PackedDigests.prefix_consistent(id_sequences)
