"""Per-replica ledger of committed blocks.

The ledger is the externally visible output of SMR: an ordered sequence of
committed blocks (and hence commands).  Safety means the ledgers of any two
honest replicas are always prefixes of one another; the integration tests
assert exactly that via :func:`ledgers_consistent`.

The ledger keeps its history as packed columns — the committed ids in the
:class:`~repro.crypto.backend.PackedDigests` byte format, the views and the
commit times as ``array`` columns — so a replica's memory grows by a few
bytes per committed block.  A :class:`~repro.consensus.blocks.Block` itself
is held only while a state machine has yet to apply it (:meth:`Ledger.take`).
"""

from __future__ import annotations

from array import array
from typing import Iterable

from repro.consensus.blocks import Block
from repro.crypto.backend import PackedDigests
from repro.errors import SafetyViolation


class Ledger:
    """Append-only committed chain of one replica, as packed columns."""

    __slots__ = ("owner", "_ids", "views", "commit_times", "_held")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        # Committed ids, each followed by a newline (the PackedDigests format).
        self._ids = bytearray()
        #: Committed views, in commit order (strictly increasing).
        self.views = array("q")
        #: Commit times, in commit order.
        self.commit_times = array("d")
        # {position: block} of committed blocks a state machine has yet to take.
        self._held: dict[int, Block] = {}

    def commit(self, block: Block, time: float, hold: bool = False) -> bool:
        """Append a committed block; ``False`` if it is already committed.
        Views must strictly increase.  With ``hold`` the block stays until
        :meth:`take` hands it over (a state machine will apply it)."""
        views = self.views
        if views and block.view <= views[-1]:
            if block.block_id in self.block_ids:
                return False
            raise SafetyViolation(
                f"replica {self.owner} committed view {block.view} after view {views[-1]}"
            )
        if hold:
            self._held[len(views)] = block
        self._ids += block.block_id.encode("ascii")
        self._ids += b"\n"
        views.append(block.view)
        self.commit_times.append(time)
        return True

    def __len__(self) -> int:
        return len(self.views)

    def take(self, index: int) -> Block:
        """The held block at position ``index``, handed over once: the ledger
        forgets it (``ReplicatedKV.catch_up`` walks on from its cursor)."""
        return self._held.pop(index)

    @property
    def packed_ids(self) -> PackedDigests:
        """Committed block ids in commit order, as one packed copy."""
        return PackedDigests.from_bytes(bytes(self._ids))

    @property
    def block_ids(self) -> list[str]:
        """Committed block ids in commit order (O(len) snapshot, not for hot paths)."""
        return self._ids.decode("ascii").splitlines()


def ledgers_consistent(ledgers: Iterable[Ledger]) -> bool:
    """Whether every pair of ledgers is prefix-consistent (the safety property)."""
    return sequences_consistent(ledger.packed_ids for ledger in ledgers)


def sequences_consistent(id_sequences: Iterable[Iterable[str]]) -> bool:
    """Prefix-consistency over bare block-id sequences.

    The ledger-free form of :func:`ledgers_consistent`, for callers that
    hold only the committed ids — a multi-process cluster's coordinator
    checks safety over the :class:`~repro.crypto.backend.PackedDigests` its
    node processes shipped back, without ever holding the ledgers themselves.
    """
    return PackedDigests.prefix_consistent(id_sequences)
