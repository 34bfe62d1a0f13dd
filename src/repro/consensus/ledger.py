"""Per-replica ledger of committed blocks.

The ledger is the externally visible output of SMR: an ordered sequence of
committed blocks (and hence commands).  Safety means the ledgers of any two
honest replicas are always prefixes of one another; the integration tests
assert exactly that via :func:`ledgers_consistent`.

The ledger keeps its history as packed columns — the committed ids in the
:class:`~repro.crypto.backend.PackedDigests` byte format, the views and the
commit times as ``array`` columns — so a replica's memory grows by a few
bytes per committed block, and by none once :meth:`Ledger.drain` hands the
columns over (a worker process does so every status round).  A
:class:`~repro.consensus.blocks.Block` itself is held only while a state
machine has yet to apply it (:meth:`Ledger.take`).
"""

from __future__ import annotations

from array import array
from typing import Iterable

from repro.consensus.blocks import GENESIS_ID, Block
from repro.crypto.backend import PackedDigests
from repro.errors import SafetyViolation


class Ledger:
    """Append-only committed chain of one replica, as packed columns."""

    __slots__ = ("owner", "_ids", "views", "commit_times", "_held", "_drained",
                 "last_view", "last_id")

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
        # Entries handed over by drain(): len() counts them, nothing keeps them.
        self._drained = 0
        #: The newest committed view and block id (-1 and genesis before the
        #: first commit): all that :meth:`commit` checks a block against.
        self.last_view = -1
        self.last_id = GENESIS_ID

    def commit(self, block: Block, time: float, hold: bool = False) -> bool:
        """Append a committed block; ``False`` if it is the newest committed
        block already.  Any other block must extend the newest committed one
        (genesis before the first) in a higher view, or :class:`SafetyViolation`
        is raised.  With ``hold`` the block stays until :meth:`take` hands it
        over (a state machine will apply it).

        The engine never offers an older committed block: the 3-chain rule
        yields only blocks above the last committed view, which is this
        ledger's :attr:`last_view`.  So no id handed over by :meth:`drain` is
        ever needed here."""
        block_id = block.block_id
        if block_id == self.last_id:
            return False
        if block.view <= self.last_view:
            raise SafetyViolation(
                f"replica {self.owner} committed view {block.view} after view {self.last_view}"
            )
        if block.parent_id != self.last_id:
            raise SafetyViolation(
                f"replica {self.owner} committed block {block_id} of view {block.view}, "
                f"whose parent {block.parent_id} is not the last committed block "
                f"{self.last_id}"
            )
        if hold:
            self._held[len(self)] = block
        self._ids += block_id.encode("ascii")
        self._ids += b"\n"
        self.views.append(block.view)
        self.commit_times.append(time)
        self.last_view, self.last_id = block.view, block_id
        return True

    def __len__(self) -> int:
        return self._drained + len(self.views)

    def take(self, index: int) -> Block:
        """The held block at position ``index``, handed over once: the ledger
        forgets it (``ReplicatedKV.catch_up`` walks on from its cursor)."""
        return self._held.pop(index)

    def drain(self) -> bytearray:
        """The ids committed since the last drain, packed; the ledger then
        drops them with their views and times.  ``len()`` still counts them,
        and :meth:`commit` still checks against the newest."""
        ids, self._ids = self._ids, bytearray()
        self._drained += len(self.views)
        self.views, self.commit_times = array("q"), array("d")
        return ids

    @property
    def packed_ids(self) -> PackedDigests:
        """Committed block ids in commit order (those since the last
        :meth:`drain`), as one packed copy."""
        return PackedDigests.from_bytes(bytes(self._ids))

    @property
    def block_ids(self) -> list[str]:
        """Committed block ids in commit order, since the last :meth:`drain`
        (O(len) snapshot, not for hot paths)."""
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
