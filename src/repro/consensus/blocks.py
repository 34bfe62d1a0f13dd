"""Blocks and the block tree.

A block is proposed by the leader of a view and extends a parent block via
the parent's QC.  The block tree tracks the blocks a replica has seen at
or above its committed-view floor (and genesis), answers ancestry queries,
and walks a block's chain down to the last committed block — which is what
the 3-chain commit rule and the voting rule need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from repro.crypto.backend import blake_digest
from repro.errors import ConsensusError

#: Sentinel id shared by the genesis block and the ``parent_id`` meaning "no
#: parent".
GENESIS_ID = "genesis"


@dataclass(frozen=True)
class Block:
    """A proposal for one view.

    Attributes
    ----------
    view:
        The view in which the block was proposed.
    parent_id:
        Hash of the parent block (the block certified by ``justify_view``).
    proposer:
        Processor id of the proposing leader.
    payload:
        Opaque batch of commands (a tuple of command ids from the mempool).
    justify_view:
        View of the QC embedded in the proposal (the parent's QC view).
    """

    view: int
    parent_id: str
    proposer: int
    payload: tuple = ()
    justify_view: int = -1

    @cached_property
    def block_id(self) -> str:
        """Content-derived identifier of the block (hashed once, then cached).

        A :func:`~repro.crypto.backend.blake_digest` of the block's fields:
        a content hash, the same string under every crypto backend, so no
        run's backend has to be in reach of a lazily derived id.  Genesis
        (``view < 0``) gets the fixed :data:`GENESIS_ID` instead.

        ``cached_property`` needs an instance ``__dict__``, which is why
        ``Block`` is the one protocol dataclass without ``slots=True`` —
        blocks are per-view, not per-message, so they do not dominate
        allocation the way wire messages do.
        """
        if self.view < 0:
            return GENESIS_ID
        return blake_digest("block", self.view, self.parent_id, self.proposer, self.payload)

    def __repr__(self) -> str:
        return (
            f"Block(view={self.view}, id={self.block_id[:8]}…, parent={self.parent_id[:8]}…, "
            f"proposer={self.proposer})"
        )


# The genesis block: view -1, no parent, no proposer.  Its id and parent_id
# are both the GENESIS_ID sentinel; BlockTree.parent special-cases it.
GENESIS = Block(view=-1, parent_id=GENESIS_ID, proposer=-1, payload=(), justify_view=-1)


class BlockTree:
    """Per-replica store of the known blocks at or above the committed-view
    floor (:meth:`release_below`), rooted at genesis."""

    def __init__(self) -> None:
        self._blocks: dict[str, Block] = {GENESIS.block_id: GENESIS}

    # ------------------------------------------------------------------
    # Insertion and lookup
    # ------------------------------------------------------------------
    def add(self, block: Block) -> None:
        """Insert a block.  The parent must already be known (or be genesis)."""
        if block.block_id in self._blocks:
            return
        if block.parent_id not in self._blocks and block.parent_id != GENESIS_ID:
            raise ConsensusError(
                f"block {block.block_id[:8]} references unknown parent {block.parent_id[:8]}"
            )
        self._blocks[block.block_id] = block

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, block_id: str) -> Optional[Block]:
        """The block with the given id, or ``None``."""
        return self._blocks.get(block_id)

    def require(self, block_id: str) -> Block:
        """The block with the given id; raises if unknown."""
        block = self._blocks.get(block_id)
        if block is None:
            raise ConsensusError(f"unknown block {block_id[:8]}")
        return block

    def blocks(self) -> Iterable[Block]:
        """All known blocks (unordered)."""
        return self._blocks.values()

    def release_below(self, floor: int) -> None:
        """Forget every block of a view below the replica's committed-view
        floor but genesis.  The last committed block is at or above the
        floor, so the commit walk still ends on it, and the lock, the high
        QC and every justify a leader picks are above it; a QC for a
        forgotten block misses the tree, which is the no-op its view
        check gave."""
        self._blocks = {
            block_id: block
            for block_id, block in self._blocks.items()
            if block.view >= floor or block.view < 0
        }

    # ------------------------------------------------------------------
    # Ancestry
    # ------------------------------------------------------------------
    def parent(self, block: Block) -> Optional[Block]:
        """The parent of ``block``, or ``None`` for genesis."""
        if block.block_id == GENESIS.block_id:
            return None
        return self._blocks.get(block.parent_id)

    def chain_to_genesis(self, block: Block) -> list[Block]:
        """The chain ``[block, parent, ..., genesis]``."""
        chain = [block]
        current = block
        while True:
            parent = self.parent(current)
            if parent is None:
                break
            chain.append(parent)
            current = parent
        return chain

    def is_ancestor(self, ancestor_id: str, descendant: Block) -> bool:
        """Whether the block with ``ancestor_id`` is on ``descendant``'s chain.

        Walks upwards with early exit: the walk stops as soon as the ancestor
        is found or the chain drops below the ancestor's view.
        """
        ancestor = self._blocks.get(ancestor_id)
        floor_view = ancestor.view if ancestor is not None else None
        current: Optional[Block] = descendant
        while current is not None:
            if current.block_id == ancestor_id:
                return True
            if floor_view is not None and current.view < floor_view:
                return False
            current = self.parent(current)
        return False

    def extends(self, block: Block, other_id: str) -> bool:
        """Whether ``block`` extends (is a descendant of, or equals) ``other_id``."""
        return self.is_ancestor(other_id, block)
