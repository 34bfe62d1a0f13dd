"""Chained HotStuff: the view-based consensus engine the pacemakers drive.

One view of chained HotStuff, as described in Section 2 of the paper:

1. the leader of view ``v`` proposes a block extending the highest QC it
   knows (broadcast to all, O(n) messages),
2. replicas in view ``v`` vote by sending a partial threshold signature to
   the leader (O(n) messages),
3. the leader aggregates ``2f+1`` votes into a QC for view ``v`` and sends
   it to all processors (O(n) messages).

A view therefore costs O(n) messages and at most three message delays once
the participants are synchronised — satisfying assumption (⋄1) with a small
constant ``x``.  Commit uses the classic 3-chain rule, so every sequence of
three consecutive successful views commits a block.

The engine never reads clocks: *when* to enter a view is entirely the
pacemaker's decision, delivered via :meth:`ConsensusEngine.on_enter_view`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.consensus.blocks import Block, GENESIS, GENESIS_ID
from repro.consensus.messages import (
    ConsensusMessage,
    NewView,
    Proposal,
    QCAnnounce,
    Vote,
)
from repro.consensus.quorum import QuorumCertificate, ShareCollector, release_below

if TYPE_CHECKING:  # pragma: no cover - type-checking only
    from repro.consensus.replica import Replica

#: Sentinel distinguishing "type not classified yet" from "classified as
#: ignorable" (which caches ``None``) in the dispatch table.
_UNSEEN: Any = object()


class ConsensusEngine(ABC):
    """Interface between a replica and its consensus logic."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica

    @abstractmethod
    def on_enter_view(self, view: int) -> None:
        """The pacemaker moved the replica into ``view``."""

    @abstractmethod
    def on_message(self, msg: ConsensusMessage, sender: int) -> None:
        """Handle a consensus-layer message."""

    @abstractmethod
    def proposal_pending(self, view: int) -> bool:
        """Whether this replica leads ``view`` and has yet to propose in it
        (read-only: what is queued for it now can still ride that proposal)."""

    def release_below(self, floor: int) -> None:
        """The replica's committed-view floor rose: free per-view state below it."""


class ChainedHotStuff(ConsensusEngine):
    """Chained HotStuff with NewView status messages and a 3-chain commit rule."""

    def __init__(self, replica: "Replica") -> None:
        super().__init__(replica)
        # Votes for the views this replica leads; a QC forms when a view's
        # count reaches the quorum, so once per view.
        self.votes = ShareCollector(replica.scheme, replica.config.quorum_size)
        # Proposals received for views we have not entered yet.
        self._pending_proposals: dict[int, tuple[Proposal, int]] = {}
        # Blocks whose parent we have not seen yet, keyed by the missing parent id.
        self._orphans: dict[str, list[Block]] = {}
        # Highest QCs reported via NewView, per view, per sender.
        self._new_view_qcs: dict[int, dict[int, Optional[QuorumCertificate]]] = {}
        # View -> the block this leader proposed in it: the one block its
        # votes may be for (None: it proposed no single block).
        self._proposed_views: dict[int, Optional[str]] = {}
        self._learned_qcs: set[tuple[int, str]] = set()
        # Bit v: the QC of view v, now below the floor, was learned (a view
        # has one QC: two would share an honest voter).  A bytearray set in
        # place: views without a QC leave holes that never fill, so no
        # prefix can be folded away, and an int mask would be copied whole
        # by every ``|=``.
        self._learned_below = bytearray()
        # The floor the int-keyed tables above were last released below
        # (None before the first release).
        self._released: Optional[int] = None
        # Exact-type dispatch table for on_message; subclasses of the four
        # wire messages are resolved (and cached) on first sight.
        self._handlers: dict[type, Optional[Callable[[Any, int], None]]] = {
            NewView: self._handle_new_view,
            Proposal: self._handle_proposal,
            Vote: self._handle_vote,
            QCAnnounce: self._handle_qc_announce,
        }

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def config(self):
        return self.replica.config

    @property
    def safety(self):
        return self.replica.safety

    @property
    def tree(self):
        return self.replica.tree

    @property
    def behaviour(self):
        return self.replica.behaviour

    # ------------------------------------------------------------------
    # View entry
    # ------------------------------------------------------------------
    def on_enter_view(self, view: int) -> None:
        leader = self.replica.leader_of(view)
        if not self.behaviour.suppress_view_sync("new_view", view):
            self.replica.send(leader, NewView(view=view, high_qc=self.safety.high_qc))
        self._maybe_propose(view)
        pending = self._pending_proposals.pop(view, None)
        if pending is not None:
            proposal, sender = pending
            self._handle_proposal(proposal, sender)

    def release_below(self, floor: int) -> None:
        """Free everything keyed by a view below ``floor``: the handlers
        return on its messages first, and an orphan down there is off the
        committed chain.  Learned-QC marks shrink to a bit each: a cut-off
        replica first sees QC(v) after committing past v, and that counts."""
        release_below(
            floor, self._pending_proposals, self._new_view_qcs,
            self._proposed_views, lowest=self._released,
        )
        self._released = floor
        learned = self._learned_below
        for view, _ in self._learned_qcs:
            if 0 <= view < floor:
                if view >> 3 >= len(learned):
                    learned.extend(bytes((view >> 3) - len(learned) + 1))
                learned[view >> 3] |= 1 << (view & 7)
        release_below((floor,), self._learned_qcs)
        self.votes.release_below(floor)
        if self._orphans:
            self._orphans = {
                parent_id: kept
                for parent_id, blocks in self._orphans.items()
                if (kept := [block for block in blocks if block.view >= floor])
            }

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, msg: ConsensusMessage, sender: int) -> None:
        """Dispatch on the concrete message class (one dict lookup per delivery).

        The table is seeded with the four wire messages; a subclass (or an
        unknown consensus message, which is ignored) pays the ``isinstance``
        ladder once and is cached from then on.
        """
        handler = self._handlers.get(msg.__class__, _UNSEEN)
        if handler is _UNSEEN:
            handler = self._resolve_handler(msg.__class__)
        if handler is not None:
            handler(msg, sender)

    def _resolve_handler(
        self, message_type: type
    ) -> Optional[Callable[[Any, int], None]]:
        """Slow path: classify a new message type and cache the result."""
        if issubclass(message_type, NewView):
            handler: Optional[Callable[[Any, int], None]] = self._handle_new_view
        elif issubclass(message_type, Proposal):
            handler = self._handle_proposal
        elif issubclass(message_type, Vote):
            handler = self._handle_vote
        elif issubclass(message_type, QCAnnounce):
            handler = self._handle_qc_announce
        else:
            handler = None  # unknown consensus message: ignored, like before
        self._handlers[message_type] = handler
        return handler

    # ------------------------------------------------------------------
    # Leader logic
    # ------------------------------------------------------------------
    def proposal_pending(self, view: int) -> bool:
        replica = self.replica
        return (
            view >= 0
            and replica.leader_of(view) == replica.pid
            and view not in self._proposed_views
        )

    def _handle_new_view(self, msg: NewView, sender: int) -> None:
        if self.replica.leader_of(msg.view) != self.replica.pid:
            return
        if msg.high_qc is not None:
            self._learn_qc(msg.high_qc)
        if msg.view < self.replica.floor:
            return
        self._new_view_qcs.setdefault(msg.view, {})[sender] = msg.high_qc
        self._maybe_propose(msg.view)

    def _maybe_propose(self, view: int) -> None:
        """Propose for ``view`` if we lead it and are ready.

        Ready means: we hold a QC for ``view - 1`` (the responsive path), or
        we have NewView messages from a quorum (the recovery path after a
        failed view), or ``view`` is the first view of the execution.
        """
        replica = self.replica
        if not self.proposal_pending(view) or replica.current_view != view:
            return
        high_qc = self.safety.high_qc
        quorum_reports = self._new_view_qcs.get(view, {})
        responsive_ready = high_qc is not None and high_qc.view == view - 1
        recovery_ready = len(quorum_reports) >= self.config.quorum_size
        genesis_ready = view == 0
        if not (responsive_ready or recovery_ready or genesis_ready):
            return

        justify = self._best_justify(high_qc, quorum_reports.values())
        parent = self._parent_for(justify)
        if parent is None:
            return
        self._proposed_views[view] = None

        if self.behaviour.suppress_proposal(view):
            self.replica.trace("proposal_suppressed", view)
            return

        delay = self.behaviour.proposal_delay(view)
        if self.behaviour.equivocate(view):
            self._propose_equivocating(view, parent, justify, delay)
            return

        block = Block(
            view=view,
            parent_id=parent.block_id,
            proposer=replica.pid,
            payload=replica.mempool.next_batch(),
            justify_view=justify.view if justify is not None else -1,
        )
        self._proposed_views[view] = block.block_id
        proposal = Proposal(view=view, block=block, justify=justify)
        self._send_after(delay, lambda: replica.broadcast(proposal))
        replica.trace("proposal_sent", view)

    def _propose_equivocating(
        self, view: int, parent: Block, justify: Optional[QuorumCertificate], delay: float
    ) -> None:
        """Byzantine leader: send conflicting proposals to the two halves of the system."""
        replica = self.replica
        block_a = Block(
            view=view,
            parent_id=parent.block_id,
            proposer=replica.pid,
            payload=replica.mempool.next_batch() + ("equivocation-a",),
            justify_view=justify.view if justify is not None else -1,
        )
        block_b = Block(
            view=view,
            parent_id=parent.block_id,
            proposer=replica.pid,
            payload=replica.mempool.next_batch() + ("equivocation-b",),
            justify_view=justify.view if justify is not None else -1,
        )
        all_ids = list(self.replica.transport.process_ids)
        half = len(all_ids) // 2
        first, second = all_ids[:half], all_ids[half:]

        def send() -> None:
            for pid in first:
                replica.send(pid, Proposal(view=view, block=block_a, justify=justify))
            for pid in second:
                replica.send(pid, Proposal(view=view, block=block_b, justify=justify))

        self._send_after(delay, send)
        replica.trace("equivocation_sent", view)

    def _best_justify(
        self,
        high_qc: Optional[QuorumCertificate],
        reported: "Optional[object]",
    ) -> Optional[QuorumCertificate]:
        """The highest-view QC among our own and those reported via NewView."""
        best = high_qc
        for qc in reported or ():
            if qc is None:
                continue
            if best is None or qc.view > best.view:
                best = qc
        return best

    def _parent_for(self, justify: Optional[QuorumCertificate]) -> Optional[Block]:
        if justify is None:
            return GENESIS
        return self.tree.get(justify.block_id)

    # ------------------------------------------------------------------
    # Replica logic
    # ------------------------------------------------------------------
    def _handle_proposal(self, msg: Proposal, sender: int) -> None:
        """Store and vote on a proposal from its view's leader whose block
        is of its view and extends its justify, and whose justify
        verifies; drop any other."""
        replica = self.replica
        leader = replica.leader_of(msg.view)
        block, justify = msg.block, msg.justify
        if sender != leader or block.proposer != leader:
            return
        if justify is None:
            extends = block.parent_id == GENESIS_ID and block.justify_view == -1
        else:
            extends = (
                self._learn_qc(justify)
                and block.parent_id == justify.block_id
                and block.justify_view == justify.view
            )
        if block.view != msg.view or not extends:
            return
        self._store_block(block)
        current = replica.current_view
        if msg.view > current:
            self._pending_proposals[msg.view] = (msg, sender)
            return
        if msg.view < current:
            return
        self._vote_on(msg)

    def _vote_on(self, msg: Proposal) -> None:
        replica = self.replica
        block = msg.block
        if block.parent_id not in self.tree and block.parent_id != GENESIS_ID:
            # Parent unknown: remember the proposal; we may receive the parent
            # via a QCAnnounce shortly.
            self._orphans.setdefault(block.parent_id, []).append(block)
            return
        if not self.safety.safe_to_vote(block, msg.justify):
            return
        if self.behaviour.suppress_vote(msg.view):
            return
        self.safety.record_vote(block)
        message = ("qc", msg.view, block.block_id)
        partial = replica.scheme.partial_sign(replica.signing_key, message)
        vote = Vote(view=msg.view, block_id=block.block_id, partial=partial)
        replica.send(replica.leader_of(msg.view), vote)

    def _handle_vote(self, msg: Vote, sender: int) -> None:
        """Count a vote for the block this leader proposed in the vote's
        view; a vote for any other block is refused before any digest."""
        replica, view = self.replica, msg.view
        if replica.leader_of(view) != replica.pid or view < replica.floor:
            return
        block_id = self._proposed_views.get(view)
        if block_id is None or msg.block_id != block_id:
            return
        message = ("qc", view, block_id)
        if self.votes.add(view, sender, msg.partial, message) == self.votes.quorum:
            aggregate = self.votes.combine(view, message)
            self._on_qc_formed(QuorumCertificate(view=view, block_id=block_id, aggregate=aggregate))

    def _on_qc_formed(self, qc: QuorumCertificate) -> None:
        """The view's votes reached the quorum (once per view)."""
        replica = self.replica
        if not replica.pacemaker.may_produce_qc(qc.view):
            replica.trace("qc_withheld_past_deadline", qc.view)
            return
        block = self.tree.get(qc.block_id)
        replica.on_qc_produced(qc)
        if self.behaviour.suppress_qc_broadcast(qc.view):
            replica.trace("qc_broadcast_suppressed", qc.view)
            self._learn_qc(qc)
            return
        delay = self.behaviour.qc_broadcast_delay(qc.view)
        announce = QCAnnounce(view=qc.view, qc=qc, block=block if block is not None else GENESIS)
        self._send_after(delay, lambda: replica.broadcast(announce))

    def _handle_qc_announce(self, msg: QCAnnounce, sender: int) -> None:
        # The block rides along for a replica that missed its proposal; one
        # that holds the certified block has nothing to store, or to hash.
        # It is stored only once the QC verifies, and only if it is the
        # block the QC certifies.
        block, qc = msg.block, msg.qc
        if qc.block_id in self.tree or block is None or block.view < 0:
            block = None
        self._learn_qc(qc, block)

    # ------------------------------------------------------------------
    # Shared QC / block learning
    # ------------------------------------------------------------------
    def _store_block(self, block: Block) -> None:
        if block.block_id in self.tree:
            return
        if block.parent_id not in self.tree and block.parent_id != GENESIS_ID:
            if block.view >= self.replica.floor:
                self._orphans.setdefault(block.parent_id, []).append(block)
            return
        self.tree.add(block)
        self._adopt_orphans(block.block_id)

    def _adopt_orphans(self, parent_id: str) -> None:
        children = self._orphans.pop(parent_id, [])
        for child in children:
            if child.block_id not in self.tree:
                self.tree.add(child)
                self._adopt_orphans(child.block_id)

    def _learned_below_floor(self, view: int) -> bool:
        """Whether ``view``'s QC was learned before the floor passed it."""
        learned = self._learned_below
        return 0 <= view and view >> 3 < len(learned) and bool(
            learned[view >> 3] >> (view & 7) & 1
        )

    def _learn_qc(self, qc: QuorumCertificate, block: Optional[Block] = None) -> bool:
        """Learn ``qc`` the first time it verifies; whether it verifies.  A
        ``block`` that came with it is stored once it verifies, if it is
        the certified block."""
        key = (qc.view, qc.block_id)
        learned = key in self._learned_qcs
        if not learned and not self.replica.scheme.verify(
            qc.aggregate, qc.message(), self.config.quorum_size
        ):
            return False
        if block is not None and block.block_id == qc.block_id:
            self._store_block(block)
        if learned or self._learned_below_floor(qc.view):
            return True
        self._learned_qcs.add(key)
        self.safety.update_high_qc(qc)
        for committed in self.safety.commit_candidate(qc):
            self.replica.commit_block(committed)
        self.replica.on_qc_observed(qc)
        # Observing a QC may unblock our own proposal for the view we lead.
        self._maybe_propose(self.replica.current_view)
        return True

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _send_after(self, delay: float, action) -> None:
        if delay > 0:
            self.replica.runtime.set_timer(delay, action)
        else:
            action()
