"""The mempool: client batches queued for proposal, with backpressure.

Two modes, chosen per call by what the mempool holds:

* **Client batches.**  Request gateways submit pre-encoded
  :class:`~repro.statemachine.messages.CommandBatch` blobs via
  :meth:`Mempool.ingest`.  The queue is bounded in *commands* —
  ``max_pending`` — and a full mempool rejects the batch (its owner, the
  gateway that submitted it, re-dispatches it once the commit frontier
  passes this leader's turn), which is the backpressure signal that keeps
  an overloaded leader from buffering unbounded client state.
  :meth:`Mempool.next_batch` pops whole batches up to ``max_batch``
  commands per proposal **without re-encoding them**: the blobs were
  encoded once at the gateway and travel as opaque bytes through the
  proposal broadcast (the binary codec memcpys them), so proposal cost is
  per-batch, not per-command.

* **Synthetic filler.**  With no client workload attached (every run
  before this package existed, and every pure-consensus benchmark), the
  mempool emits ``(owner, seq)`` int-tuple command ids in fixed-size
  batches — cheap to make, compact under the binary codec, and
  payload-shape compatible with everything that inspects ledgers.

Duplicate suppression here is *queue-level* only: a blob is dropped if an
identical blob is already queued (a gateway retry racing its original
forward), and forgotten once proposed — if that proposal's view fails,
the next retry must be accepted again.  Committed duplicates are the
state machine's job (`ReplicatedKV`'s exactly-once filter), not the
mempool's: a mempool cannot know which in-flight proposals will commit.

A queue lives for one *turn* of its owner (its run of consecutive views as
leader).  What two proposals could not carry is dropped when the turn ends
(:meth:`Mempool.expire`, called by the replica) instead of waiting a whole
leader rotation for the next one: the submitting gateway stays the single
owner of every command and re-dispatches it to a leader that proposes
sooner.
"""

from __future__ import annotations

import itertools
from collections import deque

from repro.statemachine.messages import CommandBatch


class Mempool:
    """Bounded queue of client command batches feeding block proposals."""

    def __init__(
        self,
        owner: int,
        batch_size: int = 4,
        max_batch: int = 256,
        max_pending: int = 4096,
    ) -> None:
        self.owner = owner
        #: Commands per *synthetic* batch (client batches keep their size).
        self.batch_size = batch_size
        #: Max commands drained into one proposal.
        self.max_batch = max_batch
        #: Max commands queued before ingest rejects (backpressure bound).
        self.max_pending = max_pending
        self._counter = itertools.count()
        self._queue: deque[CommandBatch] = deque()
        self._queued: set[bytes] = set()
        self._pending_commands = 0
        #: Batches accepted / rejected (backpressure) / dropped as already queued.
        self.accepted = 0
        self.rejected = 0
        self.duplicates = 0
        #: Batches the owner could no longer propose: forwards the replica
        #: refused because no proposal of its own was coming, and queued
        #: batches dropped at the end of its turn.
        self.expired = 0

    @property
    def pending_commands(self) -> int:
        """Commands currently queued for proposal."""
        return self._pending_commands

    def ingest(self, batch: CommandBatch) -> bool:
        """Queue a client batch; ``False`` means full — retry later."""
        if batch.data in self._queued:
            self.duplicates += 1
            return True
        if self._pending_commands + batch.count > self.max_pending:
            self.rejected += 1
            return False
        self._queue.append(batch)
        self._queued.add(batch.data)
        self._pending_commands += batch.count
        self.accepted += 1
        return True

    def refuse(self) -> None:
        """Count a batch turned away at the door: no proposal of the owner's
        is coming that could carry it."""
        self.expired += 1

    def expire(self) -> None:
        """Drop every queued batch: the owner's turn as leader is over."""
        self.expired += len(self._queue)
        self._queue.clear()
        self._queued.clear()
        self._pending_commands = 0

    def next_batch(self) -> tuple:
        """The payload for the next proposal.

        Client batches are drained whole (never split, never re-encoded)
        until the next batch would push the proposal past ``max_batch``
        commands; an oversized first batch still goes out alone rather
        than stalling.  An empty queue yields a synthetic filler batch so
        leaders always have something to propose.
        """
        if not self._queue:
            return tuple(
                (self.owner, next(self._counter)) for _ in range(self.batch_size)
            )
        batches: list[CommandBatch] = []
        commands = 0
        while self._queue and (
            not batches or commands + self._queue[0].count <= self.max_batch
        ):
            batch = self._queue.popleft()
            self._queued.discard(batch.data)
            self._pending_commands -= batch.count
            commands += batch.count
            batches.append(batch)
        return tuple(batches)
