"""Quorum certificates and vote aggregation.

A Quorum Certificate (QC) for a view ``v`` is a threshold signature by
``2f + 1`` distinct processors over ``(view, block_id)``.  Producing a QC is
what the paper calls "the successful completion of a view": the pacemakers
treat QC arrival as the signal to advance or bump clocks, and the complexity
measures are defined in terms of the first post-GST QC produced by an honest
leader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.threshold import PartialSignature, ThresholdScheme, ThresholdSignature
from repro.errors import ThresholdError


@dataclass(frozen=True, slots=True)
class QuorumCertificate:
    """Certificate that view ``view`` completed on block ``block_id``."""

    view: int
    block_id: str
    aggregate: ThresholdSignature

    @property
    def signers(self) -> frozenset[int]:
        """Processors whose votes were aggregated."""
        return self.aggregate.signers

    def message(self) -> tuple:
        """The message the aggregate signature covers."""
        return ("qc", self.view, self.block_id)

    def __repr__(self) -> str:
        return f"QC(view={self.view}, block={self.block_id[:8]}…, signers={len(self.signers)})"


def release_below(floor, *tables, lowest: Optional[int] = None) -> None:
    """Forget every key below ``floor`` in per-view dicts and sets: the one
    primitive of the committed-view floor (``Replica.commit_block``).  Pass
    ``(view,)`` for tables keyed ``(view, block_id)`` — it sorts first.

    ``lowest`` is the floor the owner released its int-keyed tables below
    last time.  No owner files a key below its floor (every handler returns
    on an older view first), so only the keys from ``lowest`` up to
    ``floor`` can be there and each is looked up; a floor that jumped past
    a table's size walks the table instead.  Without ``lowest`` a table's
    ``min`` says whether anything is that old, and only then is it walked.
    """
    if lowest is not None:
        span = floor - lowest
        for table in tables:
            if not table:
                continue
            if span > len(table):
                _walk_below(floor, table)
            elif isinstance(table, dict):
                for key in range(lowest, floor):
                    table.pop(key, None)
            else:
                for key in range(lowest, floor):
                    table.discard(key)
        return
    for table in tables:
        if table and min(table) < floor:
            _walk_below(floor, table)


def _walk_below(floor, table) -> None:
    """Drop every key below ``floor`` from ``table``, one pass over it."""
    discard = table.pop if isinstance(table, dict) else table.remove
    for key in [key for key in table if key < floor]:
        discard(key)


class VoteAggregator:
    """Collects votes per ``(view, block_id)`` and forms a QC at quorum.

    Each leader owns one aggregator.  Votes from duplicate signers are
    ignored; the QC is formed at most once per (view, block), which frees
    the bucket of shares.
    """

    def __init__(self, scheme: ThresholdScheme, quorum_size: int) -> None:
        self.scheme = scheme
        self.quorum_size = quorum_size
        self._partials: dict[tuple[int, str], dict[int, PartialSignature]] = {}
        self._formed: set[tuple[int, str]] = set()

    def add_vote(
        self, view: int, block_id: str, partial: PartialSignature
    ) -> Optional[QuorumCertificate]:
        """Record a vote; return a freshly formed QC if this vote completed a quorum."""
        key = (view, block_id)
        if key in self._formed:
            return None
        message = ("qc", view, block_id)
        if not self.scheme.verify_partial(partial, message):
            return None
        bucket = self._partials.setdefault(key, {})
        bucket[partial.signer] = partial
        if len(bucket) < self.quorum_size:
            return None
        try:
            aggregate = self.scheme.combine(list(bucket.values()), self.quorum_size, message)
        except ThresholdError:
            return None
        self._formed.add(key)
        del self._partials[key]
        return QuorumCertificate(view=view, block_id=block_id, aggregate=aggregate)

    def release_below(self, floor: int) -> None:
        """Drop every bucket and formed-marker of a view below ``floor``."""
        release_below((floor,), self._partials, self._formed)

    def votes_for(self, view: int, block_id: str) -> int:
        """How many distinct votes have been collected for (view, block)."""
        return len(self._partials.get((view, block_id), {}))
