"""Quorum certificates and the one share collector.

A Quorum Certificate (QC) for a view ``v`` is a threshold signature by
``2f + 1`` distinct processors over ``(view, block_id)``.  Producing a QC is
what the paper calls "the successful completion of a view": the pacemakers
treat QC arrival as the signal to advance or bump clocks, and the complexity
measures are defined in terms of the first post-GST QC produced by an honest
leader.

Every share towards a certificate, a vote or a pacemaker's view message, is
checked and counted by :class:`ShareCollector`, and
:func:`release_below` frees every per-view table at the committed-view
floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.threshold import PartialSignature, ThresholdScheme, ThresholdSignature


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
    last time.  No owner files a key below its floor (the replica drops a
    frame below it that would, before any handler sees it, and the rest
    return on an older view), so only the keys from ``lowest`` up to
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


class ShareCollector:
    """Checks and counts signed shares per view: the one share collector.

    Every certificate says that ``quorum`` distinct processors signed one
    message.  The engine's votes (a QC, ``2f+1``, at the view's leader) and
    every pacemaker's view messages (Lumiere's and Fever's View
    Certificates, the LP22 / RareSync Epoch Certificate and the Cogsworth /
    Naor-Keidar relay certificate; Lumiere's TC and EC and backoff's two
    crossings, counted at every processor) go through one of these.

    A share counts once, and only if its signer is its sender,
    :meth:`ThresholdScheme.verify_partial` accepts it over the message the
    caller expects, and the view does not hold ``quorum`` shares yet.  The
    checks run cheapest first: a refused sender or a full view costs two
    dict lookups, not a digest.  :meth:`add` returns the number of shares
    now held for the view, or 0 if it refused the share, so a threshold
    ``k <= quorum`` is crossed exactly when the count equals ``k``, once per
    view; the owner then calls :meth:`combine` if it forms a certificate.
    Each owner keeps its own guards (view range, leadership) in front of
    ``add``.
    """

    def __init__(self, scheme: ThresholdScheme, quorum: int) -> None:
        self.scheme = scheme
        self.quorum = quorum
        self._shares: dict[int, dict[int, PartialSignature]] = {}
        # The floor these shares were last released below (None before the
        # first release).
        self._released: Optional[int] = None

    def add(self, view: int, sender: int, partial: PartialSignature, message: Any) -> int:
        """Count ``sender``'s share over ``message`` for ``view``; the count
        now held, or 0 if the share was refused."""
        if partial.signer != sender:
            return 0
        shares = self._shares.get(view)
        if shares is not None and (sender in shares or len(shares) >= self.quorum):
            return 0
        if not self.scheme.verify_partial(partial, message):
            return 0
        if shares is None:
            shares = self._shares[view] = {}
        shares[sender] = partial
        return len(shares)

    def combine(self, view: int, message: Any) -> ThresholdSignature:
        """The certificate over ``message`` from ``view``'s ``quorum`` shares."""
        return self.scheme.combine(list(self._shares[view].values()), self.quorum, message)

    def count(self, view: int) -> int:
        """Number of shares counted for ``view`` (at most ``quorum``)."""
        return len(self._shares.get(view, ()))

    def release_below(self, floor: int) -> None:
        """Forget every view below ``floor``."""
        release_below(floor, self._shares, lowest=self._released)
        self._released = floor
