"""Message types exchanged by the consensus substrate.

All consensus messages derive from :class:`ConsensusMessage` so the replica
can route them to its engine (pacemaker messages derive from
``PacemakerMessage`` instead; see :mod:`repro.pacemakers.base`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.consensus.blocks import Block
from repro.consensus.quorum import QuorumCertificate
from repro.crypto.threshold import PartialSignature

# A message class's ``admission`` bits say how ``Replica.on_message`` admits
# its frames; without them (a QC announce, a client frame) a frame is
# admitted at every view.
#: Dropped below the committed-view floor, where its handler does nothing
#: (not a proposal or NewView: the QC it carries may be a first sight there).
DROPPED_BELOW_FLOOR = 1
#: Held more than ``ADMISSION_WINDOW`` views ahead, one per class and sender.
HELD_AHEAD = 2
SHARE = DROPPED_BELOW_FLOOR | HELD_AHEAD


@dataclass(frozen=True, slots=True)
class ConsensusMessage:
    """Base class for all messages handled by the consensus engine."""

    view: int


@dataclass(frozen=True, slots=True)
class Proposal(ConsensusMessage):
    """Leader's proposal for a view: a block plus the QC justifying it."""

    block: Block
    justify: Optional[QuorumCertificate]
    admission = HELD_AHEAD


@dataclass(frozen=True, slots=True)
class Vote(ConsensusMessage):
    """A replica's vote (partial threshold signature) on a proposed block."""

    block_id: str
    partial: PartialSignature
    admission = SHARE


@dataclass(frozen=True, slots=True)
class QCAnnounce(ConsensusMessage):
    """Leader's broadcast of a freshly formed QC for its view.

    Carries the certified block as well so that replicas that missed the
    original proposal can still extend the chain.
    """

    qc: QuorumCertificate
    block: Block


@dataclass(frozen=True, slots=True)
class NewView(ConsensusMessage):
    """Status message carrying a replica's highest QC to the new leader.

    Sent when a replica enters a view; lets the new leader learn the highest
    certified block so its proposal extends it.
    """

    high_qc: Optional[QuorumCertificate]
    admission = HELD_AHEAD
