"""The underlying view-based BFT SMR substrate (chained HotStuff).

Lumiere and the baseline pacemakers only *synchronise views*; they need an
underlying protocol that, per view, drives a consensus decision and marks a
view's success by a Quorum Certificate (QC).  This package provides that
substrate: blocks, votes, QCs, a chained-HotStuff engine with a 3-chain
commit rule, a per-replica ledger, and the :class:`Replica` process that
composes the engine with a pluggable pacemaker.
"""

from repro.consensus.blocks import Block, BlockTree, GENESIS
from repro.consensus.engine import ChainedHotStuff, ConsensusEngine
from repro.consensus.ledger import Ledger
from repro.consensus.mempool import Mempool
from repro.consensus.messages import ConsensusMessage, NewView, Proposal, QCAnnounce, Vote
from repro.consensus.quorum import QuorumCertificate, ShareCollector
from repro.consensus.replica import Replica
from repro.consensus.safety import SafetyRules

__all__ = [
    "Block",
    "BlockTree",
    "ChainedHotStuff",
    "ConsensusEngine",
    "ConsensusMessage",
    "GENESIS",
    "Ledger",
    "Mempool",
    "NewView",
    "Proposal",
    "QCAnnounce",
    "QuorumCertificate",
    "Replica",
    "SafetyRules",
    "ShareCollector",
    "Vote",
]
