"""Lumiere: the paper's Byzantine View Synchronization protocol.

This package implements Algorithm 1 of the paper (the full Lumiere protocol
with the success-criterion mechanism that removes heavy epoch
synchronisations in the steady state), plus Basic Lumiere (Section 3.4,
which performs a heavy synchronisation at the start of every epoch), the
epoch-aware leader schedule, and the certificate machinery (View
Certificates, Timeout Certificates and Epoch Certificates), whose shares
are counted by the one share collector
(:class:`repro.consensus.quorum.ShareCollector`) that every baseline
pacemaker and the engine's votes use too.
"""

from repro.core.config import LumiereConfig
from repro.core.leader_schedule import LeaderSchedule
from repro.core.lumiere import BasicLumierePacemaker, LumierePacemaker
from repro.core.messages import EpochViewMessage, ViewCertificate, ViewMessage
from repro.core.success import SuccessTracker

__all__ = [
    "BasicLumierePacemaker",
    "EpochViewMessage",
    "LeaderSchedule",
    "LumiereConfig",
    "LumierePacemaker",
    "SuccessTracker",
    "ViewCertificate",
    "ViewMessage",
]
