"""Two old names of the share collector, kept for the ledger harness.

Every share is checked and counted by
:class:`repro.consensus.quorum.ShareCollector`, the engine's votes and all
eight pacemakers' view messages alike.  ``benchmarks/ledger/_trace.py``
imports the two names below from here and wraps the ``add`` that each class
defines itself, so they stay until that harness reads its spans from the
event table (ROADMAP item 8(e)).
"""

from __future__ import annotations

from repro.consensus.quorum import ShareCollector

#: Kept for the ledger harness, which wraps this class's ``add``: it is the
#: one collector, so a traced run times every share once.
CertificateCollector = ShareCollector


class EpochMessageCollector(ShareCollector):
    """Kept for the ledger harness, which imports this name.  It defines no
    ``add`` of its own, so the harness wraps nothing here and the one
    collector's ``add`` is wrapped once."""
