"""RareSync-style pacemaker (Civit et al., DISC 2022).

RareSync was, together with LP22, the first protocol to match the
Dolev-Reischuk bound in partial synchrony: views are batched into epochs of
``f+1`` views, a quadratic all-to-all synchronisation happens once per
epoch, and within an epoch views advance purely by timer.  Unlike LP22 it is
*not* optimistically responsive: even when every leader is honest and the
network is fast, each view occupies its full ``Gamma`` of clock time.

The epoch-synchronisation machinery is identical to LP22's; only the
in-epoch behaviour differs (no QC-driven early entry), so the implementation
subclasses :class:`~repro.pacemakers.lp22.LP22Pacemaker` and disables the
responsive path.
"""

from __future__ import annotations

from repro.consensus.quorum import QuorumCertificate
from repro.pacemakers.lp22 import LP22Pacemaker


class RareSyncPacemaker(LP22Pacemaker):
    """Epoch-synchronised pacemaker without optimistic responsiveness."""

    name = "raresync"

    def on_qc(self, qc: QuorumCertificate) -> None:
        """RareSync ignores QCs for view advancement: views advance by timer only."""
        return None
