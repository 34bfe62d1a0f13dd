"""The success criterion of Section 3.5.

An epoch *produces the success criterion* when at least ``2f + 1`` distinct
processors each produce a QC for every one of their views in the epoch (ten
QCs with the default epoch length).  Each processor tracks the criterion
locally from the QCs it observes; when the local variable ``success(e)``
flips to 1, the processor treats the first view of epoch ``e + 1`` as a
standard initial view and skips the heavy epoch synchronisation.
"""

from __future__ import annotations

from typing import Callable

from repro.consensus.quorum import QuorumCertificate, release_below
from repro.core.config import LumiereConfig


class SuccessTracker:
    """Tracks, per epoch, which leaders produced QCs for which views."""

    def __init__(self, config: LumiereConfig, leader_of: Callable[[int], int]) -> None:
        self.config = config
        self.leader_of = leader_of
        self._qc_views: dict[int, dict[int, set[int]]] = {}
        self._satisfied: set[int] = set()
        # Number of leaders currently meeting the per-leader quota, per epoch,
        # maintained incrementally: observe_qc is called for every QC at every
        # replica, so rescanning all leaders there was an O(n) cost per QC
        # that dominated large-n profiles.
        self._qualified: dict[int, int] = {}
        self._quota = config.success_qcs_per_leader
        self._required = config.success_leaders_required
        self._released = 0  # epochs before this one are forgotten

    def observe_qc(self, qc: QuorumCertificate) -> bool:
        """Record a QC.  Returns True if this observation *newly* satisfies the epoch."""
        if not self.config.use_success_criterion:
            return False
        view = qc.view
        if view < 0:
            return False
        epoch = self.config.epoch_of(view)
        if epoch in self._satisfied or epoch < self._released:
            return False
        leader = self.leader_of(view)
        per_leader = self._qc_views.setdefault(epoch, {})
        views = per_leader.setdefault(leader, set())
        if view in views:
            return False
        views.add(view)
        if len(views) != self._quota:
            return False  # leader not *newly* qualified; counts unchanged
        qualified = self._qualified.get(epoch, 0) + 1
        self._qualified[epoch] = qualified
        if qualified >= self._required:
            self._satisfied.add(epoch)
            # Nothing reads a satisfied epoch's per-leader views again.
            del self._qc_views[epoch], self._qualified[epoch]
            return True
        return False

    def release_below(self, epoch: int) -> None:
        """Forget every epoch before ``epoch``: the replica is past the first
        view of ``epoch``, the last place their criterion was read."""
        release_below(
            epoch, self._qc_views, self._qualified, self._satisfied, lowest=self._released
        )
        self._released = epoch

    def satisfied(self, epoch: int) -> bool:
        """The local variable ``success(epoch)``."""
        if epoch < 0:
            return False
        return epoch in self._satisfied
