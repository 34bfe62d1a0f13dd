"""A replica's :class:`Behaviour`: the hooks the consensus engine and the
pacemaker consult where a Byzantine processor could deviate (proposing,
voting, broadcasting QCs, view synchronisation).  :class:`HonestBehaviour`
never deviates; the Byzantine subclasses are :mod:`repro.faults.behaviours`.
"""

from __future__ import annotations

from typing import Optional


class Behaviour:
    """Base class: answers the engine's and pacemaker's "may I / should I" queries.

    The default implementation is fully honest.  Subclasses override the
    hooks relevant to their deviation.  ``is_byzantine`` distinguishes
    corrupted processors for metrics purposes (corrupted processors' messages
    are not counted in communication complexity).
    """

    is_byzantine: bool = False

    # --- consensus-engine hooks -------------------------------------------------
    def suppress_proposal(self, view: int) -> bool:
        """Return True to make the leader stay silent instead of proposing."""
        return False

    def proposal_delay(self, view: int) -> float:
        """Extra delay (in time units) before the leader sends its proposal."""
        return 0.0

    def equivocate(self, view: int) -> bool:
        """Return True to make the leader propose two conflicting blocks."""
        return False

    def suppress_vote(self, view: int) -> bool:
        """Return True to withhold this replica's vote in ``view``."""
        return False

    def suppress_qc_broadcast(self, view: int) -> bool:
        """Return True to make the leader withhold the QC it formed."""
        return False

    def qc_broadcast_delay(self, view: int) -> float:
        """Extra delay before the leader broadcasts a formed QC."""
        return 0.0

    # --- pacemaker hooks ----------------------------------------------------------
    def suppress_view_sync(self, kind: str, view: int) -> bool:
        """Return True to withhold a view-synchronisation message.

        ``kind`` identifies the message class (e.g. ``"view"``, ``"epoch_view"``,
        ``"vc"``, ``"wish"``); ``view`` is the view it concerns.
        """
        return False

    # --- lifecycle ---------------------------------------------------------------
    def crash_time(self) -> Optional[float]:
        """If not ``None``, the simulation time at which this processor halts."""
        return None

    def recover_time(self) -> Optional[float]:
        """If not ``None``, the time at which a crashed processor restarts.

        Only meaningful together with :meth:`crash_time`; must be strictly
        after it.  ``None`` (the default) means a crash is permanent.
        """
        return None

    def downtime_windows(self) -> list[tuple[float, Optional[float]]]:
        """All ``(crash_at, recover_at)`` windows, in increasing order.

        The general lifecycle hook: a replica crashes at the start of each
        window and recovers at its end (``None`` end = never).  The default
        derives a single window from :meth:`crash_time` / :meth:`recover_time`;
        churn behaviours override this to cycle through many windows.
        """
        crash_at = self.crash_time()
        if crash_at is None:
            return []
        return [(crash_at, self.recover_time())]

    def describe(self) -> str:
        """Human-readable description used in scenario reports."""
        return type(self).__name__


class HonestBehaviour(Behaviour):
    """Never deviates."""
