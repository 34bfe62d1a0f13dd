"""Byzantine behaviours: :class:`~repro.consensus.behaviour.Behaviour` subclasses.

Behaviours deliberately express *omission and timing* faults plus
equivocation — the deviations that actually matter for the paper's results.
(Arbitrary message forgery is impossible by construction of the simulated
cryptography: a Byzantine processor can only sign in its own name.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.consensus.behaviour import Behaviour


@dataclass
class CrashBehaviour(Behaviour):
    """Crash-stop at a given time (benign fault), optionally recovering later."""

    at_time: float = 0.0
    is_byzantine: bool = True
    #: When set, the processor restarts at this time (must exceed ``at_time``).
    recover_at: Optional[float] = None

    def crash_time(self) -> Optional[float]:
        return self.at_time

    def recover_time(self) -> Optional[float]:
        return self.recover_at

    def describe(self) -> str:
        if self.recover_at is None:
            return f"CrashBehaviour(at={self.at_time})"
        return f"CrashBehaviour(at={self.at_time}, recover_at={self.recover_at})"


@dataclass
class ChurnBehaviour(Behaviour):
    """Repeated crash/recovery cycles: down for ``downtime`` out of every ``period``.

    Starting at ``first_crash``, the processor crashes, stays down for
    ``downtime`` time units, recovers, and repeats every ``period`` time units
    for ``cycles`` cycles (the last recovery still happens, so the processor
    ends the run alive).  This models restart churn — processors that keep
    rejoining the protocol with their local clocks intact but having missed
    messages.
    """

    first_crash: float = 0.0
    downtime: float = 1.0
    period: float = 10.0
    cycles: int = 3
    is_byzantine: bool = True

    def __post_init__(self) -> None:
        if self.downtime <= 0 or self.period <= self.downtime:
            raise ValueError(
                f"need 0 < downtime < period, got downtime={self.downtime}, "
                f"period={self.period}"
            )
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")

    def downtime_windows(self) -> list[tuple[float, Optional[float]]]:
        return [
            (
                self.first_crash + index * self.period,
                self.first_crash + index * self.period + self.downtime,
            )
            for index in range(self.cycles)
        ]

    def describe(self) -> str:
        return (
            f"ChurnBehaviour(first={self.first_crash}, down={self.downtime}, "
            f"period={self.period}, cycles={self.cycles})"
        )


class SilentLeaderBehaviour(Behaviour):
    """Participates normally except it never proposes when it is the leader.

    This is the canonical fault for latency attacks: a silent leader forces
    every honest processor to wait out the full view timer.
    """

    is_byzantine = True

    def suppress_proposal(self, view: int) -> bool:
        return True

    def suppress_qc_broadcast(self, view: int) -> bool:
        return True


@dataclass
class SlowLeaderBehaviour(Behaviour):
    """Delays proposals and QC broadcasts by a fixed amount when leader.

    Used to exercise Lumiere's QC-production deadline: a QC produced too late
    must not be produced at all by an honest leader, and a Byzantine leader
    producing one late cannot slow the honest processors down by more than
    Gamma per view it controls.
    """

    delay: float = 0.0
    is_byzantine: bool = True

    def proposal_delay(self, view: int) -> float:
        return self.delay

    def qc_broadcast_delay(self, view: int) -> float:
        return self.delay

    def describe(self) -> str:
        return f"SlowLeaderBehaviour(delay={self.delay})"


class EquivocatingBehaviour(Behaviour):
    """Proposes two conflicting blocks to different halves of the processors."""

    is_byzantine = True

    def equivocate(self, view: int) -> bool:
        return True


class MuteViewSyncBehaviour(Behaviour):
    """Votes and proposes, but never sends any view-synchronisation message.

    Against epoch-based protocols this withholds epoch-view messages so that
    honest processors must reach the 2f+1 threshold among themselves.
    """

    is_byzantine = True

    def suppress_view_sync(self, kind: str, view: int) -> bool:
        return True


class WithholdQCBehaviour(Behaviour):
    """Forms QCs as leader but never broadcasts them (omission at the worst point)."""

    is_byzantine = True

    def suppress_qc_broadcast(self, view: int) -> bool:
        return True
