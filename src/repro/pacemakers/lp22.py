"""The LP22 pacemaker (Lewis-Pye 2022), Section 3.2 of the paper.

LP22 batches views into epochs of ``f + 1`` views.  Entering an epoch
requires a heavy all-to-all synchronisation (epoch-view messages from
``2f+1`` processors, aggregated into an Epoch Certificate that is itself
broadcast).  Within an epoch, a processor enters non-epoch view ``v`` when
the first of two events occurs: its local clock reaches ``c_v = Gamma * v``,
or it sees a QC for view ``v - 1`` (which is what makes LP22 optimistically
responsive).

Crucially — and this is the weakness Lumiere fixes — LP22 never bumps local
clocks forward on QCs.  After a run of fast QCs, clocks lag far behind the
view number, so a single Byzantine leader near the end of an epoch forces
honest processors to wait out the remaining ``Theta(n * Delta)`` of clock
time before the next epoch synchronisation (Figure 1 of the paper).  And
every epoch begins with a Theta(n^2) synchronisation, so the eventual
worst-case communication complexity stays quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import ProtocolConfig
from repro.consensus.messages import DROPPED_BELOW_FLOOR, SHARE
from repro.consensus.quorum import QuorumCertificate, ShareCollector
from repro.crypto.threshold import PartialSignature, ThresholdSignature
from repro.pacemakers.base import FirstSight, Pacemaker, PacemakerMessage, RoundRobinLeaderMixin

if TYPE_CHECKING:  # pragma: no cover
    from repro.consensus.replica import Replica


def lp22_epoch_payload(view: int) -> tuple:
    """Signed payload of an LP22 epoch-view message."""
    return ("lp22-epoch-view", view)


@dataclass(frozen=True, slots=True)
class LP22EpochViewMessage(PacemakerMessage):
    """Broadcast wish to start the epoch whose first view is ``view``."""

    view: int
    partial: PartialSignature
    admission = SHARE


@dataclass(frozen=True, slots=True)
class LP22EpochCertificate(PacemakerMessage):
    """Aggregated 2f+1 epoch-view messages, broadcast by whoever assembles it first."""

    view: int
    aggregate: ThresholdSignature
    admission = DROPPED_BELOW_FLOOR


@dataclass(frozen=True)
class LP22Config:
    """Parameters of LP22: ``Gamma = (x + 1) Delta`` and epochs of ``f + 1`` views."""

    protocol: ProtocolConfig

    @property
    def gamma(self) -> float:
        return (self.protocol.x + 1) * self.protocol.delta

    @property
    def epoch_length(self) -> int:
        return self.protocol.f + 1

    def clock_time(self, view: int) -> float:
        return self.gamma * view

    def epoch_of(self, view: int) -> int:
        return view // self.epoch_length

    def is_epoch_view(self, view: int) -> bool:
        return view % self.epoch_length == 0

    def first_view_of_epoch(self, epoch: int) -> int:
        return epoch * self.epoch_length


class LP22Pacemaker(RoundRobinLeaderMixin, Pacemaker):
    """LP22: epoch-based synchronisation with optimistic responsiveness."""

    name = "lp22"

    def __init__(
        self,
        replica: "Replica",
        config: ProtocolConfig,
        lp22_config: Optional[LP22Config] = None,
    ) -> None:
        super().__init__(replica, config)
        self.cfg = lp22_config or LP22Config(protocol=config)
        self._current_epoch = -1
        self._epoch_msgs_sent = self._per_view(FirstSight())
        self._ec_seen = self._per_view(FirstSight())
        self._epoch_clock_handled = self._per_view(FirstSight())
        self._ec_collector = self._per_view(ShareCollector(replica.scheme, config.quorum_size))

    # ------------------------------------------------------------------
    # Shorthands
    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        return self._current_epoch

    def clock_time(self, view: int) -> float:
        return self.cfg.clock_time(view)

    # ------------------------------------------------------------------
    # Lifecycle and clock events
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._schedule_next_clock_event(include_current=True)

    def _on_clock_reaches(self, view: int) -> None:
        if self.cfg.is_epoch_view(view):
            self._on_clock_reaches_epoch_view(view)
        elif self.cfg.epoch_of(view) == self._current_epoch:
            # Non-epoch view: enter when the clock reaches its time, if we
            # are in the same epoch and a lower view.
            self._enter(view)

    def _on_clock_reaches_epoch_view(self, view: int) -> None:
        if not self._epoch_clock_handled.add(view):
            return
        # Pause the clock and broadcast the epoch-view wish (heavy sync).
        self.clock.pause()
        self.trace("lp22_epoch_pause", view)
        self._send_epoch_view_message(view)

    def _send_epoch_view_message(self, view: int) -> None:
        if not self._epoch_msgs_sent.add(view):
            return
        self.trace("epoch_sync", self.cfg.epoch_of(view))
        if self.replica.behaviour.suppress_view_sync("epoch_view", view):
            return
        partial = self.replica.scheme.partial_sign(
            self.replica.signing_key, lp22_epoch_payload(view)
        )
        self.broadcast(LP22EpochViewMessage(view=view, partial=partial))

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def on_message(self, msg: PacemakerMessage, sender: int) -> None:
        if isinstance(msg, LP22EpochViewMessage):
            self._on_epoch_view_message(msg, sender)
        elif isinstance(msg, LP22EpochCertificate):
            self._on_epoch_certificate(msg.view, msg.aggregate)

    def _on_epoch_view_message(self, msg: LP22EpochViewMessage, sender: int) -> None:
        view = msg.view
        if not self.cfg.is_epoch_view(view) or view < 0:
            return
        if self._current_view >= view:
            return  # only processors in a lower view aggregate
        collector = self._ec_collector
        payload = lp22_epoch_payload(view)
        if collector.add(view, sender, msg.partial, payload) != collector.quorum:
            return
        if not self.replica.behaviour.suppress_view_sync("ec", view):
            aggregate = collector.combine(view, payload)
            self.broadcast(LP22EpochCertificate(view=view, aggregate=aggregate))
        # Broadcasting to all includes ourselves, which handles our own entry.

    def _on_epoch_certificate(self, view: int, aggregate: ThresholdSignature) -> None:
        if not self.cfg.is_epoch_view(view) or view < 0:
            return
        if view in self._ec_seen:
            return
        if not self.replica.scheme.verify(
            aggregate, lp22_epoch_payload(view), self.config.quorum_size
        ):
            return
        self._ec_seen.add(view)
        if view <= self._current_view:
            return
        # Set lc := c_v, unpause, and enter the epoch.
        self.clock.bump_to(self.clock_time(view))
        self.clock.unpause()
        self._enter(view)
        self.trace("lp22_enter_epoch", view)
        self._schedule_next_clock_event()

    # ------------------------------------------------------------------
    # QCs: optimistic responsiveness (enter v on QC for v-1; never bump clocks)
    # ------------------------------------------------------------------
    def on_qc(self, qc: QuorumCertificate) -> None:
        next_view = qc.view + 1
        if next_view <= self._current_view:
            return
        if self.cfg.is_epoch_view(next_view):
            # Entering the next epoch still requires the heavy synchronisation.
            return
        if self.cfg.epoch_of(next_view) != self._current_epoch:
            return
        self._enter(next_view)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _enter(self, view: int) -> None:
        if view <= self._current_view:
            return
        self._current_epoch = self.cfg.epoch_of(view)
        self.enter_view(view)
