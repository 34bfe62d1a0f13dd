"""The Lumiere pacemaker — Algorithm 1 of the paper.

Lumiere intertwines two synchronisation procedures:

* a **heavy epoch synchronisation** (all-to-all epoch-view messages,
  quadratic communication) performed at the start of an epoch *only when the
  previous epoch did not satisfy the success criterion*, and
* a **light view synchronisation** within epochs (Fever-style): processors
  send a single view message to the next leader when their local clock
  reaches an initial view, leaders aggregate ``f+1`` of them into a View
  Certificate, and QCs / VCs / TCs bump local clocks forward so that honest
  clocks only ever get closer together.

The class follows Algorithm 1 line by line; comments cite the line numbers.
``BasicLumierePacemaker`` (Section 3.4) is the same machinery with the
success criterion disabled and a one-round epoch, so a heavy synchronisation
happens at the start of every epoch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.config import ProtocolConfig
from repro.consensus.quorum import QuorumCertificate, ShareCollector
from repro.core.config import LumiereConfig
from repro.core.leader_schedule import LeaderSchedule
from repro.core.messages import (
    EpochViewMessage,
    ViewCertificate,
    ViewMessage,
    epoch_view_message_payload,
    view_message_payload,
)
from repro.core.success import SuccessTracker
from repro.pacemakers.base import FirstSight, Pacemaker, PacemakerMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.consensus.replica import Replica

_EPS = 1e-9


class LumierePacemaker(Pacemaker):
    """Full Lumiere (Algorithm 1) with the steady-state heavy-sync elimination."""

    name = "lumiere"
    clock_step = 2

    def __init__(
        self,
        replica: "Replica",
        config: ProtocolConfig,
        lumiere_config: Optional[LumiereConfig] = None,
        schedule: Optional[LeaderSchedule] = None,
    ) -> None:
        super().__init__(replica, config)
        self.cfg = lumiere_config or LumiereConfig(protocol=config)
        #: The leader schedule; the replicas of one run share one
        #: (``make_pacemaker_factory``), built here when none is passed.
        self.schedule = schedule or LeaderSchedule(
            n=config.n,
            views_per_round=2 * config.n,
            rounds_per_epoch=self.cfg.epoch_rounds,
        )
        # The leader per the epoch-aware schedule (two consecutive views per
        # leader): the schedule's own lookup, bound once, one table index.
        self.leader_of = self.schedule.leader_of
        self.success = SuccessTracker(self.cfg, self.leader_of)
        scheme = replica.scheme
        self._vc_collector = self._per_view(ShareCollector(scheme, config.small_quorum_size))
        # Counts epoch-view messages up to an EC; f+1 of them make a TC.
        self._epoch_collector = ShareCollector(scheme, config.quorum_size)
        # Protocol state --------------------------------------------------
        self._current_epoch = -1
        self._view_msgs_sent = self._per_view(FirstSight())
        self._vc_handled = self._per_view(FirstSight())  # line 36 "upon first seeing"
        # Keyed by epoch view, freed by epoch.  A QC's first sight (line 44)
        # is the engine's, a TC's and an EC's (lines 16, 23) the collector's.
        self._epoch_msgs_sent = FirstSight()
        self._epoch_clock_handled = FirstSight()  # line 9/13 "upon first seeing"
        self._paused_for: Optional[int] = None
        # Leader-side deadline bookkeeping for the Gamma/2 - 2*Delta rule.
        self._deadline_start: dict[int, float] = self._per_view({})

    # ------------------------------------------------------------------
    # Shorthands
    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        """The epoch this replica is currently in (-1 before the protocol starts)."""
        return self._current_epoch

    def clock_time(self, view: int) -> float:
        """``c_v``."""
        return self.cfg.clock_time(view)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        # Everyone starts in view/epoch -1 with lc = 0 == c_0, which is the
        # epoch view of epoch 0, so the first clock event fires immediately
        # and bootstraps the initial heavy synchronisation (or, before GST,
        # stalls harmlessly while clocks are paused).
        self._schedule_next_clock_event(include_current=True)

    # ------------------------------------------------------------------
    # Local-clock events (lines 9-14 and 28-30)
    # ------------------------------------------------------------------
    def _on_clock_reaches(self, view: int) -> None:
        if self.cfg.is_epoch_view(view):
            self._on_clock_reaches_epoch_view(view)
        elif self.cfg.is_initial(view) and self._current_epoch == self.cfg.epoch_of(view):
            # Line 28-30: enter the initial view and do the light sync.
            self._enter(view)
            self._send_view_message(view)

    def _on_clock_reaches_epoch_view(self, view: int) -> None:
        """Lines 9-14: the local clock reached the clock time of an epoch view."""
        if not self._epoch_clock_handled.add(view):
            return
        previous_epoch = self.cfg.epoch_of(view) - 1
        if self.success.satisfied(previous_epoch):
            # Line 13-14: treat the epoch view as a standard initial view.
            self._enter(view)
            self._send_view_message(view)
            return
        # Line 9-11: pause and, if still paused Delta later, start a heavy sync.
        self.clock.pause()
        self._paused_for = view
        self.trace("lumiere_epoch_pause", view)
        self.replica.runtime.set_timer(
            self.config.delta, self._after_pause_delay, view, label="lumiere-pause-delay"
        )

    def _after_pause_delay(self, view: int) -> None:
        """Line 11: send the epoch-view message if we are still paused for ``view``."""
        if self.clock.paused and self._paused_for == view:
            self._send_epoch_view_message(view)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, msg: PacemakerMessage, sender: int) -> None:
        if isinstance(msg, ViewMessage):
            self._on_view_message(msg, sender)
        elif isinstance(msg, ViewCertificate):
            self._on_view_certificate(msg, sender)
        elif isinstance(msg, EpochViewMessage):
            self._on_epoch_view_message(msg, sender)

    # ------------------------------------------------------------------
    # View messages and VCs (lines 32-40)
    # ------------------------------------------------------------------
    def _on_view_message(self, msg: ViewMessage, sender: int) -> None:
        view = msg.view
        if not self.cfg.is_initial(view) or view < 0:
            return
        if self.leader_of(view) != self.pid:
            return
        if view < self._current_view:
            return  # line 32 requires v >= view(p)
        collector = self._vc_collector
        payload = view_message_payload(view)
        if collector.add(view, sender, msg.partial, payload) != collector.quorum:
            return
        # Line 33-34: form the VC and send it to all processors.
        self._note_deadline_start(view)
        if self.replica.behaviour.suppress_view_sync("vc", view):
            return
        self.broadcast(ViewCertificate(view=view, aggregate=collector.combine(view, payload)))
        self.trace("lumiere_vc_sent", view)

    def _on_view_certificate(self, msg: ViewCertificate, sender: int) -> None:
        view = msg.view
        if not self.cfg.is_initial(view) or view < 0:
            return
        payload, digest = self._view_payload(view)
        if not self.replica.scheme.verify(
            msg.aggregate, payload, self.config.small_quorum_size, digest
        ):
            return
        if not self._vc_handled.add(view):
            return  # line 36 "upon first seeing"
        self._maybe_unpause(trigger_view=view, kind="vc")
        if view <= self._current_view:
            return
        # Lines 37-40.
        if self.clock.read() < self.clock_time(view) - _EPS:
            self._send_skipped_view_messages(view)
            self._bump_clock_to(view)
            self._enter(view)
            self._schedule_next_clock_event(include_current=True)

    # ------------------------------------------------------------------
    # Epoch-view messages, TCs and ECs (lines 16-24)
    # ------------------------------------------------------------------
    def _on_epoch_view_message(self, msg: EpochViewMessage, sender: int) -> None:
        view = msg.view
        if not self.cfg.is_epoch_view(view) or view < 0:
            return
        if self.cfg.epoch_of(view) < self.cfg.epoch_of(self.replica.floor):
            return  # an epoch left behind: lines 16 and 23 would return at once
        count = self._epoch_collector.add(
            view, sender, msg.partial, epoch_view_message_payload(view)
        )
        if count == self.config.small_quorum_size:
            self._on_timeout_certificate(view)
        if count == self.config.quorum_size:
            self._on_epoch_certificate(view)

    def _on_timeout_certificate(self, view: int) -> None:
        """Lines 16-21: first sight of a TC (f+1 epoch-view messages) for ``view``."""
        if self.cfg.epoch_of(view) < self._current_epoch:
            return
        self._maybe_unpause(trigger_view=view, kind="tc")
        if self.clock.read() < self.clock_time(view) - _EPS:
            # Lines 17-20.
            self._send_skipped_view_messages(view)
            self._bump_clock_to(view)
            if self._current_view < view - 1:
                self._enter(view - 1)
            self._schedule_next_clock_event(include_current=True)
        # Line 21: relay our own epoch-view message so the EC can complete.
        self._send_epoch_view_message(view)

    def _on_epoch_certificate(self, view: int) -> None:
        """Lines 23-24: first sight of an EC (2f+1 epoch-view messages) for ``view``."""
        if self.cfg.epoch_of(view) <= self._current_epoch:
            return
        self._maybe_unpause(trigger_view=view, kind="ec")
        if self.clock.read() < self.clock_time(view) - _EPS:
            self._bump_clock_to(view)
        self._enter(view)
        self.trace("lumiere_enter_epoch_via_ec", view)
        self._schedule_next_clock_event(include_current=True)

    # ------------------------------------------------------------------
    # QCs (lines 44-49) and the success criterion
    # ------------------------------------------------------------------
    def on_qc(self, qc: QuorumCertificate) -> None:
        view = qc.view
        newly_satisfied = self.success.observe_qc(qc)
        if newly_satisfied:
            epoch = self.cfg.epoch_of(view)
            self.trace("lumiere_success_criterion", epoch)
            self._maybe_unpause(trigger_view=self.cfg.first_view_of_epoch(epoch + 1), kind="success")
        self._maybe_unpause(trigger_view=view, kind="qc")
        if view < self._current_view:
            return
        next_view = view + 1
        if self.clock.read() < self.clock_time(next_view) - _EPS:
            # Lines 45-49.
            self._send_skipped_view_messages(view)
            self._bump_clock_to(next_view)
            if not self.cfg.is_epoch_view(next_view):
                self._enter(next_view)
            elif self._current_view < view:
                self._enter(view)
            # Rescheduling includes the current local-clock value so that the
            # "lc reached c_w" event of an epoch view we were bumped exactly
            # onto (lines 9-14) still fires.
            self._schedule_next_clock_event(include_current=True)

    def on_local_qc(self, qc: QuorumCertificate) -> None:
        """Leader-side bookkeeping: producing a QC starts the next view's deadline."""
        next_view = qc.view + 1
        if self.leader_of(next_view) == self.pid:
            self._note_deadline_start(next_view)

    def may_produce_qc(self, view: int) -> bool:
        """The Gamma/2 - 2*Delta production deadline for honest leaders (Section 4)."""
        start = self._deadline_start.get(view)
        if start is None:
            return True
        return self.now <= start + self.cfg.qc_deadline + _EPS

    def release_below(self, floor: int) -> None:
        """Free per-view state below ``floor`` (the base class does) and
        per-epoch state of the epochs before the floor's: a late QC still
        counts toward the success criterion of the floor's own epoch and its
        TC still has us relay (line 21); an older epoch's are moot."""
        super().release_below(floor)
        epoch = self.cfg.epoch_of(floor)
        epoch_view = self.cfg.first_view_of_epoch(epoch)
        self._epoch_msgs_sent.release_below(epoch_view)
        self._epoch_clock_handled.release_below(epoch_view)
        self._epoch_collector.release_below(epoch_view)
        self.success.release_below(epoch)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _enter(self, view: int) -> None:
        """Enter ``view`` (and its epoch), keeping the deadline bookkeeping current."""
        if view <= self._current_view:
            return
        self._current_epoch = self.cfg.epoch_of(view)
        if self.leader_of(view) == self.pid and view not in self._deadline_start:
            self._deadline_start[view] = self.now
        self.enter_view(view)

    def _bump_clock_to(self, view: int) -> None:
        """Bump the local clock to ``c_view``, its timer cancelled first.

        Every caller goes on to ``_schedule_next_clock_event(include_current=
        True)``, which replaces the timer.  One left pending across the bump
        would be re-armed by the clock for its new distance — or to fire at
        once, if the bump reached it — only to be cancelled unfired.
        """
        if self._clock_timer is not None:
            self._clock_timer.cancel()
            self._clock_timer = None
        self.clock.bump_to(self.clock_time(view))

    def _view_payload(self, view: int) -> tuple:
        """``(payload, digest)`` of ``view``'s view message (the digest is
        the shared scheme's, computed once per run or worker)."""
        payload = view_message_payload(view)
        return payload, self.replica.scheme.message_digest(payload)

    def _epoch_payload(self, view: int) -> tuple:
        """``(payload, digest)`` of ``view``'s epoch-view message."""
        payload = epoch_view_message_payload(view)
        return payload, self.replica.scheme.message_digest(payload)

    def _send_view_message(self, view: int) -> None:
        """Send a view message for ``view`` to its leader (at most once)."""
        if view < 0 or not self.cfg.is_initial(view) or not self._view_msgs_sent.add(view):
            return
        if self.replica.behaviour.suppress_view_sync("view", view):
            return
        payload, digest = self._view_payload(view)
        partial = self.replica.scheme.partial_sign(
            self.replica.signing_key, payload, message_digest=digest
        )
        self.send(self.leader_of(view), ViewMessage(view=view, partial=partial))

    def _send_skipped_view_messages(self, up_to_view: int) -> None:
        """Lines 18/38/46: send view messages for initial views in [view(p), up_to_view)."""
        start = max(self._current_view, 0)
        if start % 2 == 1:
            start += 1
        for view in range(start, up_to_view, 2):
            self._send_view_message(view)

    def _send_epoch_view_message(self, view: int) -> None:
        """Broadcast an epoch-view message for ``view`` (at most once)."""
        if not self._epoch_msgs_sent.add(view):
            return
        self.trace("epoch_sync", self.cfg.epoch_of(view))
        if self.replica.behaviour.suppress_view_sync("epoch_view", view):
            return
        payload, digest = self._epoch_payload(view)
        partial = self.replica.scheme.partial_sign(
            self.replica.signing_key, payload, message_digest=digest
        )
        self.broadcast(EpochViewMessage(view=view, partial=partial))
        self.trace("lumiere_epoch_view_sent", view)

    def _maybe_unpause(self, trigger_view: int, kind: str) -> None:
        """Line 10: resume the paused clock when one of the stated events occurs."""
        if self._paused_for is None or not self.clock.paused:
            return
        waiting_for = self._paused_for
        should_unpause = False
        if kind in ("ec", "qc", "vc") and trigger_view >= waiting_for:
            should_unpause = True
        elif kind == "tc" and trigger_view > waiting_for:
            should_unpause = True
        elif kind == "success" and trigger_view >= waiting_for:
            should_unpause = True
        if not should_unpause:
            return
        self._paused_for = None
        self.clock.unpause()
        self.trace("lumiere_unpause." + kind, trigger_view)
        if kind == "success":
            # Line 13-14 via the unpause condition: enter the epoch view as a
            # standard initial view and perform its light synchronisation.
            self._epoch_clock_handled.add(waiting_for)
            self._enter(waiting_for)
            self._send_view_message(waiting_for)
        self._schedule_next_clock_event(include_current=True)

    def _note_deadline_start(self, view: int) -> None:
        """Reset the QC-production deadline reference point for ``view`` to now."""
        self._deadline_start[view] = self.now

    def describe(self) -> str:
        return (
            f"{type(self).__name__}(view={self._current_view}, epoch={self._current_epoch}, "
            f"lc={self.clock.read():.2f}, paused={self.clock.paused})"
        )


class BasicLumierePacemaker(LumierePacemaker):
    """Basic Lumiere (Section 3.4): LP22-style epochs with Fever-style views.

    Identical machinery, but the success criterion is disabled, so every
    epoch begins with a heavy (all-to-all) synchronisation, and epochs are a
    single leader round of ``2n`` views (close to the paper's ``2(f+1)``
    while keeping the two-consecutive-views-per-leader structure).
    """

    name = "basic-lumiere"

    def __init__(
        self,
        replica: "Replica",
        config: ProtocolConfig,
        lumiere_config: Optional[LumiereConfig] = None,
        schedule: Optional[LeaderSchedule] = None,
    ) -> None:
        if lumiere_config is None:
            lumiere_config = LumiereConfig(
                protocol=config,
                epoch_rounds=1,
                use_success_criterion=False,
            )
        super().__init__(replica, config, lumiere_config, schedule)
