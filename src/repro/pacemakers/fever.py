"""The Fever pacemaker (Lewis-Pye & Abraham 2023), Section 3.3 of the paper.

Fever has no epochs at all.  It relies on the *non-standard* assumption that
the local clocks of honest processors are within ``Gamma`` of each other at
the start of the execution (and do not drift before GST).  Views come in
pairs: the even "initial" view and the odd grace view after it, both led by
the same processor.  Processors enter an initial view when their local clock
reaches ``c_v``, send a signed view message to its leader, and the leader
aggregates ``f+1`` of them into a View Certificate.  QCs and VCs bump local
clocks forward, which is what keeps the (f+1)-st honest clock gap bounded by
``Gamma`` forever and yields latency ``O(f_a * Delta + delta)``.

In the simulator, the clock assumption is satisfied automatically (all local
clocks start at 0); scenarios that want to study what happens when the
assumption is violated can perturb clocks via ``LocalClock.set_to`` before
starting the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import ProtocolConfig
from repro.consensus.quorum import QuorumCertificate, ShareCollector
from repro.crypto.threshold import PartialSignature, ThresholdSignature
from repro.errors import ConfigurationError
from repro.pacemakers.base import FirstSight, Pacemaker, PacemakerMessage, PairedLeaderMixin

if TYPE_CHECKING:  # pragma: no cover
    from repro.consensus.replica import Replica

_EPS = 1e-9


def fever_view_payload(view: int) -> tuple:
    """Signed payload of a Fever view message."""
    return ("fever-view", view)


@dataclass(frozen=True, slots=True)
class FeverViewMessage(PacemakerMessage):
    """A processor's signed wish to run initial view ``view``, sent to its leader."""

    view: int
    partial: PartialSignature


@dataclass(frozen=True, slots=True)
class FeverViewCertificate(PacemakerMessage):
    """Threshold signature of f+1 view messages, broadcast by the leader."""

    view: int
    aggregate: ThresholdSignature


@dataclass(frozen=True)
class FeverConfig:
    """Parameters of Fever: ``Gamma = 2 (x + 1) Delta``."""

    protocol: ProtocolConfig
    gamma_override: Optional[float] = None

    def __post_init__(self) -> None:
        if self.gamma_override is not None and self.gamma_override <= 0:
            raise ConfigurationError("gamma_override must be positive")

    @property
    def gamma(self) -> float:
        if self.gamma_override is not None:
            return self.gamma_override
        return 2.0 * (self.protocol.x + 1) * self.protocol.delta

    def clock_time(self, view: int) -> float:
        return self.gamma * view

    def is_initial(self, view: int) -> bool:
        return view % 2 == 0


class FeverPacemaker(PairedLeaderMixin, Pacemaker):
    """Fever: clock-bump view synchronisation without epochs."""

    name = "fever"
    clock_step = 2

    def __init__(
        self,
        replica: "Replica",
        config: ProtocolConfig,
        fever_config: Optional[FeverConfig] = None,
    ) -> None:
        super().__init__(replica, config)
        self.cfg = fever_config or FeverConfig(protocol=config)
        self._view_msgs_sent = self._per_view(FirstSight())
        self._vc_collector = self._per_view(
            ShareCollector(replica.scheme, config.small_quorum_size)
        )
        self._vc_seen = self._per_view(FirstSight())

    def clock_time(self, view: int) -> float:
        return self.cfg.clock_time(view)

    # ------------------------------------------------------------------
    # Lifecycle and clock events
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._schedule_next_clock_event(include_current=True)

    def _on_clock_reaches(self, view: int) -> None:
        # Initial view reached by real-time clock advance.
        self.enter_view(view)
        self._send_view_message(view)

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def on_message(self, msg: PacemakerMessage, sender: int) -> None:
        if isinstance(msg, FeverViewMessage):
            self._on_view_message(msg, sender)
        elif isinstance(msg, FeverViewCertificate):
            self._on_view_certificate(msg, sender)

    def _on_view_message(self, msg: FeverViewMessage, sender: int) -> None:
        view = msg.view
        if not self.cfg.is_initial(view) or view < 0:
            return
        if self.leader_of(view) != self.pid or view < self._current_view:
            return
        collector = self._vc_collector
        payload = fever_view_payload(view)
        if collector.add(view, sender, msg.partial, payload) != collector.quorum:
            return
        if not self.replica.behaviour.suppress_view_sync("vc", view):
            aggregate = collector.combine(view, payload)
            self.broadcast(FeverViewCertificate(view=view, aggregate=aggregate))

    def _on_view_certificate(self, msg: FeverViewCertificate, sender: int) -> None:
        view = msg.view
        if not self.cfg.is_initial(view) or view < 0 or view in self._vc_seen:
            return
        if not self.replica.scheme.verify(
            msg.aggregate, fever_view_payload(view), self.config.small_quorum_size
        ):
            return
        self._vc_seen.add(view)
        if view <= self._current_view:
            return
        if self.clock.read() < self.clock_time(view) - _EPS:
            self.clock.bump_to(self.clock_time(view))
        self.enter_view(view)
        self._schedule_next_clock_event()

    # ------------------------------------------------------------------
    # QCs
    # ------------------------------------------------------------------
    def on_qc(self, qc: QuorumCertificate) -> None:
        next_view = qc.view + 1
        if self.clock.read() < self.clock_time(next_view) - _EPS:
            self.clock.bump_to(self.clock_time(next_view))
        if next_view > self._current_view:
            self.enter_view(next_view)
        self._schedule_next_clock_event()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _send_view_message(self, view: int) -> None:
        if not self._view_msgs_sent.add(view):
            return
        if self.replica.behaviour.suppress_view_sync("view", view):
            return
        partial = self.replica.scheme.partial_sign(
            self.replica.signing_key, fever_view_payload(view)
        )
        self.send(self.leader_of(view), FeverViewMessage(view=view, partial=partial))
