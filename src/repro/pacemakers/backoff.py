"""Classical exponential-backoff pacemaker (PBFT-style view changes).

This is the folklore pacemaker most deployed BFT systems shipped before the
view-synchronisation literature caught up: every view has a timeout, a
processor that times out broadcasts a view-change message for the next view,
a processor enters the next view once it has view-change messages from a
quorum, and timeouts double after consecutive failures (resetting on
progress).  Every view change costs Theta(n^2) messages and the doubling
makes worst-case latency exponential in the number of consecutive failures
before GST — which is exactly why it is a useful control in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import ProtocolConfig
from repro.consensus.messages import SHARE
from repro.consensus.quorum import QuorumCertificate, ShareCollector
from repro.crypto.threshold import PartialSignature
from repro.errors import ConfigurationError
from repro.pacemakers.base import FirstSight, Pacemaker, PacemakerMessage, RoundRobinLeaderMixin
from repro.sim.clock import LocalTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.consensus.replica import Replica


def backoff_payload(view: int) -> tuple:
    """Signed payload of a view-change message."""
    return ("backoff-view-change", view)


@dataclass(frozen=True, slots=True)
class ViewChangeMessage(PacemakerMessage):
    """Broadcast complaint that the current view failed; wish to enter ``view``."""

    view: int
    partial: PartialSignature
    admission = SHARE


@dataclass(frozen=True)
class ExponentialBackoffConfig:
    """Parameters of the backoff pacemaker."""

    protocol: ProtocolConfig
    multiplier: float = 2.0
    max_timeout_factor: float = 64.0

    def __post_init__(self) -> None:
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1.0")
        if self.max_timeout_factor < 1.0:
            raise ConfigurationError("max_timeout_factor must be >= 1.0")

    @property
    def base_timeout(self) -> float:
        return (self.protocol.x + 1) * self.protocol.delta

    @property
    def max_timeout(self) -> float:
        return self.base_timeout * self.max_timeout_factor


class ExponentialBackoffPacemaker(RoundRobinLeaderMixin, Pacemaker):
    """PBFT-style view changes with doubling timeouts."""

    name = "backoff"

    def __init__(
        self,
        replica: "Replica",
        config: ProtocolConfig,
        backoff_config: Optional[ExponentialBackoffConfig] = None,
    ) -> None:
        super().__init__(replica, config)
        self.cfg = backoff_config or ExponentialBackoffConfig(protocol=config)
        self._timeout = self.cfg.base_timeout
        # Counts view changes up to 2f+1 ("enter the view"); f+1 of them
        # make this processor join the complaint.
        self._view_change_collector = self._per_view(
            ShareCollector(replica.scheme, config.quorum_size)
        )
        self._view_change_sent = self._per_view(FirstSight())
        self._view_timer: Optional[LocalTimer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._enter(0, reset_timeout=True)

    def _enter(self, view: int, reset_timeout: bool) -> None:
        if view <= self._current_view:
            return
        if reset_timeout:
            self._timeout = self.cfg.base_timeout
        self.enter_view(view)
        if self._view_timer is not None:
            self._view_timer.cancel()
        target = self.clock.read() + self._timeout
        self._view_timer = self.clock.schedule_at_local(
            target, lambda: self._on_timeout(view), label=f"backoff-timeout-v{view}"
        )

    def _on_timeout(self, view: int) -> None:
        if self._current_view != view:
            return
        # The view failed: complain, double the timeout, and keep waiting.
        self._timeout = min(self._timeout * self.cfg.multiplier, self.cfg.max_timeout)
        self._send_view_change(view + 1)
        target = self.clock.read() + self._timeout
        self._view_timer = self.clock.schedule_at_local(
            target, lambda: self._on_timeout(view), label=f"backoff-retry-v{view}"
        )

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def _send_view_change(self, target_view: int) -> None:
        if not self._view_change_sent.add(target_view):
            return
        if self.replica.behaviour.suppress_view_sync("view_change", target_view):
            return
        partial = self.replica.scheme.partial_sign(
            self.replica.signing_key, backoff_payload(target_view)
        )
        self.broadcast(ViewChangeMessage(view=target_view, partial=partial))

    def on_message(self, msg: PacemakerMessage, sender: int) -> None:
        if not isinstance(msg, ViewChangeMessage):
            return
        view = msg.view
        if view <= self._current_view:
            return
        count = self._view_change_collector.add(view, sender, msg.partial, backoff_payload(view))
        # Amplification: join the complaint once f+1 processors raised it.
        if count == self.config.small_quorum_size:
            self._send_view_change(view)
        if count == self.config.quorum_size:
            self._enter(view, reset_timeout=False)

    # ------------------------------------------------------------------
    # QCs
    # ------------------------------------------------------------------
    def on_qc(self, qc: QuorumCertificate) -> None:
        if qc.view + 1 > self._current_view:
            self._enter(qc.view + 1, reset_timeout=True)
