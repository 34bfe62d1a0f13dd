"""Cogsworth-style relay view synchronisation (Naor, Baudet, Malkhi, Spiegelman).

Cogsworth synchronises views through *leader relays*: a processor that times
out of view ``v`` sends a signed wish for view ``v+1`` to the leader of
``v+1``; that leader aggregates ``f+1`` wishes into a certificate and relays
it to everyone, which brings all honest processors into ``v+1`` within two
message delays.  When the relay leader is faulty, processors fall back to the
next leader after another timeout, and so on — every faulty relay costs an
extra timeout and another linear burst of messages.

This is what produces the first column of Table 1: with adversarial clock
dispersion the fallback cascade can pass through ``Theta(n)`` relays for
``Theta(n)`` views before synchronisation (cubic messages, ``O(n^2 Delta)``
latency), and in the steady state a burst of ``f_a`` faulty leaders costs
``O(f_a^2)`` relays (``O(n + n f_a^2)`` messages, ``O(f_a^2 Delta)`` latency).

The implementation is a faithful-to-the-mechanism simplification: wishes,
relay certificates and QC-driven advancement are implemented exactly;
Cogsworth's optimistic "leader relays votes" piggybacking is folded into the
QC path of the consensus substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import ProtocolConfig
from repro.consensus.messages import DROPPED_BELOW_FLOOR, SHARE
from repro.consensus.quorum import QuorumCertificate, ShareCollector
from repro.crypto.threshold import PartialSignature, ThresholdSignature
from repro.errors import ConfigurationError
from repro.pacemakers.base import FirstSight, Pacemaker, PacemakerMessage, RoundRobinLeaderMixin
from repro.sim.clock import LocalTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.consensus.replica import Replica

_EPS = 1e-9


def cogsworth_wish_payload(view: int) -> tuple:
    """Signed payload of a wish to enter ``view``."""
    return ("cogsworth-wish", view)


@dataclass(frozen=True, slots=True)
class WishMessage(PacemakerMessage):
    """A processor's signed wish to enter ``view``, sent to a relay candidate."""

    view: int
    partial: PartialSignature
    admission = SHARE


@dataclass(frozen=True, slots=True)
class RelayCertificate(PacemakerMessage):
    """``f+1`` aggregated wishes for ``view``, broadcast by a relay."""

    view: int
    aggregate: ThresholdSignature
    admission = DROPPED_BELOW_FLOOR


@dataclass(frozen=True)
class CogsworthConfig:
    """Parameters of the relay pacemaker.

    ``view_duration`` is the time a processor waits in a view before wishing
    to leave it; ``relay_patience`` is how long it waits for a relay to act
    before falling back to the next relay candidate; ``parallel_relays`` is
    how many relay candidates receive each wish burst (1 = Cogsworth,
    ``f+1`` = the Naor-Keidar style fallback that gives expected-constant
    relay rounds).
    """

    protocol: ProtocolConfig
    parallel_relays: int = 1

    def __post_init__(self) -> None:
        if self.parallel_relays < 1:
            raise ConfigurationError("parallel_relays must be >= 1")

    @property
    def view_duration(self) -> float:
        return (self.protocol.x + 1) * self.protocol.delta

    @property
    def relay_patience(self) -> float:
        return 2.0 * self.protocol.delta


class CogsworthPacemaker(RoundRobinLeaderMixin, Pacemaker):
    """Relay-based view synchronisation with leader fallback."""

    name = "cogsworth"

    def __init__(
        self,
        replica: "Replica",
        config: ProtocolConfig,
        cogsworth_config: Optional[CogsworthConfig] = None,
    ) -> None:
        super().__init__(replica, config)
        self.cfg = cogsworth_config or CogsworthConfig(protocol=config)
        self._relay_collector = self._per_view(
            ShareCollector(replica.scheme, config.small_quorum_size)
        )
        self._cert_seen = self._per_view(FirstSight())
        self._wished_relays: dict[int, int] = self._per_view({})  # view -> relays contacted
        self._view_timer: Optional[LocalTimer] = None
        self._relay_timer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._enter(0)

    def _enter(self, view: int) -> None:
        if view <= self._current_view:
            return
        self.enter_view(view)
        self._cancel_timers()
        # Arm the in-view timeout on the local clock.
        target = self.clock.read() + self.cfg.view_duration
        self._view_timer = self.clock.schedule_at_local(
            target, lambda: self._on_view_timeout(view), label=f"cogsworth-timeout-v{view}"
        )

    def _cancel_timers(self) -> None:
        if self._view_timer is not None:
            self._view_timer.cancel()
            self._view_timer = None
        if self._relay_timer is not None:
            self._relay_timer.cancel()
            self._relay_timer = None

    # ------------------------------------------------------------------
    # Timeouts and wishes
    # ------------------------------------------------------------------
    def _on_view_timeout(self, view: int) -> None:
        if self._current_view != view:
            return
        self._send_wishes(view + 1)

    def _send_wishes(self, target_view: int) -> None:
        """Send wishes for ``target_view`` to the next batch of relay candidates."""
        if target_view <= self._current_view:
            return
        already = self._wished_relays.get(target_view, 0)
        if already >= self.config.n:
            return
        batch = self.cfg.parallel_relays
        relays = [
            self.leader_of(target_view + offset) for offset in range(already, already + batch)
        ]
        self._wished_relays[target_view] = already + batch
        if not self.replica.behaviour.suppress_view_sync("wish", target_view):
            partial = self.replica.scheme.partial_sign(
                self.replica.signing_key, cogsworth_wish_payload(target_view)
            )
            for relay in relays:
                self.send(relay, WishMessage(view=target_view, partial=partial))
        self.trace("cogsworth_wish", target_view)
        # If the relay does not bring us into the view, fall back to the next one.
        self._relay_timer = self.replica.runtime.set_timer(
            self.cfg.relay_patience,
            self._on_relay_timeout,
            target_view,
            label=f"cogsworth-relay-v{target_view}",
        )

    def _on_relay_timeout(self, target_view: int) -> None:
        if self._current_view >= target_view:
            return
        self._send_wishes(target_view)

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def on_message(self, msg: PacemakerMessage, sender: int) -> None:
        if isinstance(msg, WishMessage):
            self._on_wish(msg, sender)
        elif isinstance(msg, RelayCertificate):
            self._on_certificate(msg)

    def _on_wish(self, msg: WishMessage, sender: int) -> None:
        view = msg.view
        if view <= 0:
            return
        collector = self._relay_collector
        payload = cogsworth_wish_payload(view)
        if collector.add(view, sender, msg.partial, payload) != collector.quorum:
            return
        if self.replica.behaviour.suppress_view_sync("relay", view):
            return
        self.broadcast(RelayCertificate(view=view, aggregate=collector.combine(view, payload)))

    def _on_certificate(self, msg: RelayCertificate) -> None:
        view = msg.view
        if view in self._cert_seen:
            return
        if not self.replica.scheme.verify(
            msg.aggregate, cogsworth_wish_payload(view), self.config.small_quorum_size
        ):
            return
        self._cert_seen.add(view)
        if view > self._current_view:
            self._enter(view)

    # ------------------------------------------------------------------
    # QCs
    # ------------------------------------------------------------------
    def on_qc(self, qc: QuorumCertificate) -> None:
        if qc.view + 1 > self._current_view:
            self._enter(qc.view + 1)
