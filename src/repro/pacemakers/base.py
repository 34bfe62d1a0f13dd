"""The Byzantine View Synchronization (pacemaker) interface.

A pacemaker decides, for its replica, *which view it is in* and *when to move
to the next one*.  It receives its own message type hierarchy
(:class:`PacemakerMessage`), is notified of every QC the underlying protocol
produces, and tells the replica to enter views.  Per the task definition in
Section 2 of the paper, a correct pacemaker must guarantee:

1. view monotonicity at every honest processor, and
2. that eventually (after GST) some view with an honest leader holds all
   honest processors together long enough to produce a QC.

The interface also exposes :meth:`Pacemaker.may_produce_qc`, which Lumiere
uses to implement its rule that honest leaders only produce a QC if they can
do so within ``Gamma/2 - 2*Delta`` of sending the corresponding VC (or of
sending the previous view's QC).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import ProtocolConfig
from repro.consensus.quorum import QuorumCertificate

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.consensus.replica import Replica


@dataclass(frozen=True, slots=True)
class PacemakerMessage:
    """Base class for all view-synchronisation messages."""


class Pacemaker(ABC):
    """Abstract base class of every view-synchronisation protocol."""

    #: Short machine-readable name used by the registry and in reports.
    name: str = "abstract"

    def __init__(self, replica: "Replica", config: ProtocolConfig) -> None:
        self.replica = replica
        self.config = config
        self._current_view = -1

    # ------------------------------------------------------------------
    # Accessors shared by all pacemakers
    # ------------------------------------------------------------------
    @property
    def current_view(self) -> int:
        """The view this replica is currently in (-1 before the protocol starts)."""
        return self._current_view

    @property
    def clock(self):
        """The replica's local clock (``lc(p)`` in the paper)."""
        return self.replica.clock

    @property
    def now(self) -> float:
        """Current runtime time (for records and deadlines, never to pick a view)."""
        return self.replica.now

    @property
    def pid(self) -> int:
        """The replica's processor id."""
        return self.replica.pid

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def start(self) -> None:
        """Called once when the simulation starts."""

    @abstractmethod
    def on_message(self, msg: PacemakerMessage, sender: int) -> None:
        """Handle an incoming pacemaker message."""

    def on_qc(self, qc: QuorumCertificate) -> None:
        """Called whenever the replica observes a QC (formed locally or received)."""

    def on_local_qc(self, qc: QuorumCertificate) -> None:
        """Called when this replica, acting as leader, produced a QC itself.

        Lumiere uses this to time the QC-production deadline of the *next*
        (non-initial) view it leads.  Default: no-op.
        """

    def release_below(self, floor: int) -> None:
        """The replica's committed-view floor rose to ``floor``: free
        per-view tables below it (Lumiere does).  Default: no-op."""

    @abstractmethod
    def leader_of(self, view: int) -> int:
        """The designated leader of ``view``."""

    def may_produce_qc(self, view: int) -> bool:
        """Whether the leader (this replica) may still produce a QC for ``view``.

        Defaults to always true; Lumiere overrides it to enforce its
        ``Gamma/2 - 2*Delta`` production deadline.
        """
        return True

    # ------------------------------------------------------------------
    # View transitions
    # ------------------------------------------------------------------
    def enter_view(self, view: int) -> None:
        """Move this replica into ``view`` (monotonically) and notify the engine."""
        if view <= self._current_view:
            return
        self._current_view = view
        self.replica.on_view_entered(view)

    # ------------------------------------------------------------------
    # Messaging helpers (thin wrappers over the replica's process methods)
    # ------------------------------------------------------------------
    def send(self, recipient: int, msg: PacemakerMessage) -> None:
        """Send a pacemaker message to one processor."""
        self.replica.send(recipient, msg)

    def broadcast(self, msg: PacemakerMessage) -> None:
        """Send a pacemaker message to all processors (including self)."""
        self.replica.broadcast(msg)

    def trace(self, kind: str, value: int) -> None:
        """Record a protocol event of this replica (see :meth:`Replica.trace
        <repro.consensus.replica.Replica.trace>`)."""
        self.replica.trace(kind, value)

    def describe(self) -> str:
        """Human-readable description for reports."""
        return f"{type(self).__name__}(view={self._current_view})"


class RoundRobinLeaderMixin:
    """Leader schedule ``lead(v) = v mod n`` used by several baselines."""

    config: ProtocolConfig

    def leader_of(self, view: int) -> int:
        """Round-robin leader assignment."""
        return view % self.config.n


class PairedLeaderMixin:
    """Leader schedule ``lead(v) = floor(v / 2) mod n`` (two views per leader).

    Used by Fever and by Basic Lumiere: each leader gets an *initial* view
    (even ``v``) followed by a *non-initial* grace view (odd ``v``).
    """

    config: ProtocolConfig

    def leader_of(self, view: int) -> int:
        """Each leader owns two consecutive views."""
        return (view // 2) % self.config.n
