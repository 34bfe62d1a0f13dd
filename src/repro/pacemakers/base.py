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

It also holds the one clock-boundary timer of the clock-driven pacemakers
(Lumiere, LP22, RareSync, Fever): :meth:`Pacemaker._schedule_next_clock_event`
arms a local-clock timer for the next ``c_v`` and calls the subclass's
``_on_clock_reaches(view)`` when the clock gets there.
And it frees each pacemaker's per-view state, its :class:`FirstSight` marks
among it, at the committed-view floor (:meth:`Pacemaker.release_below`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.config import ProtocolConfig
from repro.consensus.quorum import QuorumCertificate, release_below

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.consensus.replica import Replica
    from repro.sim.clock import LocalTimer

_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class PacemakerMessage:
    """Base class for all view-synchronisation messages."""


class FirstSight:
    """The views of one kind of event seen so far: one bit per view from a
    floor up.  Every view below the floor counts as seen (it is decided and
    left), so a release can drop the bits below it without a walk."""

    __slots__ = ("floor", "_bits")

    def __init__(self) -> None:
        self.floor = 0
        self._bits = 0

    def __contains__(self, view: int) -> bool:
        return view < self.floor or bool(self._bits >> (view - self.floor) & 1)

    def add(self, view: int) -> bool:
        """Mark ``view``; True if this is its first sight."""
        if view in self:
            return False
        self._bits |= 1 << (view - self.floor)
        return True

    def release_below(self, floor: int) -> None:
        """Forget the views below ``floor``."""
        if floor > self.floor:
            self._bits >>= floor - self.floor
            self.floor = floor

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __iter__(self):
        bits = self._bits
        return (self.floor + i for i in range(bits.bit_length()) if bits >> i & 1)


class Pacemaker(ABC):
    """Abstract base class of every view-synchronisation protocol."""

    #: Short machine-readable name used by the registry and in reports.
    name: str = "abstract"
    #: Views between two clock boundaries ``c_v`` the clock timer visits
    #: (:meth:`_schedule_next_clock_event`): 2 where only initial views are
    #: clock-driven (Fever, Lumiere), 1 where every view is (LP22).
    clock_step: int = 1
    #: The pending clock-boundary timer, if this pacemaker arms one.
    _clock_timer: Optional["LocalTimer"] = None
    #: The designated leader of a view: a schedule mixin's method, or a
    #: lookup an instance binds itself (Lumiere's schedule table).
    leader_of: Callable[[int], int]

    def __init__(self, replica: "Replica", config: ProtocolConfig) -> None:
        self.replica = replica
        self.config = config
        self._current_view = -1
        # What release_below frees (see _per_view).
        self._floor_tables: list = []
        self._floor_dicts: list[dict] = []

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
        """The replica saw ``qc`` for the first time (formed locally or received).

        Called once per QC, so once per view, and for views from 0 up:
        ``ConsensusEngine._learn_qc`` is the only caller and drops a QC it
        learned before, above the floor or below it, and a view has at most
        one QC (two would need an honest replica to vote twice).
        """

    def on_local_qc(self, qc: QuorumCertificate) -> None:
        """Called when this replica, acting as leader, produced a QC itself.

        Lumiere uses this to time the QC-production deadline of the *next*
        (non-initial) view it leads.  Default: no-op.
        """

    def _per_view(self, table):
        """Hand ``table`` to :meth:`release_below` and return it: a
        :class:`FirstSight`, a share collector or a dict keyed by view."""
        (self._floor_dicts if type(table) is dict else self._floor_tables).append(table)
        return table

    def release_below(self, floor: int) -> None:
        """The replica's committed-view floor rose to ``floor``: free every
        table :meth:`_per_view` was handed below it.  ``Replica.on_message``
        drops a frame below the floor that would file into one of them."""
        for table in self._floor_tables:
            table.release_below(floor)
        release_below(floor, *self._floor_dicts)

    def may_produce_qc(self, view: int) -> bool:
        """Whether the leader (this replica) may still produce a QC for ``view``.

        Defaults to always true; Lumiere overrides it to enforce its
        ``Gamma/2 - 2*Delta`` production deadline.
        """
        return True

    # ------------------------------------------------------------------
    # The clock-boundary timer
    # ------------------------------------------------------------------
    def clock_time(self, view: int) -> float:
        """``c_v``: the local-clock time of ``view``'s boundary."""
        raise NotImplementedError(f"{type(self).__name__} has no clock boundaries")

    def _schedule_next_clock_event(self, include_current: bool = False) -> None:
        """Arm the one clock timer for the first boundary ``c_v`` (``v`` a
        multiple of :attr:`clock_step`) after the local clock ``lc``.

        ``include_current`` offers the boundary at-or-below ``lc`` instead.  On
        a real monotonic clock a few microseconds elapse between
        ``bump_to(c_v)`` and the ``read()`` below, so requiring ``c_v >= lc``
        would skip the boundary the caller was just bumped onto — under
        responsive view racing that silently skips Lumiere's epoch view and
        live-locks the run at the epoch boundary.  A boundary whose view is
        already entered is not re-offered: :meth:`_on_clock_target` would
        return on its first line and schedule what the loop below finds, a
        zero-delay timer later.
        """
        if self._clock_timer is not None:
            self._clock_timer.cancel()
            self._clock_timer = None
        lc = self.clock.read()
        step = self.clock_step
        # c_v is Gamma * v, so c_step is the time between two boundaries.
        candidate = int(math.floor(lc / self.clock_time(step) + _EPS)) * step
        if candidate < 0:
            candidate = 0
        if not include_current or candidate <= self._current_view:
            while self.clock_time(candidate) <= lc + _EPS:
                candidate += step
        self._clock_timer = self.clock.schedule_at_local(
            self.clock_time(candidate), lambda: self._on_clock_target(candidate)
        )

    def _on_clock_target(self, view: int) -> None:
        """The clock timer fired for ``view``: run :meth:`_on_clock_reaches`
        if the view is still ahead and the clock really reads ``c_view``,
        then arm the next boundary unless the hook armed one."""
        self._clock_timer = None
        try:
            if view <= self._current_view:
                return
            if self.clock.read() + _EPS < self.clock_time(view):
                return  # clock was paused or re-anchored; we will be rescheduled
            self._on_clock_reaches(view)
        finally:
            if self._clock_timer is None:
                self._schedule_next_clock_event()

    def _on_clock_reaches(self, view: int) -> None:
        """The local clock reached ``c_view`` of a view not yet entered."""
        raise NotImplementedError(f"{type(self).__name__} has no clock boundaries")

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
