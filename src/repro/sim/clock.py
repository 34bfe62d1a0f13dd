"""Local clocks with the pause / bump-forward semantics of the paper.

Every processor ``p`` in Lumiere (and in LP22 / Fever) maintains a local
clock value ``lc(p)`` that

* advances in real time while the processor is not paused,
* can be *paused* (e.g. while waiting for an Epoch Certificate),
* can be *bumped forward* instantaneously to a larger value (e.g. on seeing
  a QC, VC, EC or TC), and never moves backwards.

Protocols need to react "when ``lc(p)`` reaches the clock time ``c_v`` of a
view ``v``".  :class:`LocalClock` therefore supports scheduling callbacks at
*local* times.  A local-time target may be reached either by real-time
advance (in which case the underlying runtime timer fires) or by a bump
(in which case the callback runs immediately at the bump instant).  Pausing
suspends all pending local timers; unpausing reschedules them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError


class LocalTimer:
    """A callback registered to fire when a :class:`LocalClock` reaches a target.

    Instances are created via :meth:`LocalClock.schedule_at_local`.  The
    callback fires exactly once unless the timer is cancelled first.
    """

    __slots__ = ("target", "callback", "cancelled", "fired", "_event", "label")

    def __init__(self, target: float, callback: Callable[[], None], label: str = "") -> None:
        self.target = target
        self.callback = callback
        self.cancelled = False
        self.fired = False
        # Backing runtime timer: the kernel's EventHandle.
        self._event: Optional[Any] = None
        self.label = label

    def cancel(self) -> None:
        """Cancel the timer; the callback will not run."""
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def pending(self) -> bool:
        """True while the timer has neither fired nor been cancelled."""
        return not self.fired and not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"LocalTimer(target={self.target:.3f}, {state}, label={self.label!r})"


class LocalClock:
    """A processor-local clock driven by its runtime's ("real") time.

    The clock value is ``anchor_value + (runtime.now - anchor_time)`` while
    running, and ``anchor_value`` while paused.  ``bump_to`` moves the value
    forward (never backwards) and re-anchors.

    The time source is the process's runtime (a
    :class:`~repro.sim.events.Simulator`, on either clock).
    """

    def __init__(self, source: Any, initial: float = 0.0) -> None:
        self._source = source
        self._set_timer = source.set_timer
        self._anchor_value = initial
        self._anchor_time = source.now
        self._paused = False
        self._timers: list[LocalTimer] = []
        self.bump_count = 0
        self.pause_count = 0

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read(self) -> float:
        """Current local-clock value."""
        if self._paused:
            return self._anchor_value
        return self._anchor_value + (self._source.now - self._anchor_time)

    @property
    def value(self) -> float:
        """Alias for :meth:`read`, convenient in expressions."""
        return self.read()

    @property
    def paused(self) -> bool:
        """Whether the clock is currently paused."""
        return self._paused

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Freeze the clock at its current value.  Idempotent."""
        if self._paused:
            return
        self._anchor_value = self.read()
        self._anchor_time = self._source.now
        self._paused = True
        self.pause_count += 1
        self._resync_timers()

    def unpause(self) -> None:
        """Resume real-time advance from the current value.  Idempotent."""
        if not self._paused:
            return
        self._anchor_time = self._source.now
        self._paused = False
        self._resync_timers()

    def bump_to(self, value: float) -> bool:
        """Move the clock instantaneously forward to ``value``.

        Returns ``True`` if the clock actually moved (i.e. ``value`` was
        strictly greater than the current reading).  Bumping never moves the
        clock backwards; a smaller or equal value is a no-op.  Bumping does
        not unpause a paused clock (protocols unpause explicitly).
        """
        current = self.read()
        if value <= current:
            return False
        self._anchor_value = value
        self._anchor_time = self._source.now
        self.bump_count += 1
        self._resync_timers()
        return True

    def set_to(self, value: float) -> None:
        """Force the clock to ``value`` regardless of direction.

        Only used by test fixtures and adversarial setups that model
        arbitrary clock drift before GST; honest protocol code uses
        :meth:`bump_to`.
        """
        self._anchor_value = value
        self._anchor_time = self._source.now
        self._resync_timers()

    # ------------------------------------------------------------------
    # Local-time scheduling
    # ------------------------------------------------------------------
    def schedule_at_local(
        self, target: float, callback: Callable[[], None], label: str = ""
    ) -> LocalTimer:
        """Run ``callback`` when the local clock first reaches ``target``.

        If the clock is already at or past ``target`` the callback is
        scheduled to run immediately (at the current simulation instant, but
        after the caller returns — callbacks never run re-entrantly).
        """
        if callback is None:
            raise SimulationError("schedule_at_local requires a callback")
        timer = LocalTimer(target, callback, label=label)
        self._timers.append(timer)
        self._arm(timer)
        return timer

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _arm(self, timer: LocalTimer) -> None:
        """(Re)schedule the runtime timer backing ``timer``, if appropriate."""
        if not timer.pending:
            return
        if timer._event is not None:
            timer._event.cancel()
            timer._event = None
        current = self.read()
        if current >= timer.target:
            timer._event = self._set_timer(0.0, self._fire, timer, label=timer.label)
        elif not self._paused:
            delay = timer.target - current
            timer._event = self._set_timer(delay, self._fire, timer, label=timer.label)
        # else: paused and target not reached — leave unarmed until unpause/bump.

    def _fire(self, timer: LocalTimer) -> None:
        if not timer.pending:
            return
        if self.read() + 1e-12 < timer.target:
            # The clock was paused or re-anchored after this event was
            # scheduled; re-arm instead of firing early.
            self._arm(timer)
            return
        timer.fired = True
        timer._event = None
        timer.callback()

    def _resync_timers(self) -> None:
        """Re-arm all pending timers after a pause/unpause/bump: one runtime
        timer each, due at once where the clock now stands at or past the
        target."""
        self._timers = [t for t in self._timers if t.pending]
        for timer in self._timers:
            self._arm(timer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "paused" if self._paused else "running"
        return f"LocalClock(value={self.read():.3f}, {state}, timers={len(self._timers)})"
