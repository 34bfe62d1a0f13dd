"""Process abstraction: the unit a transport addresses and a runtime times.

A :class:`Process` is built over its
:class:`~repro.runtime.transports.Transport`: it registers there, sends
through it and receives from it.  Time and timers come from the
runtime (a :class:`~repro.sim.events.Simulator`) that transport is bound to
(:attr:`Process.runtime`), which also drives the process's
:class:`~repro.sim.clock.LocalClock`.  Protocol replicas (see
:mod:`repro.consensus.replica`) derive from it, as do purpose-built
Byzantine processes.
"""

from __future__ import annotations

from typing import Any

from repro.sim.clock import LocalClock


class Process:
    """Base class for all protocol processors, runtime-agnostic.

    Subclasses implement :meth:`on_message` (and usually :meth:`start`).
    A process that has crashed stops receiving messages and sending anything.
    """

    def __init__(self, pid: int, transport: Any) -> None:
        self.pid = pid
        self.transport = transport
        self.runtime = transport.runtime
        self.clock = LocalClock(self.runtime)
        self.crashed = False
        self.byzantine = False
        transport.register(self)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current runtime time (virtual under simulation, wall-clock when live)."""
        return self.runtime.now

    @property
    def local_time(self) -> float:
        """Current local-clock value ``lc(p)``."""
        return self.clock.read()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called once when the run begins.  Default: no-op."""

    def crash(self) -> None:
        """Stop the process: it will neither send nor react to messages."""
        self.crashed = True

    def recover(self) -> None:
        """Restart a crashed process: it resumes sending and receiving.

        Recovery is deliberately minimal: the local clock kept running and any
        timers armed before the crash were never cancelled, so the process
        rejoins exactly where a real restarted replica with persisted state
        would — alive, but having missed every message sent while it was down
        (delivery to crashed processes is dropped, never queued).
        """
        self.crashed = False

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, recipient: int, payload: Any) -> None:
        """Send ``payload`` to ``recipient`` unless crashed."""
        if self.crashed:
            return
        self.transport.send(self.pid, recipient, payload)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every processor, including self, unless crashed."""
        if self.crashed:
            return
        self.transport.broadcast(self.pid, payload)

    def deliver(self, payload: Any, sender: int) -> None:
        """Entry point used by the transport; dispatches to :meth:`on_message`."""
        if self.crashed:
            return
        self.on_message(payload, sender)

    def on_message(self, payload: Any, sender: int) -> None:
        """Handle an incoming message.  Subclasses override."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.byzantine:
            flags.append("byzantine")
        if self.crashed:
            flags.append("crashed")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"{type(self).__name__}(pid={self.pid}{suffix})"
