"""Discrete-event simulation of the partial synchrony model.

The :class:`~repro.sim.events.Simulator` provides virtual time and an event
queue, and is the runtime a transport is bound to
(:mod:`repro.sim.events`; on the wall clock it is
:class:`~repro.runtime.wallclock.WallClockKernel`); the rest is per-processor
local clocks with the pause/bump semantics the paper's protocols rely on
(:mod:`repro.sim.clock`) and a ``Process`` base class that protocol
replicas derive from, built over the
:class:`~repro.runtime.transports.Transport` it sends through
(:mod:`repro.sim.process`).  ``Process`` and ``LocalClock`` live here, not
under :mod:`repro.runtime`, because the protocol core imports them and
must load nothing from that package.  How message delays are chosen — a
:class:`~repro.faults.delays.DelayModel` under the partial synchrony
constraint — lives in :mod:`repro.faults`.
"""

from repro.sim.events import EventHandle, Simulator
from repro.sim.clock import LocalClock, LocalTimer
from repro.sim.process import Process

__all__ = [
    "EventHandle",
    "LocalClock",
    "LocalTimer",
    "Process",
    "Simulator",
]
