"""Discrete-event simulation of the partial synchrony model.

The simulator provides virtual time and an event queue
(:mod:`repro.sim.events`); the rest is per-processor local clocks with the
pause/bump semantics the paper's protocols rely on (:mod:`repro.sim.clock`)
and a ``Process`` base class that protocol replicas derive from
(:mod:`repro.sim.process`).  How message delays are chosen — a
:class:`~repro.faults.delays.DelayModel` under the partial synchrony
constraint — lives in :mod:`repro.faults`; messages move through a
:class:`~repro.runtime.transports.Transport` (:mod:`repro.runtime`).
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
