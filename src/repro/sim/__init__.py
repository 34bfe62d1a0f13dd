"""Discrete-event simulation of the partial synchrony model.

The simulator provides virtual time and an event queue; the network model
says how message delays are chosen — by a pluggable
:class:`~repro.sim.network.DelayModel` subject to the partial synchrony
constraint (every message sent at time ``t`` arrives by
``max(GST, t) + Delta``); the rest is per-processor local clocks with the
pause/bump semantics the paper's protocols rely on, and a ``Process`` base
class that protocol replicas derive from.  Messages move through a
:class:`~repro.runtime.transports.Transport` (:mod:`repro.runtime`).
"""

from repro.sim.events import EventHandle, Simulator
from repro.sim.clock import LocalClock, LocalTimer
from repro.sim.network import (
    AdversarialDelay,
    Counters,
    DelayContext,
    DelayModel,
    Envelope,
    FixedDelay,
    NetworkConfig,
    PreGSTChaos,
    TargetedDelay,
    UniformDelay,
)
from repro.sim.process import Process

__all__ = [
    "AdversarialDelay",
    "DelayModel",
    "Envelope",
    "EventHandle",
    "FixedDelay",
    "LocalClock",
    "LocalTimer",
    "NetworkConfig",
    "PreGSTChaos",
    "Process",
    "Simulator",
    "TargetedDelay",
    "UniformDelay",
]
