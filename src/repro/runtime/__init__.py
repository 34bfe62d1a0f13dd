"""Pluggable runtimes: the seam between the protocol core and its world.

The consensus engine, the replicas and all eight pacemakers talk only to
the :class:`~repro.runtime.base.Runtime` interface — ``send`` /
``broadcast``, ``now``, ``set_timer`` / ``set_timer_at``, ``spawn`` — so
the *same* protocol objects execute

* under the discrete-event simulator
  (:class:`~repro.runtime.simulation.SimRuntime`, a pass-through adapter)
  over an in-memory :class:`~repro.runtime.transports.LocalTransport` — the
  virtual-time lane,
* on an asyncio loop in wall time
  (:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime`), in-memory, or
* over real TCP sockets (:class:`~repro.runtime.tcp.TcpTransport`,
  length-prefixed frames in the one wire format of
  :mod:`repro.runtime.codec`), or
* over shared-memory rings between co-located node processes
  (:class:`~repro.runtime.shm.ShmTransport`, one SPSC ring per directed
  pair — zero syscalls in steady state, frames decoded in place, or once
  for all the nodes a process hosts).

See ``docs/runtimes.md`` for the interface contract and a
writing-a-transport guide.
"""

from repro.runtime.base import Clock, Runtime, TimerHandle
from repro.runtime.simulation import SimRuntime
from repro.runtime.asyncio_runtime import AsyncioRuntime, MonotonicClock
from repro.runtime.transports import FramedTransport, LocalTransport, Transport
from repro.runtime.chaos import ChaosConfig, Counters, FaultyTransport
from repro.runtime.codec import WireCodec, WireCodecError, default_codec
from repro.runtime.tcp import TcpTransport
from repro.runtime.shm import (
    DEFAULT_RING_BYTES,
    ShmTransport,
    SpscRing,
    attach_ring,
    create_cluster_rings,
    destroy_cluster_rings,
    ring_segment_name,
)

__all__ = [
    "AsyncioRuntime",
    "ChaosConfig",
    "Clock",
    "Counters",
    "DEFAULT_RING_BYTES",
    "FaultyTransport",
    "FramedTransport",
    "LocalTransport",
    "MonotonicClock",
    "Runtime",
    "ShmTransport",
    "SimRuntime",
    "SpscRing",
    "TcpTransport",
    "TimerHandle",
    "Transport",
    "WireCodec",
    "WireCodecError",
    "attach_ring",
    "create_cluster_rings",
    "destroy_cluster_rings",
    "default_codec",
    "ring_segment_name",
]
