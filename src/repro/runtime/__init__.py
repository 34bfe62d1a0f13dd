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
  (:class:`~repro.runtime.shm.ShmTransport`, one SPSC ring per sender
  and reading worker — zero syscalls in steady state, one drain and one
  doorbell per worker, each frame decoded once in place for every node
  the worker hosts).

See ``docs/runtimes.md`` for the interface contract and a
writing-a-transport guide.
"""

from repro import lazy_exports

# Resolved on first access: the virtual-time lane never imports the asyncio,
# TCP and shm transports or the codec.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("Clock", "Runtime", "TimerHandle"),
    "simulation": ("SimRuntime",),
    "asyncio_runtime": ("AsyncioRuntime", "MonotonicClock"),
    "transports": ("FramedTransport", "LocalTransport", "Transport"),
    "codec": ("WireCodec", "WireCodecError", "default_codec"),
    "tcp": ("TcpTransport",),
    "shm": (
        "DEFAULT_RING_BYTES", "ShmEndpoint", "ShmTransport", "SpscRing", "attach_ring",
        "create_cluster_rings", "destroy_cluster_rings", "ring_segment_name",
    ),
})
