"""Pluggable runtimes and transports: the seam between the protocol core and its world.

A process sends through its :class:`~repro.runtime.transports.Transport`
and reads time and arms timers through the kernel that transport is bound
to (``now``, ``set_timer`` / ``set_timer_at``, ``call_after``, ``spawn``,
``rng``).  There is one kernel, the discrete-event
:class:`~repro.sim.events.Simulator`, on two clocks, so the *same*
protocol objects execute

* in virtual time: an in-memory
  :class:`~repro.runtime.transports.LocalTransport` bound to a
  :class:`~repro.sim.events.Simulator`,
* in wall time, on an asyncio loop
  (:class:`~repro.runtime.wallclock.WallClockKernel`, the same heap
  reading a monotonic clock) under
* real TCP sockets (:class:`~repro.runtime.tcp.TcpTransport`,
  length-prefixed frames in the one wire format of
  :mod:`repro.runtime.codec`), or
* shared-memory rings between co-located node processes
  (:class:`~repro.runtime.shm.ShmTransport`, one SPSC ring per sender
  and reading worker — zero syscalls in steady state, one drain and one
  doorbell per worker, each frame decoded once in place for every node
  the worker hosts).

See ``docs/runtimes.md`` for the interface contract and a
writing-a-transport guide.
"""

from repro import lazy_exports

# Resolved on first access: the virtual-time lane never imports the
# wall-clock kernel, the TCP and shm transports or the codec.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "wallclock": ("MonotonicClock", "WallClockKernel"),
    "transports": ("FramedTransport", "LocalTransport", "Transport"),
    "codec": ("WireCodec", "WireCodecError", "default_codec"),
    "tcp": ("TcpTransport",),
    "shm": (
        "DEFAULT_RING_BYTES", "ShmEndpoint", "ShmTransport", "SpscRing", "attach_ring",
        "create_cluster_rings", "destroy_cluster_rings", "ring_segment_name",
    ),
})
