"""Wall-clock clusters: the live lanes over the transport stack.

:func:`make_live_cluster` builds n nodes on the wall clock over real
sockets or shared-memory rings, one kernel per shard, in this process or
one OS process per shard (:mod:`repro.runner.process_cluster`).  It shares
:mod:`repro.experiments.scenario`'s stack builder and
:class:`~repro.experiments.scenario.RunResult` with the virtual-time lane,
:func:`~repro.experiments.scenario.run_scenario`, which is the one
in-memory entry point.

Every lane supports the full adversarial surface: crash/recovery behaviours
(timer-driven, runtime-agnostic), delay models (loss included) and the
named ``repro.faults`` scenarios.  A config with a ``delay_model`` or
``scenario`` is executed under a
:class:`~repro.faults.transport.FaultyTransport`, and injected-fault
counters (drops, duplicates, partition epochs, kills/restarts) surface
through the run's :class:`~repro.metrics.collector.MetricsCollector`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig, run_scenario

if TYPE_CHECKING:
    from repro.runner.process_cluster import LiveCluster

#: The in-memory lane's former name, kept for the benchmark harness under
#: ``benchmarks/ledger/``: it is :func:`run_scenario`.
run_live_scenario = run_scenario


# ----------------------------------------------------------------------
# Wall-clock clusters: inline (one process) vs process (one OS process per shard)
# ----------------------------------------------------------------------
#: Valid ``placement`` values for live clusters.
PLACEMENTS = ("inline", "process")
#: Valid inter-node fabrics (``"shm"`` under process placement only).
TRANSPORTS = ("tcp", "shm")


def _check_lane(placement: str, transport: str, processes: Optional[int]) -> None:
    """Reject a (placement, transport, processes) combination no lane runs."""
    if placement not in PLACEMENTS:
        raise ConfigurationError(
            f"unknown placement {placement!r}; expected one of {PLACEMENTS}"
        )
    if transport not in TRANSPORTS:
        raise ConfigurationError(
            f"unknown transport {transport!r}; available: {', '.join(TRANSPORTS)}"
        )
    if placement == "inline":
        if processes is not None:
            raise ConfigurationError(
                "processes is a process-placement knob; inline placement "
                "runs every node in the calling process"
            )
        if transport != "tcp":
            raise ConfigurationError(
                "transport=\"shm\" is a process-placement knob; inline "
                "placement shares one heap and has no process boundary for "
                "shared memory to cross"
            )
    elif processes is not None and processes < 1:
        raise ConfigurationError(f"processes must be >= 1, got {processes}")


def make_live_cluster(
    config: ScenarioConfig,
    placement: str = "inline",
    host: str = "127.0.0.1",
    codec: Optional[str] = None,
    processes: Optional[int] = None,
    transport: str = "tcp",
    teardown_timeout: float = 30.0,
) -> LiveCluster:
    """Build a wall-clock cluster with the requested process placement.

    ``placement="inline"`` runs every node in the calling process — one
    event loop, real sockets.  ``placement="process"`` forks one OS process
    per node (or per shard of ``processes`` workers), which is the multicore
    lane; the calling process must be single-threaded when it starts one.  Both are one :class:`~repro.runner.process_cluster.LiveCluster`
    with the same ``start`` / ``run`` / ``run_until_commits`` / ``stop`` /
    ``min_committed`` / ``result`` surface, so benchmarks and examples
    switch placement with this one knob.

    Parameters
    ----------
    host:
        Listen address for every node (default localhost).
    codec:
        Accepted only as ``"binary"``, the name of the one wire format, and
        otherwise unused: the benchmark harness under ``benchmarks/ledger/``
        still passes it.  Anything else raises.
    processes:
        Number of worker processes under process placement (inline has
        exactly one); defaults to one per node.  Fewer processes shard the
        nodes contiguously — useful when ``n`` exceeds the core count.
    transport:
        Inter-node fabric.  ``"tcp"`` (default) speaks length-prefixed
        frames over localhost sockets; ``"shm"`` moves frames through
        shared-memory SPSC rings (:class:`~repro.runtime.shm.ShmTransport`)
        — no per-frame syscalls, no kernel copies.  Inline placement has no
        process boundary to cross, so it always speaks TCP and rejects
        ``"shm"``.
    teardown_timeout:
        Wall seconds ``stop()`` waits for each worker's report and exit
        before terminating it.

    Process placement also rejects the ``counting`` crypto backend: its
    digests are process-local interning tokens and can never validate
    across process boundaries.
    """
    _check_lane(placement, transport, processes)
    if codec not in (None, "binary"):
        raise ConfigurationError(
            f"codec={codec!r}: the wire has one format; omit codec= (or pass "
            "\"binary\")"
        )
    if placement == "process" and config.crypto_backend == "counting":
        raise ConfigurationError(
            "the counting crypto backend interns digests per process and "
            "cannot validate across OS processes; use \"hashing\" for "
            "process placement"
        )
    # Here, not at module level: the cluster pulls the asyncio, TCP and shm
    # stack, which a virtual-time run that imports this module never uses.
    from repro.runner.process_cluster import LiveCluster

    return LiveCluster(
        config, placement=placement, host=host, processes=processes,
        transport=transport, teardown_timeout=teardown_timeout,
    )
