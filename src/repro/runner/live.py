"""Live scenario execution: the campaign layer over the transport stack.

Shares :mod:`repro.experiments.scenario`'s stack builder, scenario builder
and :class:`~repro.experiments.scenario.RunResult`:

* :func:`run_live_scenario` — :func:`~repro.experiments.scenario.build_scenario`
  plus the wall-clock branch.  By default the whole in-memory cluster runs
  on the discrete-event kernel, exactly as
  :func:`~repro.experiments.scenario.run_scenario` runs it (this entry
  point adds transport ``jitter`` and a ``stop_when`` predicate); pass a
  :class:`~repro.runtime.asyncio_runtime.MonotonicClock` for wall-clock
  pacing on an :class:`~repro.runtime.asyncio_runtime.AsyncioRuntime`.
* :func:`make_live_cluster` — n nodes on the wall clock over real sockets
  or shared-memory rings, one runtime per node, in this process or one OS
  process per shard (:mod:`repro.runner.process_cluster`).
* :class:`LiveExecutor` / :func:`execute_live_cell` — the ``"live"``
  campaign backend: a :class:`~repro.runner.campaign.Campaign` sweeps
  live-cluster cells exactly like simulated ones, producing the same
  picklable :class:`~repro.runner.record.RunRecord` rows (cache keys are
  salted with ``live:`` so records made under jitter or a process
  placement never answer for plain ones).

Every lane supports the full adversarial surface: crash/recovery behaviours
(timer-driven, runtime-agnostic), delay models (loss included) and the
named ``repro.faults`` scenarios.  A config with a ``delay_model`` or
``scenario`` is executed under a
:class:`~repro.faults.transport.FaultyTransport`, and injected-fault
counters (drops, duplicates, partition epochs, kills/restarts) surface
through the run's :class:`~repro.metrics.collector.MetricsCollector`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.experiments.scenario import (
    RunResult,
    ScenarioConfig,
    build_scenario,
    start_replicas,
)
from repro.runner.process_cluster import LiveCluster
from repro.runner.record import RunRecord
from repro.runtime import Clock


# ----------------------------------------------------------------------
# In-memory cluster (LocalTransport, one runtime)
# ----------------------------------------------------------------------
async def run_live_scenario_async(
    config: ScenarioConfig,
    jitter: float = 0.0,
    clock: Optional[Clock] = None,
    max_events: Optional[int] = None,
    stop_when: Optional[Callable[[RunResult], bool]] = None,
) -> RunResult:
    """Build and run an in-memory live cluster to ``config.duration``.

    ``duration`` is virtual seconds by default and wall seconds under a
    :class:`MonotonicClock`; ``stop_when`` (called with the result between
    events, or at the wall runtime's poll cadence) ends the run early either
    way.  ``max_events`` is a replay budget of the virtual-time lane and is
    rejected on a wall clock rather than ignored.
    """
    result = build_scenario(config, jitter=jitter, clock=clock)
    simulator = result.simulator
    if simulator is None and max_events is not None:
        raise ConfigurationError(
            "max_events is a virtual-time replay budget; wall-clock runs "
            "are bounded by `duration` and `stop_when`"
        )
    start_replicas(result.replicas, wall=simulator is None)
    if simulator is None:
        predicate = None if stop_when is None else (lambda: stop_when(result))
        await result.runtime.run(until=config.duration, stop_when=predicate)
        await result.runtime.stop()
    elif stop_when is None:
        simulator.run(until=config.duration, max_events=max_events)
    else:
        budget = -1 if max_events is None else max_events
        while budget != 0 and not stop_when(result):
            before = simulator.events_processed
            simulator.run(until=config.duration, max_events=1)
            if simulator.events_processed == before:
                break  # drained, or the next event lies beyond the duration
            budget -= 1
    return result


def run_live_scenario(
    config: ScenarioConfig,
    jitter: float = 0.0,
    clock: Optional[Clock] = None,
    max_events: Optional[int] = None,
    stop_when: Optional[Callable[[RunResult], bool]] = None,
) -> RunResult:
    """Blocking wrapper over :func:`run_live_scenario_async` (owns the loop)."""
    return asyncio.run(
        run_live_scenario_async(
            config, jitter=jitter, clock=clock, max_events=max_events,
            stop_when=stop_when,
        )
    )


# ----------------------------------------------------------------------
# Wall-clock clusters: inline (one process) vs process (one OS process per shard)
# ----------------------------------------------------------------------
#: Valid ``placement`` values for live clusters.
PLACEMENTS = ("inline", "process")
#: Valid inter-node fabrics (``"shm"`` under process placement only).
TRANSPORTS = ("tcp", "shm")


def _check_lane(placement: str, transport: str, processes: Optional[int] = None) -> None:
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
    return LiveCluster(
        config, placement=placement, host=host, processes=processes,
        transport=transport, teardown_timeout=teardown_timeout,
    )


async def _run_process_cell(config: ScenarioConfig, transport: str) -> RunResult:
    """Run ``config`` on a multi-process cluster for ``config.duration`` wall
    seconds; the cluster is stopped and merged even when the run raises."""
    cluster = make_live_cluster(config, placement="process", transport=transport)
    try:
        await cluster.run(config.duration)
    finally:
        await cluster.stop()
    return cluster.result()


# ----------------------------------------------------------------------
# Campaign integration: the "live" backend
# ----------------------------------------------------------------------
def execute_live_cell(
    build: Callable[[dict[str, Any]], ScenarioConfig],
    params: dict[str, Any],
    run_id: str,
    key: str,
    max_events: Optional[int] = None,
    config: Optional[ScenarioConfig] = None,
    jitter: float = 0.0,
    placement: str = "inline",
    transport: str = "tcp",
) -> RunRecord:
    """Run one campaign cell over the transport stack.

    The live twin of :func:`repro.runner.executor.execute_cell`: same
    picklable :class:`RunRecord` shape, with ``events_processed`` counted
    by the kernel or the node runtimes.  ``key`` arrives already salted by
    the campaign layer (``live:`` prefix, plus jitter/placement/transport
    knobs when set) so cached live records never shadow simulated ones.

    ``placement="inline"`` (the default) runs the cell in-memory in virtual
    time; ``placement="process"`` runs it for ``config.duration`` wall seconds on a
    :func:`make_live_cluster` cluster over ``transport``.  Jitter is an
    inline-transport knob and is rejected under process placement (a
    process cell's noise is the real network's); loss is a delay model and
    runs on either.
    """
    _check_lane(placement, transport)
    if config is None:
        config = build(params)
    started = time.perf_counter()
    if placement == "process":
        if jitter:
            raise ConfigurationError(
                "jitter is an inline-transport knob; process placement runs "
                "over real sockets whose latency is not simulated"
            )
        result = asyncio.run(_run_process_cell(config, transport))
    else:
        result = run_live_scenario(config, jitter=jitter, max_events=max_events)
    return RunRecord.from_result(
        result, run_id, key, params, wall_time=time.perf_counter() - started
    )


@dataclass
class LiveExecutor:
    """Callable cell executor for the ``"live"`` campaign backend.

    Campaigns use a default instance; construct one explicitly to sweep the
    same grid under transport jitter::

        run_campaign(campaign, backend="live", live_executor=LiveExecutor(jitter=0.05))
    """

    #: Uniform jitter band added to every cell's transport latency.
    jitter: float = 0.0
    #: Where each cell's nodes run: ``"inline"`` (one process, virtual
    #: time) or ``"process"`` (one OS process per node, wall clock).
    placement: str = "inline"
    #: Inter-node fabric under process placement: ``"tcp"`` or ``"shm"``.
    transport: str = "tcp"

    @property
    def cache_salt(self) -> str:
        """Cache-key prefix binding everything this executor changes about a run.

        ``live:`` alone for the canonical zero-jitter, inline executor; the
        jitter value, non-default placement and non-default transport are
        folded in otherwise, so records produced under different latency
        noise, process placement or message fabric never answer for each
        other from a shared cache.  (Injected faults are the config's delay
        model, which the campaign key already covers.)
        """
        knobs = []
        if self.jitter != 0.0:
            knobs.append(f"jitter={self.jitter!r}")
        if self.placement != "inline":
            knobs.append(f"placement={self.placement}")
        if self.transport != "tcp":
            knobs.append(f"transport={self.transport}")
        if not knobs:
            return "live:"
        return f"live[{','.join(knobs)}]:"

    def __call__(
        self,
        build: Callable[[dict[str, Any]], ScenarioConfig],
        params: dict[str, Any],
        run_id: str,
        key: str,
        max_events: Optional[int] = None,
        config: Optional[ScenarioConfig] = None,
    ) -> RunRecord:
        return execute_live_cell(
            build, params, run_id, key, max_events=max_events, config=config,
            jitter=self.jitter, placement=self.placement,
            transport=self.transport,
        )
