"""``Shard``: the replicas that share one event loop, on every wall-clock lane.

A :class:`Shard` is built from a :class:`ShardSpec` and lives through five
calls: ``bind``, ``connect``, ``go``, ``commits`` and ``stop``, which
reduces it to a picklable :class:`ShardReport`.  A
:class:`~repro.runner.process_cluster.LiveCluster` makes those calls
directly (inline placement: one shard holding every pid) or from a forked
worker answering its control pipe (process placement: one worker per
shard).  A forked worker inherits its spec as a live object, so nothing in
it (a lambda inside a delay model included) has to survive a pickle; only
the report crosses the pipe pickled.
"""

from __future__ import annotations

import asyncio
import gc
from dataclasses import dataclass
from typing import Any, Optional

from repro.consensus.replica import ReplicaResidue
from repro.experiments.scenario import (
    ProtocolStack,
    ScenarioConfig,
    build_stack,
    make_replica,
    start_replicas,
)
from repro.faults.transport import FaultyTransport
from repro.runtime import (
    AsyncioRuntime,
    MonotonicClock,
    ShmEndpoint,
    ShmTransport,
    TcpTransport,
    Transport,
)


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard needs (inherited by a forked worker, never pickled)."""

    config: ScenarioConfig
    pids: tuple[int, ...]
    #: The cluster's ``time.monotonic()`` origin: every shard's clock shares
    #: it, so metrics merged across workers live on one timeline.
    clock_origin: float
    host: str = "127.0.0.1"
    #: Inter-node fabric: ``"tcp"`` (localhost sockets) or ``"shm"``
    #: (shared-memory rings; ``shm_token`` names the coordinator-created
    #: segments and ``shards`` is the topology they were created for: every
    #: worker's pids, in worker order, ``pids`` among them).
    transport: str = "tcp"
    shm_token: Optional[str] = None
    shards: tuple[tuple[int, ...], ...] = ()


@dataclass
class Node:
    """One replica of a :class:`Shard` with its runtime and transport.

    ``transport`` is the node's socket or ring transport, or a
    :class:`~repro.faults.transport.FaultyTransport` wrapping it when the
    config sets a delay model (a scenario's, or loss).
    """

    pid: int
    transport: Transport
    runtime: AsyncioRuntime
    replica: Any


@dataclass(frozen=True)
class ShardReport:
    """The picklable residue one shard leaves behind at shutdown."""

    #: The shard's collector: every run total in it (``counts``) and its
    #: replicas' protocol events.
    metrics_state: dict
    replicas: dict[int, ReplicaResidue]
    teardown_errors: tuple[str, ...]


class Shard:
    """The replicas of ``spec.pids`` on the running event loop, one runtime each."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.clock = MonotonicClock(origin=spec.clock_origin)
        self.stack: Optional[ProtocolStack] = None
        self.nodes: dict[int, Node] = {}
        self._transports: dict[int, Any] = {}

    @property
    def replicas(self) -> dict[int, Any]:
        """This shard's replicas by pid."""
        return {pid: node.replica for pid, node in self.nodes.items()}

    async def bind(self) -> dict[int, tuple[str, int]]:
        """Build the protocol stack and open every node's server.

        Returns this shard's ``{pid: address}`` (for shm the "address" is
        the shard's one UDP doorbell, which every pid of it reports; the
        exchange is the same dance either way).
        """
        spec = self.spec
        self.stack = build_stack(spec.config)
        if spec.transport == "shm":
            assert spec.shm_token is not None, "shm transport needs a cluster token"
            endpoint = ShmEndpoint(
                spec.shm_token, spec.shards, spec.shards.index(spec.pids), host=spec.host
            )
            for pid in spec.pids:
                self._transports[pid] = ShmTransport(pid, endpoint)
        else:
            for pid in spec.pids:
                self._transports[pid] = TcpTransport(pid, host=spec.host)
        return {
            pid: await transport.start_server()
            for pid, transport in self._transports.items()
        }

    async def connect(self, peers: dict[int, tuple[str, int]]) -> None:
        """Install the cluster-wide address map; bind each transport to a
        fresh runtime and build its replica over it."""
        stack, config = self.stack, self.spec.config
        for pid, transport in self._transports.items():
            transport.set_peers(peers)
            if stack.delay_model is not None:
                # Each node imposes the shared schedule on its *outgoing*
                # sends: a hold-then-forward approximation of the simulated
                # latency (the real fabric adds its own small delay on top,
                # so — unlike the single-runtime virtual-time lane — this
                # lane makes no bit-exact parity claim).  Per-node seed
                # offsets mirror the runtimes' seeds (and the node's pid
                # offsets a loss model's stream the same way).
                transport = FaultyTransport(
                    transport,
                    stack.delay_model,
                    config.network_config(),
                    schedule_seed=config.seed + pid,
                    counters=stack.metrics.counters,
                )
            runtime = AsyncioRuntime(clock=self.clock, seed=config.seed + pid)
            transport.bind(runtime)
            stack.metrics.attach_transport(transport)
            self.nodes[pid] = Node(pid, transport, runtime, make_replica(stack, pid, transport))
        for node in self.nodes.values():
            await node.transport.start()

    def go(self) -> None:
        """Start every replica (on the wall clock), after freezing what is built
        so far (imports, keys, codec tables, rings) out of the collector's reach."""
        gc.collect()
        gc.freeze()
        start_replicas(self.replicas, wall=True)

    def commits(self) -> dict[int, int]:
        """Current ledger length per pid."""
        return {pid: len(node.replica.ledger) for pid, node in self.nodes.items()}

    async def stop(self) -> ShardReport:
        """Shut every node down (concurrently, so EOFs propagate cleanly).

        Teardown surfaces rather than swallows: each transport's
        ``last_errors`` land in the report and its ``frames_dropped`` in the
        shipped counts, so a writer that died holding frames or a pump that
        crashed mid-run is visible there instead of vanishing with the tasks.
        """
        nodes = self.nodes.values()
        await asyncio.gather(*(node.transport.stop() for node in nodes))
        report = ShardReport(
            metrics_state=self.stack.metrics.state(),
            replicas={node.pid: node.replica.residue() for node in nodes},
            teardown_errors=tuple(
                f"node {node.pid}: {error}"
                for node in nodes
                for error in getattr(node.transport, "inner", node.transport).last_errors
            ),
        )
        gc.unfreeze()  # an inline caller's heap outlives the shard
        return report
