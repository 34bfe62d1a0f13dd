"""``Shard``: the replicas that share one event loop, on every wall-clock lane.

A :class:`Shard` is built from a picklable :class:`ShardSpec` and lives
through five calls: ``bind``, ``connect``, ``go``, ``commits`` and ``stop``,
which reduces it to a picklable :class:`ShardReport`.  A
:class:`~repro.runner.process_cluster.LiveCluster` makes those calls
directly (inline placement: one shard holding every pid) or from a spawned
worker answering its control pipe (process placement: one worker per shard).
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
from repro.runtime import (
    AsyncioRuntime,
    FaultyTransport,
    MonotonicClock,
    ShmTransport,
    TcpTransport,
    Transport,
)


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard needs (picklable)."""

    config: ScenarioConfig
    pids: tuple[int, ...]
    #: The cluster's ``time.monotonic()`` origin: every shard's clock shares
    #: it, so metrics merged across workers live on one timeline.
    clock_origin: float
    host: str = "127.0.0.1"
    #: Inter-node fabric: ``"tcp"`` (localhost sockets) or ``"shm"``
    #: (shared-memory rings; ``shm_token`` names the coordinator-created
    #: segments).
    transport: str = "tcp"
    shm_token: Optional[str] = None


@dataclass
class Node:
    """One replica of a :class:`Shard` with its runtime and transport.

    ``transport`` is the node's socket or ring transport, or a
    :class:`~repro.runtime.chaos.FaultyTransport` wrapping it when the
    cluster runs a chaotic scenario.
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

    async def bind(self) -> tuple[dict[int, tuple[str, int]], tuple]:
        """Build the protocol stack and open every node's server.

        Returns this shard's ``{pid: address}`` (for shm the "address" is
        the node's UDP doorbell; the exchange is the same dance either way)
        and a cross-process comparable fingerprint of its key ceremony.
        """
        spec = self.spec
        self.stack = build_stack(spec.config)
        for pid in spec.pids:
            if spec.transport == "shm":
                assert spec.shm_token is not None, "shm transport needs a cluster token"
                self._transports[pid] = ShmTransport(pid, token=spec.shm_token, host=spec.host)
            else:
                self._transports[pid] = TcpTransport(pid, host=spec.host)
        addresses = {
            pid: await transport.start_server()
            for pid, transport in self._transports.items()
        }
        keys = self.stack.signing_keys
        return addresses, tuple((pid, keys[pid].secret_token) for pid in sorted(keys))

    async def connect(self, peers: dict[int, tuple[str, int]]) -> None:
        """Install the cluster-wide address map; build runtimes and replicas."""
        stack, config = self.stack, self.spec.config
        for pid, transport in self._transports.items():
            transport.set_peers(peers)
            if stack.delay_model is not None:
                # Each node imposes the shared schedule on its *outgoing*
                # sends: a hold-then-forward approximation of the simulated
                # latency (the real fabric adds its own small delay on top,
                # so — unlike the single-runtime virtual-time lane — this
                # lane makes no bit-exact parity claim).  Per-node seed
                # offsets mirror the runtimes' seeds.
                transport = FaultyTransport(
                    transport,
                    schedule=stack.delay_model,
                    network=config.network_config(),
                    schedule_seed=config.seed + pid,
                    counters=stack.metrics.counters,
                )
            runtime = AsyncioRuntime(transport, clock=self.clock, seed=config.seed + pid)
            stack.metrics.attach_transport(transport)
            self.nodes[pid] = Node(pid, transport, runtime, make_replica(stack, pid, runtime))
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
        await asyncio.gather(*(node.runtime.stop() for node in nodes))
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
