"""``Shard``: the replicas that share one event loop and one kernel, on every wall-clock lane.

A :class:`Shard` is built from a :class:`ShardSpec` and lives through five
calls: ``bind``, ``connect``, ``go``, ``commits`` and ``stop``, which
reduces it to a picklable :class:`ShardReport`.  A
:class:`~repro.runner.process_cluster.LiveCluster` makes those calls
directly (inline placement: one shard holding every pid) or from a forked
worker answering its control pipe (process placement: one worker per
shard).  A forked worker inherits its spec as a live object, so nothing in
it (a lambda inside a delay model included) has to survive a pickle; only
reports cross the pipe.  A worker also calls ``report`` on every status
round: the rows its histories gained since the round before, which the
shard then drops, so ``stop`` reports only the last round's rows.
"""

from __future__ import annotations

import asyncio
import gc
from dataclasses import dataclass, field
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
    MonotonicClock,
    ShmEndpoint,
    ShmTransport,
    TcpTransport,
    Transport,
    WallClockKernel,
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
    """One replica of a :class:`Shard` with its transport and the shard's kernel.

    ``transport`` is the node's socket or ring transport, or a
    :class:`~repro.faults.transport.FaultyTransport` wrapping it when the
    config sets a delay model (a scenario's, or loss).
    """

    pid: int
    transport: Transport
    runtime: WallClockKernel
    replica: Any


@dataclass(frozen=True)
class ShardReport:
    """What one shard hands over, picklable: the rows its histories hold
    (those since its previous report, once it has reported), and its
    totals as of now."""

    #: The shard's collector state: its rows (protocol events, messages,
    #: decisions, commits, requests) and every run total (``counts``).
    metrics_state: dict
    #: Per pid: ledger ids and KV apply-chain links; the KV digest and
    #: client counts only in the report of :meth:`Shard.stop`.
    replicas: dict[int, ReplicaResidue]
    teardown_errors: tuple[str, ...] = ()
    #: Ledger length per pid.
    commits: dict[int, int] = field(default_factory=dict)


class Shard:
    """The replicas of ``spec.pids`` on the running event loop, timed by one
    :class:`~repro.runtime.wallclock.WallClockKernel`."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.clock = MonotonicClock(origin=spec.clock_origin)
        self.kernel = WallClockKernel(self.clock, seed=spec.config.seed)
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
        """Install the cluster-wide address map; bind each transport to the
        shard's kernel and build its replica over it."""
        stack, config = self.stack, self.spec.config
        for pid, transport in self._transports.items():
            transport.set_peers(peers)
            if stack.delay_model is not None:
                # Each node imposes the shared schedule on its *outgoing*
                # sends: a hold-then-forward approximation of the simulated
                # latency (the real fabric adds its own small delay on top,
                # so — unlike the single-runtime virtual-time lane — this
                # lane makes no bit-exact parity claim).  The node's pid
                # offsets its schedule's seed (and a loss model's stream).
                transport = FaultyTransport(
                    transport,
                    stack.delay_model,
                    config.network_config(),
                    schedule_seed=config.seed + pid,
                    counters=stack.metrics.counters,
                )
            transport.bind(self.kernel)
            stack.metrics.attach_transport(transport)
            self.nodes[pid] = Node(
                pid, transport, self.kernel, make_replica(stack, pid, transport)
            )
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

    def report(self) -> ShardReport:
        """The rows this shard's histories gained since its previous report
        (collector tables, ledger ids, KV apply-chain links), which it then
        drops, with its run totals and ledger lengths as of now."""
        return ShardReport(
            metrics_state=self.stack.metrics.drain(),
            replicas={pid: node.replica.drain() for pid, node in self.nodes.items()},
            commits=self.commits(),
        )

    async def stop(self) -> ShardReport:
        """Shut every node down (concurrently, so EOFs propagate cleanly) and
        report the rows the histories hold, with the KV digests and client
        counts.

        Teardown surfaces rather than swallows: each transport's
        ``last_errors`` land in the report and its ``frames_dropped`` in the
        shipped counts, so a writer that died holding frames or a delivery
        that raised mid-run is visible there instead of vanishing.
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
            commits=self.commits(),
        )
        gc.unfreeze()  # an inline caller's heap outlives the shard
        return report
