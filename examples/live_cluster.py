#!/usr/bin/env python3
"""Live cluster: an n=4 Lumiere deployment over real TCP sockets.

The same protocol objects the simulator executes — replicas, the chained
HotStuff engine, the Lumiere pacemaker — boot here as asyncio tasks, one
node per :class:`~repro.runtime.tcp.TcpTransport`, exchanging
length-prefixed binary frames over localhost TCP and committing blocks in
real (wall-clock) time.  The run stops as soon as every node's ledger holds
the target number of blocks, then prints wall-clock latency and throughput
figures recorded by the ordinary metrics collector through the monotonic
clock behind the :class:`~repro.runtime.base.Clock` seam.

Run with:  python examples/live_cluster.py
           python examples/live_cluster.py --n 4 --blocks 20 --timeout 30
           python examples/live_cluster.py --procs 4      # one OS process per node

``--procs`` switches to process placement: the nodes boot in spawned OS
processes (``--procs N`` workers; ``--procs 0`` means one per node) with
the parent coordinating over control pipes — the multicore deployment
shape.  Exits non-zero if the cluster fails to commit the target within
the timeout (the CI live-smoke job relies on this).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

from repro.experiments import ScenarioConfig
from repro.runner import make_live_cluster


async def run_cluster(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        n=args.n,
        pacemaker=args.pacemaker,
        delta=args.delta,       # the known bound Delta, now in wall-clock seconds
        duration=args.timeout,
        seed=0,
    )
    placement = "inline" if args.procs is None else "process"
    processes = None if args.procs in (None, 0) else args.procs
    cluster = make_live_cluster(config, placement=placement, processes=processes)
    print(
        f"booting n={args.n} {args.pacemaker} cluster over TCP on localhost "
        f"({placement} placement)..."
    )
    started = time.monotonic()
    await cluster.start()
    if placement == "inline":
        addresses = {pid: node.transport.address for pid, node in sorted(cluster.nodes.items())}
        for pid, (host, port) in addresses.items():
            print(f"  node {pid}: listening on {host}:{port}")
    else:
        for worker in cluster._workers:
            print(f"  worker {worker.index}: hosting nodes {list(worker.pids)}")
    run_started = time.monotonic()

    commits = await cluster.run_until_commits(args.blocks, timeout=args.timeout)
    now = time.monotonic()
    elapsed, run_elapsed = now - started, now - run_started
    await cluster.stop()
    result = cluster.result()
    consistent = result.ledgers_are_consistent()
    decisions = result.honest_decisions()
    sent = result.metrics.counts["messages_sent"]
    commits_total = sum(len(r.ledger) for r in result.residues().values())

    print()
    print(
        f"live cluster run (n={args.n}, {args.pacemaker}, Delta={args.delta}s, "
        f"{placement} placement)"
    )
    print("-" * 48)
    print(f"blocks committed (every node)  : {commits}")
    print(f"honest-leader decisions        : {decisions}")
    print(f"messages on the wire           : {sent}")
    print(f"wall-clock time                : {elapsed:.2f}s")
    if commits:
        print(f"throughput                     : {commits / run_elapsed:.1f} blocks/s")
        print(
            f"aggregate commit throughput    : {commits_total / run_elapsed:.1f} "
            f"ledger entries/s across {args.n} nodes"
        )
    print(f"ledgers consistent             : {consistent}")
    if cluster.teardown_errors:
        print(f"teardown errors                : {cluster.teardown_errors}")

    if commits < args.blocks:
        print(f"FAILED: only {commits}/{args.blocks} blocks within {args.timeout}s",
              file=sys.stderr)
        return 1
    if not consistent:
        print("FAILED: ledgers diverged", file=sys.stderr)
        return 1
    print(f"OK: {commits} blocks committed on all {args.n} nodes")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4, help="cluster size (default 4)")
    parser.add_argument("--blocks", type=int, default=10,
                        help="stop once every ledger holds this many blocks")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="wall-clock budget in seconds")
    parser.add_argument("--delta", type=float, default=0.2,
                        help="known delay bound Delta in seconds")
    parser.add_argument("--pacemaker", default="lumiere",
                        help="view-synchronisation protocol (default lumiere)")
    parser.add_argument("--procs", type=int, default=None, metavar="N",
                        help="process placement: spawn N node-hosting OS "
                             "processes (0 = one per node); omit for inline")
    args = parser.parse_args()
    return asyncio.run(run_cluster(args))


if __name__ == "__main__":
    sys.exit(main())
