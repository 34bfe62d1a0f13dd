#!/usr/bin/env python3
"""Client workload: a replicated key-value store fed by real client traffic.

Consensus on its own orders synthetic filler; this example attaches the
client-workload layer instead.  Open-loop clients on every replica submit
``put``/``delete`` commands to a local :class:`~repro.runner.workload.RequestGateway`,
which batches them, forwards them to the current leader's mempool, and
retries across view changes; committed blocks are applied to a
deterministic replicated KV store with exactly-once semantics per
``(client, seq)``.  The same ``WorkloadConfig`` runs in virtual time on
the simulator kernel and on a real TCP cluster — this script runs both.

Run with:  python examples/kv_workload.py
           python examples/kv_workload.py --rate 50 --stop 10
           python examples/kv_workload.py --procs 0   # one OS process per node
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

from repro.experiments import ScenarioConfig, run_scenario
from repro.runner import WorkloadConfig, make_live_cluster


def virtual_time_lane(args: argparse.Namespace) -> bool:
    """Every request applied exactly once, one KV digest, in virtual time."""
    workload = WorkloadConfig(mode="open", rate=args.rate, clients=2, stop=args.stop)
    config = ScenarioConfig(
        n=args.n, pacemaker="lumiere", delta=1.0, actual_delay=0.1,
        duration=args.stop + 10.0, seed=args.seed,
        workload=workload,
    )
    result = run_scenario(config)
    metrics = result.metrics
    digests = result.kv_digests()
    print("virtual-time lane (simulator kernel, in-memory transport)")
    print("-" * 48)
    print(f"requests applied               : {metrics.requests_applied}"
          f"/{metrics.counts['requests_submitted']}")
    print(f"request p50 / p99              : "
          f"{metrics.request_latency_percentile(0.5):.3f}s / "
          f"{metrics.request_latency_percentile(0.99):.3f}s (virtual time)")
    print(f"distinct KV digests            : {len(set(digests.values()))}")
    print(f"duplicates per applied request : {result.duplicates_per_applied():.3f}")
    print()
    return (
        metrics.requests_applied == metrics.counts["requests_submitted"]
        and len(set(digests.values())) == 1
        and result.duplicates_per_applied() <= 0.02
    )


async def tcp_lane(args: argparse.Namespace) -> bool:
    """The same workload over real TCP sockets, wall-clock time."""
    workload = WorkloadConfig(
        mode="open", rate=args.rate, clients=2, stop=args.stop,
        forward_deadline=0.02, retry_interval=2.0,
    )
    config = ScenarioConfig(
        n=args.n, pacemaker="lumiere", delta=args.delta, actual_delay=0.02,
        duration=args.stop + 30.0, seed=args.seed,
        workload=workload,
    )
    placement = "inline" if args.procs is None else "process"
    processes = None if args.procs in (None, 0) else args.procs
    cluster = make_live_cluster(config, placement=placement, processes=processes)
    print(f"booting n={args.n} lumiere cluster over TCP ({placement} placement)...")
    await cluster.start()
    started = time.monotonic()
    await cluster.run(args.stop + 2.0)  # submission window + drain
    elapsed = time.monotonic() - started
    await cluster.stop()

    metrics = cluster.metrics
    latencies = sorted(metrics.request_latencies())
    digests = cluster.kv_digests()
    applied, submitted = metrics.requests_applied, metrics.counts["requests_submitted"]
    print()
    print(f"TCP lane (n={args.n}, Delta={args.delta}s, {placement} placement)")
    print("-" * 48)
    print(f"requests applied               : {applied}/{submitted}")
    print(f"throughput                     : {applied / elapsed:.1f} requests/s")
    if latencies:
        print(f"request p50 / p99              : "
              f"{latencies[len(latencies) // 2]* 1000:.1f}ms / "
              f"{latencies[min(len(latencies) - 1, round(0.99 * (len(latencies) - 1)))] * 1000:.1f}ms")
    print(f"distinct KV digests            : {len(set(digests.values()))}")
    print(f"ledgers consistent             : {cluster.ledgers_are_consistent()}")
    print(f"KV apply chains consistent     : {cluster.kv_consistent()}")
    return (
        applied == submitted
        and len(set(digests.values())) == 1
        and cluster.ledgers_are_consistent()
        and cluster.kv_consistent()
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4, help="cluster size (default 4)")
    parser.add_argument("--rate", type=float, default=25.0,
                        help="open-loop requests/sec per hosting replica")
    parser.add_argument("--stop", type=float, default=8.0,
                        help="submission window in seconds")
    parser.add_argument("--delta", type=float, default=0.2,
                        help="known delay bound Delta for the TCP lane")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--procs", type=int, default=None, metavar="N",
                        help="process placement for the TCP lane (0 = one "
                             "process per node); omit for inline")
    args = parser.parse_args()

    ok = virtual_time_lane(args)
    ok = asyncio.run(tcp_lane(args)) and ok
    print()
    if not ok:
        print("FAILED: replicas disagreed or requests were lost", file=sys.stderr)
        return 1
    print("OK: every request applied exactly once, identical state everywhere")
    return 0


if __name__ == "__main__":
    sys.exit(main())
