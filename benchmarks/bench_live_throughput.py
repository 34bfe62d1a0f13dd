#!/usr/bin/env python3
"""Live-cluster throughput: inline vs process placement vs shm transport.

Boots real live clusters at n in {4, 8, 16, 32} across three lanes —
``inline-tcp`` (every node in one Python process), ``process-tcp`` (one
forked OS process per node over localhost sockets) and ``process-shm``
(the same process placement over shared-memory rings, as
:class:`~repro.runtime.shm.ShmTransport`), all one
:class:`~repro.runner.process_cluster.LiveCluster` behind
``make_live_cluster`` — measures committed blocks per wall-clock second
and commit latency (p50/p99 over per-replica commit-minus-decision times
from the merged metrics timeline), and writes machine-readable
``BENCH_live_throughput.json`` at the repository root.

What the three lanes measure:

* ``inline-tcp`` is the single-core ceiling: n nodes' crypto, codec and
  protocol work serialise onto one GIL, so blocks/s *falls* as n grows.
* ``process-tcp`` is the multicore lane over kernel sockets.  On a
  multi-core host it overtakes inline as n grows past the point where
  per-node work saturates one core; on a single-core host it measures pure
  process overhead (context switches and socket hops for no parallelism).
* ``process-shm`` is the same multicore lane minus the kernel: frames move
  through per-pair SPSC rings in shared memory — no syscalls and no frame
  copies in steady state.  shm-vs-tcp is a *transport* comparison, so it
  is meaningful at any core count: the win is copies and syscalls saved,
  not parallelism gained.

The committed JSON records the host's ``cpu_count`` and the ring size, and
prints an explicit caveat on 1-core hosts so committed numbers are
self-describing.  Process-vs-inline speedups are reported, not gated: on
every host measured so far process placement was slower than inline
(0.2-0.9x).  The shm-speedup gate arms at **any** core count.

Correctness gates (``--check``; the script exits non-zero if any fails):

* zero safety violations: every cell's ledgers are prefix-consistent, and
  no cell surfaced teardown errors;
* identical decisions between lanes: for each n all lanes' honest (view,
  leader) decision sequences agree on their common prefix — placement and
  transport are execution details, not protocol inputs;
* at any core count: process-shm reaches at least ``--min-shm-speedup``
  (1.2 by default) times process-tcp blocks/s at n=8;
* the committed ``--output`` JSON (if present) was generated by the
  current repro version.

Usage::

    PYTHONPATH=src python benchmarks/bench_live_throughput.py          # full matrix
    PYTHONPATH=src python benchmarks/bench_live_throughput.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/bench_live_throughput.py --quick --check
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.scenario import ScenarioConfig
from repro.metrics.counters import BASE_FAULT_COUNTS
from repro.runner.live import make_live_cluster
from repro.runtime import DEFAULT_RING_BYTES
from repro.version import __version__

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_live_throughput.json"

FULL_NS = (4, 8, 16, 32)
QUICK_NS = (4, 8)
#: ``(placement, transport)`` lanes; named ``placement-transport`` on the
#: CLI and in printed labels.
LANES = (("inline", "tcp"), ("process", "tcp"), ("process", "shm"))
LANE_NAMES = tuple(f"{p}-{t}" for p, t in LANES)


def _percentile(sorted_values: list[float], q: float) -> Optional[float]:
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _commit_latencies(metrics) -> list[float]:
    """Per-commit latency: commit time minus the same view's decision time.

    A decision is the leader's QC for its view; every replica's commit of
    that view's block lands later (one more round trip plus scheduling), so
    this is the replica-observed commit latency on the shared wall-clock
    timeline — merged across node processes for process placement.
    """
    decision_times: dict[int, float] = {}
    for decision in metrics.decisions:
        decision_times.setdefault(decision.view, decision.time)
    return sorted(
        commit.time - decision_times[commit.view]
        for commit in metrics.commits
        if commit.view in decision_times
    )


async def _run_cell(
    n: int,
    placement: str,
    transport: str,
    blocks: int,
    timeout: float,
    delta: float,
    seed: int,
) -> dict:
    config = ScenarioConfig(
        n=n, pacemaker="lumiere", delta=delta, duration=timeout, seed=seed,
    )
    cluster = make_live_cluster(config, placement=placement, transport=transport)
    boot_started = time.perf_counter()
    try:
        await cluster.start()
        bootstrap_time = time.perf_counter() - boot_started
        run_started = time.perf_counter()
        commits = await cluster.run_until_commits(blocks, timeout=timeout)
        run_time = time.perf_counter() - run_started
    finally:
        await cluster.stop()
    consistent = cluster.ledgers_are_consistent()
    counts = cluster.metrics.counts
    latencies = _commit_latencies(cluster.metrics)
    decisions = [(d.view, d.leader) for d in cluster.metrics.honest_decisions()]
    return {
        "n": n,
        "placement": placement,
        "transport": transport,
        "lane": f"{placement}-{transport}",
        "target_blocks": blocks,
        "committed_blocks": commits,
        "run_time": round(run_time, 4),
        "bootstrap_time": round(bootstrap_time, 4),
        "blocks_per_sec": round(commits / run_time, 2) if run_time > 0 else 0.0,
        "commit_latency_p50": round(_percentile(latencies, 0.50), 5) if latencies else None,
        "commit_latency_p99": round(_percentile(latencies, 0.99), 5) if latencies else None,
        "commit_samples": len(latencies),
        "ledgers_consistent": consistent,
        "frames_dropped": counts["frames_dropped"],
        "teardown_errors": list(cluster.teardown_errors),
        "fault_counts": {name: counts[name] for name in (*BASE_FAULT_COUNTS, "frames_dropped")},
        "decisions": decisions,
    }


def run_matrix(args: argparse.Namespace) -> dict:
    ns = tuple(args.ns) if args.ns else (QUICK_NS if args.quick else FULL_NS)
    # Full-tier cells target enough blocks that a cell runs whole seconds:
    # sub-second cells (the old 30-block target) jitter +-15% on a shared
    # host, which swamps the ~1.2-1.4x shm-vs-tcp signal the gate measures.
    blocks = args.blocks or (8 if args.quick else 120)
    timeout = args.timeout or (30.0 if args.quick else 90.0)
    lanes = [lane for lane in LANES if f"{lane[0]}-{lane[1]}" in args.lanes]
    cells = []
    for n in ns:
        for placement, transport in lanes:
            label = f"n={n:<3} {placement}-{transport:<4}"
            print(f"[bench] {label}: targeting {blocks} blocks ...", flush=True)
            cell = asyncio.run(
                _run_cell(n, placement, transport, blocks, timeout, args.delta, args.seed)
            )
            cells.append(cell)
            print(
                f"[bench] {label}: {cell['committed_blocks']} blocks in "
                f"{cell['run_time']:.2f}s = {cell['blocks_per_sec']:.1f} blocks/s "
                f"(p50 {cell['commit_latency_p50']}, p99 {cell['commit_latency_p99']}, "
                f"consistent={cell['ledgers_consistent']})",
                flush=True,
            )
    placement_speedups = {}
    shm_speedups = {}
    for n in ns:
        by_lane = {c["lane"]: c for c in cells if c["n"] == n}
        inline = by_lane.get("inline-tcp")
        tcp = by_lane.get("process-tcp")
        shm = by_lane.get("process-shm")
        if inline and tcp and inline["blocks_per_sec"]:
            placement_speedups[f"n{n}"] = round(
                tcp["blocks_per_sec"] / inline["blocks_per_sec"], 3
            )
        if tcp and shm and tcp["blocks_per_sec"]:
            shm_speedups[f"n{n}"] = round(shm["blocks_per_sec"] / tcp["blocks_per_sec"], 3)
    cpu_count = os.cpu_count()
    if (cpu_count or 1) < 2:
        print(
            "[bench] CAVEAT: this host has 1 CPU core — process lanes measure "
            "placement overhead, not parallelism; inline-vs-process speedups "
            "are not meaningful here.  shm-vs-tcp remains meaningful: it is a "
            "syscall/copy win, not a parallelism win.",
            flush=True,
        )
    return {
        "schema": "repro-live-throughput/2",
        "generated_by": "benchmarks/bench_live_throughput.py",
        "version": __version__,
        "mode": "quick" if args.quick else "full",
        "host": {
            "cpu_count": cpu_count,
            "platform": platform.platform(),
            "python": platform.python_version(),
            # Transport knobs the numbers were taken under — committed
            # results must be self-describing.
            "ring_bytes": DEFAULT_RING_BYTES,
            "lanes": [f"{p}-{t}" for p, t in lanes],
        },
        "parameters": {
            "ns": list(ns),
            "lanes": [f"{p}-{t}" for p, t in lanes],
            "target_blocks": blocks,
            "timeout": timeout,
            "delta": args.delta,
            "seed": args.seed,
        },
        "cells": cells,
        "placement_speedups": placement_speedups,
        "shm_speedups": shm_speedups,
    }


def check(report: dict, args: argparse.Namespace) -> list[str]:
    failures = []
    for cell in report["cells"]:
        name = f"n={cell['n']} {cell['lane']}"
        if not cell["ledgers_consistent"]:
            failures.append(f"{name}: SAFETY VIOLATION (ledgers diverged)")
        if cell["teardown_errors"]:
            failures.append(f"{name}: teardown errors {cell['teardown_errors']}")
        if cell["committed_blocks"] < cell["target_blocks"]:
            failures.append(
                f"{name}: only {cell['committed_blocks']}/{cell['target_blocks']} "
                f"blocks within the budget"
            )
    # Identical decisions between lanes per n: every pair of lanes must
    # agree on the common prefix of honest (view, leader) decisions —
    # placement and transport are execution details, not protocol inputs.
    by_n: dict[int, dict] = {}
    for cell in report["cells"]:
        by_n.setdefault(cell["n"], {})[cell["lane"]] = cell
    for n, lanes in sorted(by_n.items()):
        named = sorted(lanes)
        for i, a in enumerate(named):
            for b in named[i + 1:]:
                da = [tuple(d) for d in lanes[a]["decisions"]]
                db = [tuple(d) for d in lanes[b]["decisions"]]
                shared = min(len(da), len(db))
                if shared == 0 or da[:shared] != db[:shared]:
                    failures.append(
                        f"n={n}: lanes {a} and {b} decided "
                        f"differently (common prefix {shared})"
                    )
    # The shm gate arms at ANY core count: rings-vs-sockets is a
    # syscall/copy comparison between identical process placements, so one
    # core is as honest a measurement host as sixty-four.
    shm_speedup = report["shm_speedups"].get("n8")
    if shm_speedup is not None and shm_speedup < args.min_shm_speedup:
        failures.append(
            f"shm transport reached only {shm_speedup:.2f}x tcp at n=8 "
            f"(gate {args.min_shm_speedup}x)"
        )
    return failures


def check_output_version(output_path: Path) -> list[str]:
    """Assert the committed ``--output`` JSON matches the current version."""
    if not output_path.exists():
        return []
    committed = json.loads(output_path.read_text())
    committed_version = committed.get("version")
    if committed_version is not None and committed_version != __version__:
        return [
            f"committed {output_path.name} was generated by version "
            f"{committed_version} but the repo is at {__version__}; re-run the "
            f"benchmark and commit the refreshed JSON"
        ]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke tier: n in {4, 8}, fewer blocks")
    parser.add_argument("--lanes", nargs="+", default=list(LANE_NAMES),
                        choices=LANE_NAMES,
                        help="placement-transport lanes to measure (default all)")
    parser.add_argument("--ns", type=int, nargs="+", default=None,
                        help="cluster sizes to measure (default tier matrix)")
    parser.add_argument("--blocks", type=int, default=None,
                        help="commit target per cell (default 120 full / 8 quick)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock budget per cell (default 90 full / 30 quick)")
    parser.add_argument("--delta", type=float, default=0.2,
                        help="known delay bound Delta in seconds (default 0.2)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})")
    parser.add_argument("--check", action="store_true",
                        help="apply the correctness gates and exit non-zero on failure")
    parser.add_argument("--min-shm-speedup", type=float, default=1.2,
                        help="shm-vs-tcp blocks/s gate at n=8, armed at any "
                             "core count (default 1.2)")
    parser.add_argument("--check-output-version", action="store_true",
                        help="only check that the committed --output JSON was "
                             "generated by this version (no cells run), then exit")
    args = parser.parse_args()

    if args.check_output_version:
        failures = check_output_version(args.output)
        for failure in failures:
            print(f"[bench] FAIL: {failure}", file=sys.stderr)
        if not failures:
            print(f"[bench] OK: {args.output.name} matches version {__version__}")
        return 1 if failures else 0

    failures = []
    report = run_matrix(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench] wrote {args.output}")

    if args.check:
        failures += check(report, args)
    if failures:
        for failure in failures:
            print(f"[bench] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[bench] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
