#!/usr/bin/env python3
"""Client-request throughput: offered load x cluster size x placement.

Two tiers, one report (``BENCH_throughput.json`` at the repository root):

* **Virtual-time gate.**  For each gated n, one client-workload scenario
  runs on the virtual-time lane (``run_scenario``: the simulator kernel
  over the in-memory transport).  Every request must be applied, exactly
  once, and every replica must end on one replicated-KV digest — in a lane
  where nothing but the protocol can be blamed.

* **Wall-clock matrix** (real TCP).  Boots live clusters over
  n x offered-rate x placement (``inline`` = all nodes on one process's
  event loop; ``process`` = one OS process per node), drives an open-loop
  workload co-located on every replica, and measures applied requests per
  wall-clock second plus request and commit latency percentiles
  (p50/p99).  Request latency is end-to-end: client submission at the
  gateway to state-machine application on the submitting replica.

* **Run length** (process + shm, wall clock).  One n=4 cluster in one
  worker process over shared-memory rings at 2000 req/s for 25 s (8 s with
  ``--quick``): committed blocks per second, request p50 and the worker's
  resident set over the first and the last fifth of the run.  A view must
  cost and keep the same at second 25 as at second 5.  The row also counts
  what a view costs: worker CPU per committed block, frame decodes per
  frame sent — the four replicas share one process, so a broadcast's frame
  reaches three of them and is decoded once — and the worker's ring pushes
  and doorbells per committed block (one push per broadcast, one doorbell
  per burst).

Request latency is also reported in the unit the protocol works in:
``request_latency_p50_views`` is request p50 times blocks per second of the
same cell or slice — how many views a request spends between submission and
application.  Routing plus the three-chain need under five; what is above
that is waiting.  Every row carries the gateway's flush counts by trigger
(``view`` / ``size`` / ``deadline``) and the ``CommandForward`` frames sent.

Correctness gates (``--check``; non-zero exit if any fails):

* every virtual-time cell applies every submitted request and its
  replicas agree on one KV digest;
* zero safety violations in the matrix: ledgers prefix-consistent, KV
  apply chains prefix-consistent, no teardown errors;
* every matrix cell completes at least ``--min-completion`` of submitted
  requests within its window, and cells that complete everything agree on
  the exact KV state digest across replicas (trailing synthetic-filler
  blocks never touch the store, so ragged shutdown lengths don't excuse
  digest divergence);
* no cell (virtual time, matrix, run length) commits more than 0.02 duplicates
  per applied request on its worst replica — the commit-frontier retry
  orders a command once;
* the run-length row's late/early blocks-per-second ratio is at least
  0.85 and its worker grew by at most 100 B resident per block per replica
  between the two slices (gross: its histories leave on every status
  round, so nothing is allowed per request);
* request p50 on both run-length slices is at most 7 views;
* the run-length row decodes at most 0.8 frames per frame sent (a count:
  one decode per ring push at n=4 in one worker, about 0.5; 1.0 means every
  co-located recipient decoded its own copy);
* the committed ``--output`` JSON (if present) was generated by the
  current repro version (``--check-output-version`` runs only this).

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py          # full matrix
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick --check
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick --check --run-length-only
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import platform
import sys
import time
from bisect import bisect_left
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.metrics.counters import FLUSH_COUNTS
from repro.runner.live import make_live_cluster
from repro.runner.workload import WorkloadConfig
from repro.version import __version__

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_throughput.json"

FULL_NS = (4, 8)
QUICK_NS = (4,)
FULL_RATES = (50.0, 200.0)
QUICK_RATES = (50.0,)
PLACEMENTS = ("inline", "process")
VIRTUAL_NS_FULL = (4, 8)
VIRTUAL_NS_QUICK = (4,)
#: Drain margin: the submission window closes this many seconds before the
#: measurement window so retries can complete every outstanding request.
DRAIN_SECONDS = 2.0
#: Committed duplicates the worst replica may skip per applied request: the
#: commit-frontier retry produces none, so more means commands are being
#: ordered twice again.
MAX_DUPLICATES_PER_APPLIED = 0.02
#: Request p50 in views on the fault-free run-length slices: a view to leave
#: the gateway, up to two to the aimed-at proposal, the three-chain, the apply.
#: Count-or-timer batching sat at 9.6 and 10.2.
MAX_REQUEST_P50_VIEWS = 7.0


def _percentile(sorted_values: list[float], q: float) -> Optional[float]:
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _in_views(latency: Optional[float], blocks_per_sec: float) -> Optional[float]:
    """``latency`` seconds as a number of views at ``blocks_per_sec``."""
    if latency is None or not blocks_per_sec:
        return None
    return round(latency * blocks_per_sec, 2)


def _gateway_counts(counts: dict) -> dict:
    """Which trigger flushed the gateways, and the forwards they sent."""
    return {
        "flushes": {trigger: counts[name] for trigger, name in FLUSH_COUNTS.items()},
        "forwards_sent": counts["forwards_sent"],
    }


def _commit_latencies(metrics) -> list[float]:
    """Commit time minus the same view's decision time, per commit record."""
    decision_times: dict[int, float] = {}
    for decision in metrics.decisions:
        decision_times.setdefault(decision.view, decision.time)
    return sorted(
        commit.time - decision_times[commit.view]
        for commit in metrics.commits
        if commit.view in decision_times
    )


def _matrix_workload(rate: float, window: float) -> WorkloadConfig:
    return WorkloadConfig(
        mode="open",
        rate=rate,
        clients=2,
        stop=max(1.0, window - DRAIN_SECONDS),
        forward_deadline=0.02,
        retry_interval=2.0,
    )


# ----------------------------------------------------------------------
# Virtual-time gate: every request applied once, one KV digest
# ----------------------------------------------------------------------
def run_virtual_time_cell(n: int, seed: int) -> dict:
    workload = WorkloadConfig(mode="open", rate=10.0, clients=2, stop=20.0)
    config = ScenarioConfig(
        n=n, pacemaker="lumiere", delta=1.0, actual_delay=0.1,
        duration=30.0, seed=seed, workload=workload,
    )
    result = run_scenario(config)
    metrics = result.metrics
    counts = metrics.counts
    return {
        "n": n,
        "seed": seed,
        "ledgers_consistent": result.ledgers_are_consistent(),
        "kv_digests_agree": len(set(result.kv_digests().values())) == 1,
        "requests_applied": metrics.requests_applied,
        "requests_submitted": counts["requests_submitted"],
        "duplicates_per_applied": round(result.duplicates_per_applied(), 5),
        # Virtual time (Delta = 1 s): they repeat to the digit between commits.
        **{
            f"request_latency_p{q}": round(metrics.request_latency_percentile(q / 100), 5)
            for q in (50, 90, 99)
        },
        **_gateway_counts(counts),
    }


# ----------------------------------------------------------------------
# Wall-clock matrix
# ----------------------------------------------------------------------
async def _run_matrix_cell(
    n: int, placement: str, rate: float, window: float, delta: float, seed: int
) -> dict:
    workload = _matrix_workload(rate, window)
    config = ScenarioConfig(
        n=n, pacemaker="lumiere", delta=delta, actual_delay=0.02,
        duration=window + 30.0, seed=seed, workload=workload,
    )
    cluster = make_live_cluster(config, placement=placement)
    boot_started = time.perf_counter()
    try:
        await cluster.start()
        bootstrap_time = time.perf_counter() - boot_started
        run_started = time.perf_counter()
        await cluster.run(window)
        run_time = time.perf_counter() - run_started
    finally:
        await cluster.stop()
    metrics = cluster.metrics
    counts = metrics.counts
    request_latencies = sorted(metrics.request_latencies())
    commit_latencies = _commit_latencies(metrics)
    result = cluster.result()
    digests = result.kv_digests()
    submitted = counts["requests_submitted"]
    applied = metrics.requests_applied
    request_p50 = _percentile(request_latencies, 0.50)
    blocks = cluster.min_committed()
    return {
        "n": n,
        "placement": placement,
        "rate_per_host": rate,
        "offered_total": rate * n,
        "window": window,
        "run_time": round(run_time, 4),
        "bootstrap_time": round(bootstrap_time, 4),
        "requests_submitted": submitted,
        "requests_rejected": counts["requests_rejected"],
        "requests_applied": applied,
        "requests_redispatched": counts["requests_redispatched"],
        **_gateway_counts(counts),
        "duplicates_per_applied": round(result.duplicates_per_applied(), 5),
        "completion": round(applied / submitted, 5) if submitted else None,
        "requests_per_sec": round(applied / run_time, 2) if run_time > 0 else 0.0,
        "request_latency_p50": round(request_p50, 5) if request_latencies else None,
        "request_latency_p50_views": _in_views(request_p50, blocks / run_time),
        "request_latency_p99": round(_percentile(request_latencies, 0.99), 5)
        if request_latencies else None,
        "commit_latency_p50": round(_percentile(commit_latencies, 0.50), 5)
        if commit_latencies else None,
        "commit_latency_p99": round(_percentile(commit_latencies, 0.99), 5)
        if commit_latencies else None,
        "committed_blocks": blocks,
        "ledgers_consistent": cluster.ledgers_are_consistent(),
        "kv_chains_consistent": cluster.kv_consistent(),
        "kv_digests_agree": len(set(digests.values())) == 1 if digests else False,
        "frames_dropped": counts["frames_dropped"],
        "teardown_errors": list(cluster.teardown_errors),
    }


# ----------------------------------------------------------------------
# Run length: the same cluster early and late in one run
# ----------------------------------------------------------------------
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
#: The two run-length gates: blocks per second over the last fifth of the run
#: against the first fifth's, and resident bytes the worker may grow by per
#: block per replica in between, gross.  A worker ships its metrics rows,
#: ledger ids and KV chain links every status round and keeps none, so the
#: row reads 10-14 B in 8 s quick runs at 750-850 blocks/s: about 0.2 MB
#: that does not grow with the run, so a runner a third as fast would read
#: three times as much.  It read 336 B gross while the worker kept them.
MIN_LATE_OVER_EARLY = 0.85
MAX_BYTES_PER_BLOCK = 100
#: Frame decodes per frame sent the row may show: co-located replicas share
#: a broadcast's decode, so one worker holding all of n=4 reads 0.71.
MAX_DECODES_PER_FRAME = 0.8
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _worker_usage() -> tuple[int, float]:
    """Resident bytes and CPU seconds (user + system) of the live worker
    processes, from ``/proc``."""
    rss, cpu = 0, 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/statm", "rb") as handle:
                rss += int(handle.read().split()[1]) * _PAGE_BYTES
            with open(f"/proc/{child.pid}/stat", "rb") as handle:
                # Past the parenthesised command name: utime and stime are
                # the 14th and 15th fields of the line.
                fields = handle.read().rsplit(b")", 1)[1].split()
                cpu += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        except (OSError, IndexError, ValueError):
            continue  # exited between listing and reading
    return rss, cpu


def _slice_numbers(metrics, per_pid_commits: list[list[float]], lo: float, hi: float) -> dict:
    """Blocks every replica committed in ``[lo, hi)`` and the request p50 there."""
    latencies = sorted(
        metrics.request_latencies(after=lo)[: metrics.requests_applied_between(lo, hi)]
    )
    blocks = min(bisect_left(times, hi) - bisect_left(times, lo) for times in per_pid_commits)
    request_p50 = _percentile(latencies, 0.50)
    return {
        "blocks": blocks,
        "blocks_per_sec": round(blocks / (hi - lo), 1),
        "request_latency_p50": round(request_p50, 5) if latencies else None,
        "request_latency_p50_views": _in_views(request_p50, blocks / (hi - lo)),
    }


async def _run_length_cell(window: float, delta: float, seed: int) -> dict:
    n = 4
    workload = WorkloadConfig(
        mode="open", rate=500.0, clients=4, forward_batch=8, forward_deadline=0.02,
        retry_interval=2.0, stop=window,
    )
    config = ScenarioConfig(
        n=n, pacemaker="lumiere", delta=delta, actual_delay=0.02,
        duration=window + 30.0, seed=seed, workload=workload,
    )
    cluster = make_live_cluster(config, placement="process", processes=1, transport="shm")
    # (cluster-clock seconds, worker RSS, worker CPU seconds)
    samples: list[tuple[float, int, float]] = []

    async def sample_usage() -> None:
        while True:
            samples.append((cluster.clock.now, *_worker_usage()))
            await asyncio.sleep(0.1)

    try:
        await cluster.start()
        sampler = asyncio.create_task(sample_usage())
        try:
            await cluster.run(window + 1.0)
        finally:
            sampler.cancel()
    finally:
        await cluster.stop()
    metrics = cluster.metrics
    counts = metrics.counts
    entered = metrics.events("enter_view")
    started = entered[0].time
    per_pid: dict[int, list[float]] = {event.pid: [] for event in entered}
    for commit in metrics.commits:
        per_pid[commit.pid].append(commit.time)
    commits = list(per_pid.values())
    fifth = window / 5.0
    early = _slice_numbers(metrics, commits, started, started + fifth)
    late = _slice_numbers(metrics, commits, started + window - fifth, started + window)

    def rss_at(when: float) -> int:
        return max((rss for at, rss, _ in samples if at <= when), default=0)

    def cpu_at(when: float) -> float:
        return max((cpu for at, _, cpu in samples if at <= when), default=0.0)

    early["worker_rss_mb"] = round(rss_at(started + fifth) / 1e6, 1)
    late["worker_rss_mb"] = round(rss_at(started + window) / 1e6, 1)
    whole = _slice_numbers(metrics, commits, started, started + window)["blocks"]
    between = _slice_numbers(metrics, commits, started + fifth, started + window)["blocks"]
    requests = metrics.requests_applied_between(started + fifth, started + window)
    grown = rss_at(started + window) - rss_at(started + fifth)
    committed = cluster.result().committed_blocks()
    return {
        "n": n,
        "lane": "process+shm, one worker",
        "offered_total": workload.rate * n,
        "window": window,
        "early": early,
        "late": late,
        "late_over_early_blocks_per_sec": round(
            late["blocks_per_sec"] / early["blocks_per_sec"], 3
        ) if early["blocks_per_sec"] else None,
        "blocks_between_slices": between,
        "requests_between_slices": requests,
        "rss_bytes_per_block_per_replica": round(grown / (between * n), 1) if between else None,
        "worker_cpu_ms_per_block": round(
            1e3 * (cpu_at(started + window) - cpu_at(started)) / whole, 3
        ) if whole else None,
        "frames_sent": metrics.total_honest_messages,
        "frames_decoded": counts["frames_decoded"],
        "decodes_per_frame": round(
            counts["frames_decoded"] / metrics.total_honest_messages, 3
        ) if metrics.total_honest_messages else None,
        # Frames copied into the worker's rings, and pushes that woke it, per
        # block committed over the whole run (one worker: one push per
        # broadcast, one doorbell per burst).
        "shm_pushes_per_block": round(counts["shm_pushes"] / committed, 2) if committed else None,
        "shm_doorbells_per_block": round(
            counts["shm_doorbells"] / committed, 2
        ) if committed else None,
        "requests_submitted": counts["requests_submitted"],
        "requests_applied": metrics.requests_applied,
        "requests_redispatched": counts["requests_redispatched"],
        **_gateway_counts(counts),
        "duplicates_per_applied": round(cluster.result().duplicates_per_applied(), 5),
        "ledgers_consistent": cluster.ledgers_are_consistent(),
        "teardown_errors": [e for e in cluster.teardown_errors if "ring full" not in e],
    }


def run_report(args: argparse.Namespace) -> dict:
    virtual_ns = VIRTUAL_NS_QUICK if args.quick else VIRTUAL_NS_FULL
    ns = QUICK_NS if args.quick else FULL_NS
    rates = QUICK_RATES if args.quick else FULL_RATES
    window = args.window or (6.0 if args.quick else 10.0)
    run_length_window = 8.0 if args.quick else 25.0

    print(f"[bench] run length: n=4 process+shm, {run_length_window:.0f}s at 2000 req/s ...",
          flush=True)
    run_length = asyncio.run(_run_length_cell(run_length_window, args.delta, args.seed))
    print(
        f"[bench] run length: blocks/s {run_length['early']['blocks_per_sec']} -> "
        f"{run_length['late']['blocks_per_sec']}, req p50 "
        f"{run_length['early']['request_latency_p50']} -> "
        f"{run_length['late']['request_latency_p50']} "
        f"({run_length['early']['request_latency_p50_views']} -> "
        f"{run_length['late']['request_latency_p50_views']} views), worker RSS "
        f"{run_length['early']['worker_rss_mb']} -> {run_length['late']['worker_rss_mb']} MB "
        f"({run_length['rss_bytes_per_block_per_replica']} B/block/replica), "
        f"worker CPU {run_length['worker_cpu_ms_per_block']} ms/block, "
        f"{run_length['decodes_per_frame']} decodes/frame, "
        f"{run_length['shm_pushes_per_block']} ring pushes and "
        f"{run_length['shm_doorbells_per_block']} doorbells per block",
        flush=True,
    )
    virtual_time, cells = [], []
    if args.run_length_only:
        virtual_ns = ns = ()
    for n in virtual_ns:
        cell = run_virtual_time_cell(n, args.seed)
        virtual_time.append(cell)
        print(
            f"[bench] virtual time n={n}: kv_digests_agree={cell['kv_digests_agree']} "
            f"applied {cell['requests_applied']}/{cell['requests_submitted']} "
            f"duplicates/applied {cell['duplicates_per_applied']}, req p50/p90/p99 "
            f"{cell['request_latency_p50']}/{cell['request_latency_p90']}/"
            f"{cell['request_latency_p99']}, {cell['forwards_sent']} forwards",
            flush=True,
        )

    for n in ns:
        for rate in rates:
            for placement in args.placements:
                label = f"n={n:<2} rate={rate:<5g} {placement}"
                print(f"[bench] {label}: {window:.0f}s window ...", flush=True)
                cell = asyncio.run(
                    _run_matrix_cell(n, placement, rate, window, args.delta, args.seed)
                )
                cells.append(cell)
                print(
                    f"[bench] {label}: {cell['requests_per_sec']} req/s "
                    f"({cell['requests_applied']}/{cell['requests_submitted']} applied, "
                    f"req p50 {cell['request_latency_p50']} "
                    f"({cell['request_latency_p50_views']} views) "
                    f"p99 {cell['request_latency_p99']}, "
                    f"commit p50 {cell['commit_latency_p50']}, "
                    f"kv={cell['kv_digests_agree']})",
                    flush=True,
                )
    return {
        "schema": "repro-throughput/1",
        "generated_by": "benchmarks/bench_throughput.py",
        "version": __version__,
        "mode": "quick" if args.quick else "full",
        "run_length_only": args.run_length_only,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "parameters": {
            "virtual_time_ns": list(virtual_ns),
            "ns": list(ns),
            "rates": list(rates),
            "placements": list(args.placements),
            "window": window,
            "delta": args.delta,
            "seed": args.seed,
        },
        "virtual_time": virtual_time,
        "cells": cells,
        "run_length": run_length,
    }


def check(report: dict, args: argparse.Namespace) -> list[str]:
    failures = []
    for cell in report["virtual_time"]:
        name = f"virtual time n={cell['n']}"
        if not cell["ledgers_consistent"]:
            failures.append(f"{name}: SAFETY VIOLATION (ledgers diverged)")
        if not cell["kv_digests_agree"]:
            failures.append(f"{name}: replicas disagree on KV state")
        if cell["requests_applied"] != cell["requests_submitted"]:
            failures.append(
                f"{name}: only {cell['requests_applied']}/"
                f"{cell['requests_submitted']} requests applied"
            )
    for cell in report["cells"]:
        name = f"n={cell['n']} rate={cell['rate_per_host']:g} {cell['placement']}"
        if not cell["ledgers_consistent"]:
            failures.append(f"{name}: SAFETY VIOLATION (ledgers diverged)")
        if not cell["kv_chains_consistent"]:
            failures.append(f"{name}: KV apply chains diverged")
        if cell["teardown_errors"]:
            failures.append(f"{name}: teardown errors {cell['teardown_errors']}")
        completion = cell["completion"]
        if completion is None or completion < args.min_completion:
            failures.append(
                f"{name}: completed {completion} of submitted requests "
                f"(gate {args.min_completion})"
            )
        if completion == 1.0 and not cell["kv_digests_agree"]:
            failures.append(
                f"{name}: all requests applied but replica KV digests differ"
            )
    row = report["run_length"]
    for name, cell in (
        [(f"virtual time n={c['n']}", c) for c in report["virtual_time"]]
        + [(f"n={c['n']} rate={c['rate_per_host']:g} {c['placement']}", c)
           for c in report["cells"]]
        + [("run length", row)]
    ):
        if cell["duplicates_per_applied"] > MAX_DUPLICATES_PER_APPLIED:
            failures.append(
                f"{name}: {cell['duplicates_per_applied']} committed duplicates per "
                f"applied request (gate {MAX_DUPLICATES_PER_APPLIED})"
            )
    if not row["ledgers_consistent"] or row["teardown_errors"]:
        failures.append(f"run length: unsafe or unclean run ({row['teardown_errors']})")
    ratio = row["late_over_early_blocks_per_sec"]
    if ratio is None or ratio < MIN_LATE_OVER_EARLY:
        failures.append(
            f"run length: late/early blocks per second {ratio} (gate {MIN_LATE_OVER_EARLY}): "
            "a view got dearer as the run got longer"
        )
    for name in ("early", "late"):
        views = row[name]["request_latency_p50_views"]
        if views is None or views > MAX_REQUEST_P50_VIEWS:
            failures.append(
                f"run length: request p50 is {views} views on the {name} slice "
                f"(gate {MAX_REQUEST_P50_VIEWS}): requests wait for something "
                "other than a proposal"
            )
    decodes = row["decodes_per_frame"]
    if decodes is None or decodes > MAX_DECODES_PER_FRAME:
        failures.append(
            f"run length: {decodes} frame decodes per frame sent (gate "
            f"{MAX_DECODES_PER_FRAME}): co-located replicas each decode their "
            "own copy of a broadcast"
        )
    growth = row["rss_bytes_per_block_per_replica"]
    if growth is None or growth > MAX_BYTES_PER_BLOCK:
        failures.append(
            f"run length: worker grew {growth} B per block per replica "
            f"(gate {MAX_BYTES_PER_BLOCK})"
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
                        help="CI smoke tier: n=4, one rate, shorter window")
    parser.add_argument("--placements", nargs="+", default=list(PLACEMENTS),
                        choices=PLACEMENTS, help="placements to measure (default both)")
    parser.add_argument("--window", type=float, default=None,
                        help="measurement window per cell in seconds "
                             "(default 10 full / 6 quick)")
    parser.add_argument("--delta", type=float, default=0.2,
                        help="known delay bound Delta in seconds (default 0.2)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})")
    parser.add_argument("--check", action="store_true",
                        help="apply the correctness gates and exit non-zero on failure")
    parser.add_argument("--min-completion", type=float, default=1.0,
                        help="required applied/submitted fraction per cell (default 1.0)")
    parser.add_argument("--run-length-only", action="store_true",
                        help="run and gate only the run-length row")
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
    report = run_report(args)
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
