"""The four workloads, and the one-workload-per-interpreter runner.

``run.py`` starts this file once per workload (and a few more times with
``--setup-only``), in a fresh interpreter, and reads one JSON object off the
last line of its output.  The layers are exercised only as a caller would:
``make_live_cluster`` / ``run_scenario`` build and run the system, and every
number is read off public results — the metrics collector, ledgers, KV
digests, crypto-backend counters — or timed from outside.

Two lanes, one rule for clocks.  On the **live** workloads client-facing
quantities (request rate, request latency, decision gaps) are wall-clock.
On the **sim** workloads they are *virtual* time — what a simulated client
feels — and therefore repeat exactly for a seed; only the cost metrics (CPU
per block, memory, set-up) are real there.  Latencies and gaps are reported
in units of the workload's Delta so both lanes share one unit.

Two kinds of number.  The **end-to-end** metrics (``spec.END_TO_END``) are
the ones a later change is held to; they are chosen not to scale with the
host's CPU speed, which on the shared sizing host drifts by a quarter over
minutes.  The CPU-bound ones — rates, CPU per block, the live lanes'
decision gaps — are the ``cluster.*`` layer metrics: measured in the same
untraced window, printed by every run, reported without a bound.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import resource
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

_T_INTERPRETER = time.time()

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.experiments.scenario import (  # noqa: E402
    ScenarioConfig, build_scenario, run_scenario,
)
from repro.runner.live import make_live_cluster  # noqa: E402
from repro.runner.workload import WorkloadConfig  # noqa: E402
from repro.statemachine.kvstore import apply_chains_consistent  # noqa: E402

import spec  # noqa: E402
from _stats import failed_ratio, median, percentile  # noqa: E402

#: Live lanes: seconds run before the measured window opens (caches fill,
#: connections settle, the closed loop finds its batching regime) ...
WARMUP_SECONDS = 3.0
#: ... and after it closes, with submission stopped, so retries can finish
#: every outstanding request before the failure count is taken: one retry
#: interval of the live workloads (2 s) and a second to commit what it
#: re-offered.
DRAIN_SECONDS = 3.0
#: Live lanes: rates and worst gaps are taken per slice and the median slice
#: is reported, so one scheduling hiccup of the host moves one slice, not
#: the result.
SLICE_SECONDS = 1.0

OUT_DIR = Path(__file__).resolve().parent / "out"


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named workload: how to build its config and where it runs."""

    name: str
    #: ``"live"`` (wall clock, ``make_live_cluster``) or ``"sim"``
    #: (virtual clock, ``run_scenario``).
    lane: str
    #: ``(seed, seconds) -> ScenarioConfig``.
    config: Callable[[int, float], ScenarioConfig]
    #: ``make_live_cluster`` keyword arguments (live lane only).
    cluster: dict[str, Any] = field(default_factory=dict)
    #: Whether the in-process wrappers of ``_trace.py`` can see the layers
    #: (false when they run in worker processes).
    traceable: bool = True


def _key_space(seed: int) -> int:
    """Keys per client stream, from the seed: the commands (keys, and so the
    KV contents and state digest) differ per seed while the request count
    and the timing of the run do not depend on it."""
    return 48 + seed % 32


def _kv_sat_inline(seed: int, seconds: float) -> ScenarioConfig:
    # clients=128 / forward_batch=32 is the shallowest closed loop found to
    # be unimodal: at clients=32 / forward_batch=8 identical runs split into
    # two batching phases 1.6x apart (see README, "Sizing findings").
    workload = WorkloadConfig(
        mode="closed", clients=128, forward_batch=32, forward_deadline=0.02,
        retry_interval=2.0, stop=WARMUP_SECONDS + seconds,
        key_space=_key_space(seed), max_pending=1 << 20, max_mempool=1 << 20,
    )
    return ScenarioConfig(
        n=4, pacemaker="lumiere", delta=0.2, actual_delay=0.02,
        duration=WARMUP_SECONDS + seconds + DRAIN_SECONDS + 10.0,
        seed=seed, record_trace=False, workload=workload,
    )


def _kv_rate_proc_shm(seed: int, seconds: float) -> ScenarioConfig:
    workload = WorkloadConfig(
        mode="open", rate=500.0, clients=4, forward_batch=8,
        forward_deadline=0.02, retry_interval=2.0,
        stop=WARMUP_SECONDS + seconds, key_space=_key_space(seed),
    )
    return ScenarioConfig(
        n=4, pacemaker="lumiere", delta=0.2, actual_delay=0.02,
        # Workers outlive this by their orphan-guard margin only.
        duration=WARMUP_SECONDS + seconds + DRAIN_SECONDS + 10.0,
        seed=seed, record_trace=False, workload=workload,
    )


def _sim_viewsync_n64(seed: int, seconds: float) -> ScenarioConfig:
    # One unit of work; the runner repeats it for as long as --seconds
    # allows.  A fixed delay keeps the simulator on its batched delivery
    # path, and the protocol consumes no randomness under it, so the seed
    # picks the one input there is: the network's delay, within 1.6 % of
    # 0.1 Delta.  Decisions, the worst gap and the messages in it do not move
    # over that range (408 / 144.4 Delta / 788 at every value tried); block
    # latencies scale with the delay.
    return ScenarioConfig(
        n=64, pacemaker="lumiere", delta=1.0,
        actual_delay=0.1 + 0.0002 * (seed % 16 - 8), gst=20.0,
        duration=2500.0, seed=seed, scenario="silent_spread",
        crypto_backend="hashing", record_trace=False,
    )


def _sim_kv_fault_n16(seed: int, seconds: float) -> ScenarioConfig:
    # Submission stops at 400 of 600 Delta: request p90 through the fault is
    # ~135 Delta, and the tail must drain for "no request fails" to hold.
    # The seed also sets the generators' phase against the view grid (10 to
    # 72 milli-Delta): consensus does not depend on payload, so decisions and
    # gaps stay put and request latencies move by about 1 %.  (The network
    # delay is left alone here: 5 % of it moves request p50 by 25 % through
    # the retry timer's phase.)
    phase = 0.01 + 0.002 * (seed % 32)
    workload = WorkloadConfig(
        mode="open", rate=2.0, clients=2, start=phase, stop=400.0 + phase,
        retry_interval=5.0, key_space=_key_space(seed),
    )
    return ScenarioConfig(
        n=16, pacemaker="lumiere", delta=1.0, actual_delay=0.1, gst=20.0,
        duration=600.0, seed=seed, scenario="silent_spread",
        scenario_params={"faults": 1}, record_trace=False, workload=workload,
    )


WORKLOADS: dict[str, Workload] = {
    "kv_sat_inline": Workload(
        "kv_sat_inline", "live", _kv_sat_inline,
        cluster={"placement": "inline", "codec": "binary"},
    ),
    # One worker, not the two the issue sized: `SpscRing` publishes its
    # indices with `Struct.pack_into`, which zero-fills the eight bytes
    # before writing them, so a reader on another core can see index 0.
    # With processes=2, 3 of 24 runs desynced a ring that way (up to
    # 234 867 decode errors) — see README, "Findings".  With every ring's
    # two ends on one event loop the transient is never observed, and the
    # rings, doorbells, control pipe, bootstrap and metrics merge still do
    # all the work.
    "kv_rate_proc_shm": Workload(
        "kv_rate_proc_shm", "live", _kv_rate_proc_shm,
        cluster={"placement": "process", "processes": 1, "transport": "shm",
                 "codec": "binary"},
        traceable=False,
    ),
    "sim_viewsync_n64": Workload("sim_viewsync_n64", "sim", _sim_viewsync_n64),
    "sim_kv_fault_n16": Workload("sim_kv_fault_n16", "sim", _sim_kv_fault_n16),
}


# ----------------------------------------------------------------------
# Outside-only probes
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _children_cpu_seconds() -> float:
    """CPU seconds (user+system) of the live worker processes, from /proc.

    ``getrusage(RUSAGE_CHILDREN)`` only counts children already reaped; the
    window is sampled while they run.
    """
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", "rb") as handle:
                # Fields 14 and 15 (utime, stime) count from after the
                # parenthesised command name, which may contain spaces.
                fields = handle.read().rsplit(b")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        except (OSError, IndexError, ValueError):
            continue  # exited between listing and reading
    return total


def _cpu_seconds() -> float:
    return time.process_time() + _children_cpu_seconds()


def _peak_rss_mb() -> float:
    """Peak resident set of this interpreter plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class _TimerLagProbe:
    """A 10 ms ``MonotonicClock`` timer on one node's runtime: how late the
    loop fires a timer while the cluster is under load."""

    INTERVAL = 0.01

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.lags: list[float] = []
        self._due = 0.0
        self._handle = None

    def start(self) -> None:
        self._due = self.runtime.now + self.INTERVAL
        self._handle = self.runtime.set_timer(self.INTERVAL, self._fire)

    def _fire(self) -> None:
        now = self.runtime.now
        self.lags.append(now - self._due)
        self._due = now + self.INTERVAL
        self._handle = self.runtime.set_timer(self.INTERVAL, self._fire)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()


# ----------------------------------------------------------------------
# Reading a metrics collector
# ----------------------------------------------------------------------
def _replica_start(metrics) -> float:
    """Cluster-clock time the replicas started (their first view entry).

    Workload windows are relative to replica start, which on a live cluster
    trails the clock's origin by the bootstrap.
    """
    firsts = [entries[0][0] for entries in metrics.view_entries.values() if entries]
    return min(firsts) if firsts else 0.0


def _window_latencies(metrics, lo: float, hi: float) -> list[float]:
    """Sorted latencies of the requests applied in ``[lo, hi)``."""
    count = metrics.requests_applied_between(lo, hi)
    # The apply-time column is ascending, so the first `count` latencies at
    # or after `lo` are exactly the window's.
    return sorted(metrics.request_latencies(after=lo)[:count])


def _commit_times(metrics) -> list[list[float]]:
    """Each replica's commit times, ascending; an empty list for a replica
    that never committed.  (``metrics.commits`` builds a record per commit on
    every read, so the slices below share one pass.)"""
    per_pid: dict[int, list[float]] = {pid: [] for pid in metrics.view_entries}
    for commit in metrics.commits:
        per_pid.setdefault(commit.pid, []).append(commit.time)
    return list(per_pid.values())


def _commit_counts(commit_times: list[list[float]], lo: float, hi: float) -> int:
    """Blocks every replica committed in ``[lo, hi)`` (min over replicas)."""
    return min(
        (bisect_left(times, hi) - bisect_left(times, lo) for times in commit_times),
        default=0,
    )


def _commit_latencies(metrics, lo: float, hi: float) -> list[float]:
    """Decision (QC) -> 3-chain commit of the same view, commits in the window."""
    decided: dict[int, float] = {}
    for decision in metrics.decisions:
        decided.setdefault(decision.view, decision.time)
    return sorted(
        commit.time - decided[commit.view]
        for commit in metrics.commits
        if lo <= commit.time < hi and commit.view in decided
    )


def _gap_stats(metrics, lo: float, hi: float) -> tuple[list[float], list[int]]:
    """Gaps between consecutive honest decisions starting in ``[lo, hi)``,
    and the honest messages sent inside each."""
    times = [t for t in metrics.honest_decision_times_after(lo) if t < hi]
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    messages = [
        metrics.messages_between(earlier, later)
        for earlier, later in zip(times, times[1:])
    ]
    return gaps, messages


def _sliced(lo: float, hi: float) -> list[tuple[float, float]]:
    slices = []
    start = lo
    while start + SLICE_SECONDS <= hi + 1e-9:
        slices.append((start, start + SLICE_SECONDS))
        start += SLICE_SECONDS
    return slices or [(lo, hi)]


# ----------------------------------------------------------------------
# Live lane
# ----------------------------------------------------------------------
@dataclass
class LiveRun:
    """What one live run leaves behind for the metric functions."""

    cluster: Any
    config: ScenarioConfig
    metrics: Any
    #: The measured window, on the cluster's clock.
    lo: float
    hi: float
    setup_s: float
    bootstrap_s: float
    stop_s: float
    run_ns: int
    #: CPU seconds of this interpreter and its workers inside the window.
    cpu_window_s: float
    #: Teardown errors other than a full ring.
    problems: list[str]
    timer_lags: list[float]
    commit_times: list[list[float]]


async def _run_live_async(
    workload: Workload, seed: int, seconds: float, t0: float,
    setup_only: bool, probe_timers: bool, on_started: Optional[Callable] = None,
) -> Optional[LiveRun]:
    config = workload.config(seed, seconds)
    cluster = make_live_cluster(config, **workload.cluster)
    boot_started = time.perf_counter()
    samples: list[float] = []
    probe = None
    run_started_ns = 0
    try:
        await cluster.start()
        bootstrap_s = time.perf_counter() - boot_started
        setup_s = time.time() - t0
        if setup_only:
            return LiveRun(cluster, config, None, 0.0, 0.0, setup_s,
                           bootstrap_s, 0.0, 0, 0.0, [], [], [])
        if on_started is not None:
            on_started(cluster)
        if probe_timers and hasattr(cluster, "nodes"):
            probe = _TimerLagProbe(cluster.nodes[0].runtime)
            probe.start()

        async def sample_window() -> None:
            await asyncio.sleep(WARMUP_SECONDS)
            samples.append(_cpu_seconds())
            await asyncio.sleep(seconds)
            samples.append(_cpu_seconds())

        sampler = asyncio.create_task(sample_window())
        run_started_ns = time.perf_counter_ns()
        await cluster.run(WARMUP_SECONDS + seconds + DRAIN_SECONDS)
        await sampler
    finally:
        run_ns = time.perf_counter_ns() - run_started_ns
        if probe is not None:
            probe.stop()
        stop_started = time.perf_counter()
        await cluster.stop()
        stop_s = time.perf_counter() - stop_started
    metrics = cluster.metrics
    lo = _replica_start(metrics) + WARMUP_SECONDS
    # A ring that was full when a worker stopped reading is teardown noise
    # (counted in shm.frames_dropped); anything else in teardown_errors is a
    # lost worker or a transport bug and fails the run.
    problems = [e for e in cluster.teardown_errors if "ring full" not in e]
    return LiveRun(
        cluster=cluster, config=config, metrics=metrics, lo=lo, hi=lo + seconds,
        setup_s=setup_s, bootstrap_s=bootstrap_s, stop_s=stop_s,
        run_ns=run_ns, cpu_window_s=samples[1] - samples[0] if len(samples) == 2 else 0.0,
        problems=problems, timer_lags=probe.lags if probe is not None else [],
        commit_times=_commit_times(metrics),
    )


def _check_live(run: LiveRun) -> list[str]:
    """Correctness gates of a live run; an empty list means correct."""
    cluster, metrics = run.cluster, run.metrics
    problems = list(run.problems)
    if not cluster.ledgers_are_consistent():
        problems.append("ledgers are not prefix-consistent")
    if not cluster.kv_consistent():
        problems.append("KV apply chains are not prefix-consistent")
    digests = cluster.kv_digests()
    if len(digests) != run.config.n:
        problems.append(f"{len(digests)} of {run.config.n} replicas reported KV state")
    attempted = metrics.requests_submitted + metrics.requests_rejected
    if metrics.requests_applied == attempted and len(set(digests.values())) > 1:
        problems.append("every request applied but replica KV digests differ")
    if _commit_counts(run.commit_times, run.lo, run.hi) == 0:
        problems.append("no block committed by every replica in the window")
    return problems


def _live_numbers(run: LiveRun) -> tuple[dict[str, float], dict[str, float]]:
    """``(end_to_end, cluster)`` of a live window.  Rates and worst gaps are
    taken per slice and the median slice reported."""
    metrics, lo, hi, delta = run.metrics, run.lo, run.hi, run.config.delta
    latencies = _window_latencies(metrics, lo, hi)
    req_rates, block_rates, worst_gaps, worst_msgs = [], [], [], []
    for start, end in _sliced(lo, hi):
        width = end - start
        req_rates.append(metrics.requests_applied_between(start, end) / width)
        block_rates.append(_commit_counts(run.commit_times, start, end) / width)
        gaps, messages = _gap_stats(metrics, start, end)
        if gaps:
            worst_gaps.append(max(gaps))
            worst_msgs.append(max(messages))
    blocks = _commit_counts(run.commit_times, lo, hi)
    end_to_end = {
        "setup_s": run.setup_s,
        "req_latency_p50_delta": (percentile(latencies, 0.50) or 0.0) / delta,
        "req_latency_p90_delta": (percentile(latencies, 0.90) or 0.0) / delta,
        "msgs_per_decision_max": median(worst_msgs),
        "peak_rss_mb": _peak_rss_mb(),
    }
    cluster = {
        "cluster.req_per_s": median(req_rates),
        "cluster.blocks_per_s": median(block_rates),
        "cluster.cpu_ms_per_block": run.cpu_window_s * 1000.0 / blocks if blocks else 0.0,
        "cluster.decision_gap_max_delta": median(worst_gaps) / delta,
    }
    return end_to_end, cluster


def _live_counts(run: LiveRun) -> tuple[int, int]:
    metrics = run.metrics
    attempted = metrics.requests_submitted + metrics.requests_rejected
    return attempted, max(0, attempted - metrics.requests_applied)


# ----------------------------------------------------------------------
# Sim lane
# ----------------------------------------------------------------------
@dataclass
class SimRun:
    result: Any
    config: ScenarioConfig
    #: CPU seconds of each repeat of the unit.
    cpu_s: list[float]
    setup_s: float
    problems: list[str]


def _sim_fingerprint(result) -> tuple:
    """Everything that must repeat exactly between units of one seed."""
    summary = result.summary()
    metrics = result.metrics
    return (
        summary.decisions, summary.eventual_latency, summary.eventual_communication,
        summary.total_messages, result.committed_blocks(),
        metrics.requests_submitted, metrics.requests_applied,
        metrics.request_latency_percentile(0.5),
    )


def _run_sim(workload: Workload, seed: int, seconds: float, t0: float,
             setup_only: bool, max_units: Optional[int] = None) -> SimRun:
    config = workload.config(seed, seconds)
    build_scenario(config)
    setup_s = time.time() - t0
    if setup_only:
        return SimRun(None, config, [], setup_s, [])
    started = time.perf_counter()
    cpu_s: list[float] = []
    walls: list[float] = []
    fingerprints = set()
    result = None
    # Repeat the unit while another one still fits in --seconds.
    while not cpu_s or (
        time.perf_counter() - started + median(walls) <= seconds
        and (max_units is None or len(cpu_s) < max_units)
    ):
        result = None  # free the previous unit before building the next
        cpu_started, wall_started = time.process_time(), time.perf_counter()
        result = run_scenario(config)
        cpu_s.append(time.process_time() - cpu_started)
        walls.append(time.perf_counter() - wall_started)
        fingerprints.add(_sim_fingerprint(result))
    problems = []
    if len(fingerprints) > 1:
        problems.append(f"protocol counts differ between identical units: {sorted(map(str, fingerprints))}")
    return SimRun(result, config, cpu_s, setup_s, problems)


def _check_sim(run: SimRun) -> list[str]:
    result = run.result
    problems = list(run.problems)
    if not result.ledgers_are_consistent():
        problems.append("honest ledgers are not prefix-consistent")
    machines = [r.state_machine for r in result.honest_replicas if r.state_machine is not None]
    if machines:
        if not apply_chains_consistent(m.apply_chain for m in machines):
            problems.append("KV apply chains are not prefix-consistent")
        metrics = result.metrics
        attempted = metrics.requests_submitted + metrics.requests_rejected
        # Replicas stop at different ledger lengths only by trailing blocks
        # still in flight; with every request applied those carry no
        # commands, so the stores must agree.
        if metrics.requests_applied == attempted and len({m.digest() for m in machines}) > 1:
            problems.append("every request applied but replica KV digests differ")
    if result.committed_blocks() == 0 or result.summary().eventual_latency is None:
        problems.append("no steady-state decisions")
    return problems


def _block_request_latencies(result) -> list[float]:
    """Without clients the unit of client-visible work is a block's payload:
    submitted when its leader enters the view and proposes, applied when
    that leader commits it."""
    metrics = result.metrics
    honest = {replica.pid: replica for replica in result.honest_replicas}
    entered = {
        (pid, view): when
        for pid, entries in metrics.view_entries.items()
        for when, view in entries
    }
    latencies = []
    for commit in metrics.commits:
        replica = honest.get(commit.pid)
        if replica is None or replica.leader_of(commit.view) != commit.pid:
            continue
        proposed = entered.get((commit.pid, commit.view))
        if proposed is not None:
            latencies.append(commit.time - proposed)
    return sorted(latencies)


def _sim_numbers(run: SimRun) -> tuple[dict[str, float], dict[str, float]]:
    """``(end_to_end, cluster)`` of a simulated run.  Client-facing numbers
    are virtual time; CPU per block is the median unit's."""
    result, config = run.result, run.config
    metrics, summary = result.metrics, result.summary()
    blocks = result.committed_blocks()
    if config.workload is not None:
        requests = metrics.requests_applied
        latencies = sorted(metrics.request_latencies())
    else:
        requests = blocks
        latencies = _block_request_latencies(result)
    end_to_end = {
        "setup_s": run.setup_s,
        "req_latency_p50_delta": (percentile(latencies, 0.50) or 0.0) / config.delta,
        "req_latency_p90_delta": (percentile(latencies, 0.90) or 0.0) / config.delta,
        "msgs_per_decision_max": float(summary.eventual_communication or 0),
        "peak_rss_mb": _peak_rss_mb(),
    }
    cluster = {
        "cluster.req_per_s": requests / config.duration,
        "cluster.blocks_per_s": blocks / config.duration,
        "cluster.cpu_ms_per_block": median(run.cpu_s) * 1000.0 / blocks if blocks else 0.0,
        "cluster.decision_gap_max_delta": (summary.eventual_latency or 0.0) / config.delta,
    }
    return end_to_end, cluster


def _sim_counts(run: SimRun) -> tuple[int, int]:
    """Attempted / failed operations: client requests, or — without
    clients — decisions, of which none may be missing from the ledgers."""
    metrics = run.result.metrics
    if run.config.workload is not None:
        attempted = metrics.requests_submitted + metrics.requests_rejected
        return attempted, max(0, attempted - metrics.requests_applied)
    return max(1, run.result.summary().decisions), 0


# ----------------------------------------------------------------------
# Per-layer numbers (traced runs)
# ----------------------------------------------------------------------
def _layer_zeroes() -> dict[str, float]:
    return {name: 0.0 for name, _, _ in spec.PER_LAYER}


def _mean_us(stats: dict, *names: str) -> float:
    count = sum(stats[n]["count"] for n in names if n in stats)
    total = sum(stats[n]["total_ns"] for n in names if n in stats)
    return total / count / 1e3 if count else 0.0


def _per_value_us(stats: dict, name: str) -> float:
    row = stats.get(name)
    return row["total_ns"] / row["value"] / 1e3 if row and row["value"] else 0.0


def _trace_layer_numbers(tracer, run_ns: int, blocks: int, n: int) -> dict[str, float]:
    """Everything the span columns give: shares, per-call costs, queue waits."""
    import _trace

    stats = tracer.stats()
    layers = _trace.layer_self_ns(stats)
    share = lambda layer: 100.0 * layers.get(layer, 0) / run_ns if run_ns else 0.0  # noqa: E731
    traced_total = sum(layers.values())
    framed = tracer.child_value_by_parent("codec.encode_into")
    wire_bytes = framed.get("tcp.broadcast", 0) * (n - 1) + framed.get("tcp.send", 0)
    flush = stats.get("gateway.flush", {"count": 0, "value": 0})
    forwards = sum(
        1 for index, name_id in enumerate(tracer.name_id)
        if tracer.names[name_id] == "gateway.flush" and tracer.value[index] > 0
    )
    submitted = stats.get("gateway.submit", {"value": 0})["value"]
    on_send = stats.get("metrics.on_send", {"count": 0, "total_ns": 0})
    return {
        "crypto.busy_share": share("crypto"),
        "core.pacemaker_busy_share": share("core"),
        "consensus.engine_busy_share": share("consensus"),
        "statemachine.busy_share": share("statemachine"),
        "codec.busy_share": share("codec"),
        "tcp.busy_share": share("tcp"),
        "gateway.busy_share": share("gateway"),
        "metrics.busy_share": share("metrics"),
        "trace.untraced_share": 100.0 * (1.0 - traced_total / run_ns) if run_ns else 0.0,
        "core.collector_add_us": _mean_us(stats, "core.certificate_add", "core.epoch_message_add"),
        "core.combine_us": _mean_us(stats, "crypto.combine"),
        "consensus.mempool_wait_ms_p50": median(tracer.mempool_waits) * 1e3,
        "statemachine.encode_us_per_cmd": _per_value_us(stats, "statemachine.encode_commands"),
        "statemachine.decode_us_per_cmd": _per_value_us(stats, "statemachine.decode_commands"),
        "tcp.bytes_per_block": wire_bytes / blocks if blocks else 0.0,
        "gateway.batch_wait_ms_p50": median(tracer.gateway_waits) * 1e3,
        "gateway.cmds_per_forward": flush["value"] / forwards if forwards else 0.0,
        "gateway.retries_per_request": tracer.gateway_reoffered / submitted if submitted else 0.0,
        "metrics.on_send_ns": on_send["total_ns"] / on_send["count"] if on_send["count"] else 0.0,
    }


def _counter_layer_numbers(metrics, replicas, backend, lo: float, hi: float,
                           blocks: int, events: int) -> dict[str, float]:
    """Everything public counters give, traced or not.  Milliseconds are the
    lane's own: virtual on the sim workloads."""
    decisions = len(metrics.honest_decision_times_after(0.0))
    top_view = max((metrics.max_view_entered(pid) for pid in metrics.honest_ids), default=-1)
    latencies = _window_latencies(metrics, lo, hi)
    numbers = {
        "core.views_per_decision": (top_view + 1) / decisions if decisions else 0.0,
        "core.heavy_syncs": float(metrics.epoch_syncs_after(0.0)),
        "consensus.cmds_per_block": metrics.requests_applied_between(lo, hi) / blocks if blocks else 0.0,
        "consensus.commit_latency_p50_ms": (percentile(_commit_latencies(metrics, lo, hi), 0.5) or 0.0) * 1e3,
        "sim.events_per_decision": events / decisions if decisions else 0.0,
        "gateway.req_latency_p99_ms": (percentile(latencies, 0.99) or 0.0) * 1e3,
    }
    if backend is not None and blocks:
        total_blocks = max(1, max((len(r.ledger) for r in replicas), default=0))
        numbers["crypto.digest_calls_per_block"] = backend.digest_calls / total_blocks
        numbers["crypto.digest_computes_per_block"] = backend.digest_computes / total_blocks
    numbers["consensus.mempool_rejected"] = float(sum(r.mempool.rejected for r in replicas))
    numbers["consensus.mempool_duplicates"] = float(sum(r.mempool.duplicates for r in replicas))
    numbers["statemachine.duplicates_skipped"] = float(sum(
        r.state_machine.store.duplicates_skipped
        for r in replicas if r.state_machine is not None
    ))
    return numbers


def _generator_late_ratio(config: ScenarioConfig, metrics) -> float:
    """Open loop only: the share of scheduled submissions the generators
    never made (a late timer fires once, not once per missed tick)."""
    workload = config.workload
    if workload is None or workload.mode != "open" or workload.stop is None:
        return 0.0
    hosts = sum(1 for pid in range(config.n) if workload.hosts_clients(pid, config.n))
    scheduled = workload.rate * (workload.stop - workload.start) * hosts
    made = metrics.requests_submitted + metrics.requests_rejected
    return max(0.0, 1.0 - made / scheduled) if scheduled else 0.0


def _request_ratios(config: ScenarioConfig, metrics) -> dict[str, float]:
    """The two ratios every run reports about its requests, traced or not."""
    return {
        "gateway.failed_ratio": failed_ratio(
            metrics.requests_submitted, metrics.requests_rejected, metrics.requests_applied
        ),
        "gateway.generator_late_ratio": _generator_late_ratio(config, metrics),
    }


def _microbench_numbers(kind_mix: dict[str, int]) -> dict[str, float]:
    import layers

    results = layers.run_all(kind_mix)
    codec = results["codec_weighted"]
    return {
        "crypto.batch_verify_us_q3": results["verify_batch"][3]["median"] * 1e6,
        "crypto.batch_verify_us_q11": results["verify_batch"][11]["median"] * 1e6,
        "crypto.batch_verify_us_q43": results["verify_batch"][43]["median"] * 1e6,
        "statemachine.apply_us_per_cmd": results["kv_apply_s"]["median"] * 1e6,
        "codec.encode_ns_per_frame": codec["encode_ns"],
        "codec.decode_ns_per_frame": codec["decode_ns"],
        "codec.bytes_per_frame": codec["bytes"],
        "shm.push_ns_per_frame": results["ring"]["push_s_per_frame"]["median"] * 1e9,
        "shm.pop_ns_per_frame": results["ring"]["pop_s_per_frame"]["median"] * 1e9,
        "shm.ring_mb_per_s": results["ring"]["mb_per_s"]["median"],
        "shm.doorbell_wake_us": results["process_hops"]["doorbell_wake_s"]["median"] * 1e6,
        "proc.pipe_rtt_us": results["process_hops"]["pipe_rtt_s"]["median"] * 1e6,
        "metrics.merge_s": results["metrics_merge_s"]["median"],
        "loop.vclock_events_per_s": results["kernels"]["vclock_events_per_cpu_s"]["median"],
        "sim.events_per_cpu_s": results["kernels"]["sim_events_per_cpu_s"]["median"],
    }


def _write_trace(tracer, workload: Workload, seed: int, extra: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(
        str(OUT_DIR / f"trace_{workload.name}.json"),
        {"workload": workload.name, "seed": seed, **extra},
    )


# ----------------------------------------------------------------------
# One workload, untraced or traced
# ----------------------------------------------------------------------
def _result(problems: list[str], attempted: int, failed: int,
            metrics: dict[str, float], units: dict[str, str], setup_s: float,
            diagnostics: Optional[dict[str, float]] = None) -> dict:
    """What ``run.py`` reads: the contract's four keys, plus this
    interpreter's set-up sample, the failed gates, and — on untraced runs —
    the layer metrics the untraced window gives for free (printed, not part
    of the contract line)."""
    correct = not problems
    if not correct:
        failed = max(attempted, 1)  # a run that failed a gate served nobody
    return {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
        "setup_s": setup_s,
        "problems": problems,
        "diagnostics": diagnostics or {},
    }


def run_live(workload: Workload, seed: int, seconds: float, trace: bool, t0: float) -> dict:
    if not trace:
        run = asyncio.run(_run_live_async(workload, seed, seconds, t0, False, False))
        attempted, failed = _live_counts(run)
        end_to_end, cluster = _live_numbers(run)
        cluster.update(_request_ratios(run.config, run.metrics))
        return _result(_check_live(run), attempted, failed, end_to_end,
                       spec.END_TO_END_UNITS, run.setup_s, cluster)

    # Traced: half the window untraced for the overhead base, then half
    # with the wrappers in (where the layers are in this process at all).
    half = max(2.0, seconds / 2.0)
    numbers = _layer_zeroes()
    base = asyncio.run(_run_live_async(workload, seed, half, t0, False, False))
    problems = _check_live(base)
    run, tracer = base, None
    if workload.traceable:
        import _trace

        tracer = _trace.Tracer().install()

        def use_cluster_clock(cluster) -> None:
            tracer.lane_now = lambda: cluster.clock.now

        try:
            run = asyncio.run(_run_live_async(
                workload, seed, half, time.time(), False, True, use_cluster_clock,
            ))
        finally:
            tracer.uninstall()
        problems += _check_live(run)
    metrics, config = run.metrics, run.config
    blocks = _commit_counts(run.commit_times, run.lo, run.hi)
    replicas = list(getattr(run.cluster, "replicas", {}).values()) if workload.traceable else []
    backend = replicas[0].crypto_backend if replicas else None
    events = (
        sum(node.runtime.events_processed for node in run.cluster.nodes.values())
        if workload.traceable else run.cluster.events_processed
    )
    numbers.update(_counter_layer_numbers(
        metrics, replicas, backend, run.lo, run.hi, blocks, events
    ))
    numbers.update(_request_ratios(config, metrics))
    base_cluster = _live_numbers(base)[1]
    numbers.update(base_cluster)
    wire_frames = metrics.messages_between(run.lo, run.hi) / blocks if blocks else 0.0
    if workload.traceable:
        total_blocks = min(len(r.ledger) for r in replicas)
        numbers.update(_trace_layer_numbers(tracer, run.run_ns, total_blocks, config.n))
        numbers["tcp.frames_per_block"] = wire_frames
        numbers["tcp.frames_dropped"] = float(run.cluster.frames_dropped)
        lags = sorted(run.timer_lags)
        numbers["loop.timer_lag_ms_p50"] = (percentile(lags, 0.5) or 0.0) * 1e3
        numbers["loop.timer_lag_ms_p99"] = (percentile(lags, 0.99) or 0.0) * 1e3
        traced_rate = _live_numbers(run)[1]["cluster.req_per_s"]
        base_rate = base_cluster["cluster.req_per_s"]
        numbers["trace.overhead_ratio"] = traced_rate / base_rate if base_rate else 0.0
        _write_trace(tracer, workload, seed, {"run_ns": run.run_ns, "blocks": total_blocks})
    else:
        # Layers live in the workers: parent-visible counters only.
        numbers["shm.frames_dropped"] = float(run.cluster.frames_dropped)
        numbers["proc.bootstrap_s"] = run.bootstrap_s
        numbers["proc.stop_merge_s"] = run.stop_s
        numbers["trace.overhead_ratio"] = 1.0
        numbers["trace.untraced_share"] = 100.0
    numbers.update(_microbench_numbers(metrics.message_kinds_between(run.lo, run.hi)))
    attempted, failed = _live_counts(run)
    return _result(problems, attempted, failed, numbers, spec.PER_LAYER_UNITS, base.setup_s)


def run_sim(workload: Workload, seed: int, seconds: float, trace: bool, t0: float) -> dict:
    if not trace:
        run = _run_sim(workload, seed, seconds, t0, False)
        attempted, failed = _sim_counts(run)
        end_to_end, cluster = _sim_numbers(run)
        cluster.update(_request_ratios(run.config, run.result.metrics))
        return _result(_check_sim(run), attempted, failed, end_to_end,
                       spec.END_TO_END_UNITS, run.setup_s, cluster)

    import _trace

    numbers = _layer_zeroes()
    base = _run_sim(workload, seed, seconds, t0, False, max_units=1)
    tracer = _trace.Tracer().install()
    try:
        # run_scenario builds its own simulator; the queue-wait hooks need
        # its clock, so build and drive the traced unit by hand.
        config = workload.config(seed, seconds)
        cpu_started, wall_started = time.process_time(), time.perf_counter_ns()
        result = build_scenario(config)
        tracer.lane_now = lambda: result.simulator.now
        for replica in result.replicas.values():
            replica.start()
        result.simulator.run(until=config.duration)
        traced_cpu = time.process_time() - cpu_started
        run_ns = time.perf_counter_ns() - wall_started
    finally:
        tracer.uninstall()
    run = SimRun(result, config, [traced_cpu], base.setup_s, [])
    problems = _check_sim(base) + _check_sim(run)
    if _sim_fingerprint(base.result) != _sim_fingerprint(result):
        problems.append("traced and untraced units disagree on protocol counts")
    metrics = result.metrics
    blocks = result.committed_blocks()
    replicas = result.honest_replicas
    numbers.update(_counter_layer_numbers(
        metrics, replicas, result.crypto_backend, 0.0, config.duration + 1.0,
        blocks, result.simulator.events_processed,
    ))
    numbers.update(_request_ratios(config, metrics))
    numbers.update(_sim_numbers(base)[1])
    numbers.update(_trace_layer_numbers(tracer, run_ns, blocks, config.n))
    numbers["trace.overhead_ratio"] = median(base.cpu_s) / traced_cpu if traced_cpu else 0.0
    _write_trace(tracer, workload, seed, {"run_ns": run_ns, "blocks": blocks})
    numbers.update(_microbench_numbers(metrics.message_kinds_between(0.0, config.duration + 1.0)))
    attempted, failed = _sim_counts(run)
    return _result(problems, attempted, failed, numbers, spec.PER_LAYER_UNITS, base.setup_s)


def run_setup_only(workload: Workload, seed: int, seconds: float, t0: float) -> dict:
    """Set the workload up, time it, tear it down: one ``setup_s`` sample."""
    if workload.lane == "live":
        run = asyncio.run(_run_live_async(workload, seed, seconds, t0, True, False))
        setup_s = run.setup_s
    else:
        setup_s = _run_sim(workload, seed, seconds, t0, True).setup_s
    return {"setup_s": setup_s}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, default=None,
                        help="wall-clock time the parent started this interpreter")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else _T_INTERPRETER
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        outcome = run_setup_only(workload, args.seed, args.seconds, t0)
    else:
        runner = run_live if workload.lane == "live" else run_sim
        outcome = runner(workload, args.seed, args.seconds, bool(args.trace), t0)
    print(json.dumps(outcome))
    return 0 if outcome.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
