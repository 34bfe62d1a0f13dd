#!/usr/bin/env python3
"""Worker profile: where a process + shm worker's CPU goes, per committed block.

Runs the ledger's ``kv_rate_proc_shm`` workload (n=4 Lumiere in one forked
worker over shared-memory rings, 2000 req/s) twice, each time wrapping the
worker's fork target before the cluster starts, so nothing under ``src/``
knows it is profiled:

* a **sampled** run: a ``SIGPROF`` stack sampler (``ITIMER_PROF``, one sample
  per ``--interval`` of worker CPU) that files each sample under every layer
  whose frames are on the stack above the first protocol frame — codec,
  crypto, KV, pacemaker timers, floor sweep, leader lookup, transport and
  dataclass ``__init__`` — giving each layer's *inclusive* share of worker
  CPU (and that share of the CPU per committed block, the number that
  compares across commits), plus the leaf functions that cost most;
* a **counted** run: wrappers counting, per committed block, digest calls,
  ``decode_commands`` calls, leader lookups, timers pushed on the shard's
  kernel (``loop_timers``: every ``set_timer[_at]`` and ``call_after`` of
  the :class:`~repro.runtime.wallclock.WallClockKernel`, and how many were
  due at once) and, per frame class, the generic codec walker's calls per
  decoded and per encoded frame.

The sampled run also records the worker's **memory**: its resident set
once its replicas start and when it stops (and its peak), the
coordinator's resident set after ``stop()``, and the bytes of run history
(metrics rows, ledger ids, views and times, KV apply-chain links) per
committed block that the worker holds when it stops and that it sent over
its control pipe.

The two are separate runs so the counters' own cost never shows in the
shares.  Both are written under one label (``--label``) of the output JSON;
the labels already in the file are kept, so running the script at two
commits with ``--label parent`` / ``--label change`` and one ``--output``
leaves both side by side.  Wall-clock numbers move with the host, so nothing
here fails a build; ``--check-output-version`` only fails when the committed
file was written by another ``repro.version``.  Only full mode writes
``BENCH_worker_profile.json`` by default; a quick run writes only where
``--output`` says.

Usage::

    PYTHONPATH=src python benchmarks/profile_worker.py --label change
    PYTHONPATH=src python benchmarks/profile_worker.py --quick \
        --output BENCH_worker_profile_ci.json                    # CI: 3 s runs
    PYTHONPATH=src python benchmarks/profile_worker.py --check-output-version
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE / "ledger"))

from bench_scaling import check_output_version  # noqa: E402
from workloads import WARMUP_SECONDS, WORKLOADS  # noqa: E402

from repro.runner import process_cluster  # noqa: E402
from repro.runner.live import make_live_cluster  # noqa: E402
from repro.version import __version__  # noqa: E402

WORKLOAD = "kv_rate_proc_shm"
#: The committed full-mode profile.
COMMITTED = _HERE.parent / "BENCH_worker_profile.json"

#: Frames of these files run the protocol: a sample's layers are the ones
#: met walking from its leaf up to the first such frame that is not itself
#: part of a layer (a transport delivering into a replica, a timer firing a
#: pacemaker callback, the KV calling the gateway back).
_PROTOCOL = (
    "/repro/consensus/", "/repro/core/", "/repro/pacemakers/", "/repro/runner/",
    "/repro/metrics/", "/repro/faults/", "/repro/sim/process.py",
)
_TIMER_CALLS = {"cancel", "set_timer", "set_timer_at", "call_after",
                "schedule_at_local", "_arm", "_resync_timers", "_note_cancelled",
                "_compact"}
_LEADER_CALLS = {"leader_of", "_round", "_generate_round", "_extend", "is_leader",
                 "turn_end", "_proposal_coming"}

LAYERS: dict[str, Callable[[str, str], bool]] = {
    "codec": lambda path, name: path.endswith("/repro/runtime/codec.py")
    or path == "<wire plan>",
    "crypto": lambda path, name: "/repro/crypto/" in path,
    "kv": lambda path, name: "/repro/statemachine/" in path,
    "pacemaker_timers": lambda path, name: name in _TIMER_CALLS and path.endswith(
        ("/repro/sim/clock.py", "/repro/sim/events.py", "/repro/runtime/wallclock.py")
    ),
    "floor_sweep": lambda path, name: name in ("release_below", "_walk_below")
    and "/repro/" in path,
    "leader_lookup": lambda path, name: name in _LEADER_CALLS and "/repro/" in path,
    "transport": lambda path, name: path.endswith(
        ("/repro/runtime/shm.py", "/repro/runtime/tcp.py", "/repro/runtime/transports.py")
    ),
    "dataclass_init": lambda path, name: name == "__init__" and path == "<string>",
}
_LAYER_BITS = {layer: 1 << i for i, layer in enumerate(LAYERS)}


class StackSampler:
    """``SIGPROF`` sampler: each tick classifies the interrupted stack."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples = 0
        self.layers: Counter = Counter()
        self.leaves: Counter = Counter()
        self._codes: dict[Any, tuple[int, bool]] = {}

    def _classify(self, code) -> tuple[int, bool]:
        known = self._codes.get(code)
        if known is None:
            path, name = code.co_filename, code.co_name
            bits = 0
            for layer, test in LAYERS.items():
                if test(path, name):
                    bits |= _LAYER_BITS[layer]
            known = self._codes[code] = (bits, any(part in path for part in _PROTOCOL))
        return known

    def _tick(self, signum, frame) -> None:
        self.samples += 1
        if frame is None:
            return
        code = frame.f_code
        self.leaves[f"{_short(code.co_filename)}:{code.co_name}"] += 1
        hit = 0
        while frame is not None:
            bits, protocol = self._classify(frame.f_code)
            if bits:
                hit |= bits
            elif protocol:
                break
            frame = frame.f_back
        self.layers[hit] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def shares(self) -> dict[str, float]:
        """Inclusive share of samples per layer, in percent."""
        total = max(self.samples, 1)
        return {
            layer: round(100.0 * sum(
                count for bits, count in self.layers.items() if bits & bit
            ) / total, 2)
            for layer, bit in _LAYER_BITS.items()
        }


_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def _rss_mb() -> float:
    """This process's resident set now, in MB."""
    with open("/proc/self/statm", "rb") as handle:
        return round(int(handle.read().split()[1]) * _PAGE_BYTES / 2**20, 2)


def _history_bytes(shard) -> int:
    """Bytes of run history a shard holds: its collector's row columns, and
    each replica's ledger ids, views and times and KV apply-chain links."""
    from repro.metrics.collector import _TABLES

    metrics = shard.stack.metrics
    held = 0
    for table, names in _TABLES.items():
        for name in names:
            column = getattr(metrics, f"_{table}_{name}")
            held += len(column) * getattr(column, "itemsize", 8)
    for node in shard.nodes.values():
        ledger, machine = node.replica.ledger, node.replica.state_machine
        held += len(ledger._ids) + 8 * (len(ledger.views) + len(ledger.commit_times))
        if machine is not None:
            held += len(machine._chain_history)
    return held


class _CountedPipe:
    """A worker's control-pipe end that counts the bytes it sends (each
    pickled message as ``Connection.send`` frames it, and each raw one)."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self.sent = 0

    def send(self, message) -> None:
        from multiprocessing.reduction import ForkingPickler

        data = ForkingPickler.dumps(message)
        self.sent += len(data)
        self._conn.send_bytes(data)

    def send_bytes(self, data) -> None:
        self.sent += memoryview(data).nbytes
        self._conn.send_bytes(data)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _short(path: str) -> str:
    marker = "/repro/"
    return "repro/" + path.split(marker, 1)[1] if marker in path else Path(path).name


class Counts:
    """Wrappers that count the per-block work of the worker budget.

    Installed in the coordinator before the cluster (and so the codec, whose
    compiled plans bind the walker at build time) exists; the worker inherits
    them through the fork.  Everything counted happens in the worker.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.decoded: Counter = Counter()
        self.decode_generic: Counter = Counter()
        self.encoded: Counter = Counter()
        self.encode_generic: Counter = Counter()
        self._restore: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _count(self, owner: Any, attr: str, name: str) -> None:
        calls = self.calls

        def make(original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted
        self._patch(owner, attr, make)

    def install(self) -> None:
        from repro.core.leader_schedule import LeaderSchedule
        from repro.crypto import backend
        from repro.runtime import codec
        from repro.runtime.wallclock import WallClockKernel
        from repro.statemachine import commands

        calls = self.calls
        for cls in vars(backend).values():
            if isinstance(cls, type) and "digest" in vars(cls):
                self._count(cls, "digest", "digest_calls")
        self._count(LeaderSchedule, "leader_of", "leader_lookups")
        original_decode = commands.decode_commands
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("repro"):
                for attr, bound in list(vars(module).items()):
                    if bound is original_decode:
                        self._count(module, attr, "decode_commands")

        # Every kernel push: set_timer reaches set_timer_at, and a timer is
        # "zero delay" when it is due at once.
        def timers_at(original):
            def set_timer_at(kernel, time, *args, **kwargs):
                calls["loop_timers"] += 1
                if time <= kernel.now:
                    calls["zero_delay_loop_timers"] += 1
                return original(kernel, time, *args, **kwargs)
            return set_timer_at

        def timers_after(original):
            def call_after(kernel, delay, *args):
                calls["loop_timers"] += 1
                if delay <= 0:
                    calls["zero_delay_loop_timers"] += 1
                return original(kernel, delay, *args)
            return call_after
        self._patch(WallClockKernel, "set_timer_at", timers_at)
        self._patch(WallClockKernel, "call_after", timers_after)

        walker = self.calls
        for attr in ("_unpack_value", "_pack_value", "_pack_other"):
            self._count(codec.WireCodec, attr, "generic")

        def decode(original):
            def decode_body(self_, body):
                before = walker["generic"]
                result = original(self_, body)
                name = type(result[1]).__name__
                self.decoded[name] += 1
                self.decode_generic[name] += walker["generic"] - before
                return result
            return decode_body

        def encode(original):
            def encode_into(self_, sender, payload, out):
                before = walker["generic"]
                result = original(self_, sender, payload, out)
                name = type(payload).__name__
                self.encoded[name] += 1
                self.encode_generic[name] += walker["generic"] - before
                return result
            return encode_into
        self._patch(codec.WireCodec, "decode_body", decode)
        self._patch(codec.WireCodec, "encode_into", encode)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def report(self, blocks: float) -> dict[str, Any]:
        per_block = {
            name: round(self.calls[name] / blocks, 3) if blocks else None
            for name in ("digest_calls", "decode_commands", "leader_lookups",
                         "loop_timers", "zero_delay_loop_timers")
        }

        def per_frame(frames: Counter, generic: Counter) -> dict[str, float]:
            return {name: round(generic[name] / frames[name], 3)
                    for name in sorted(frames)}
        return {
            "per_block": per_block,
            "generic_codec_calls_per_frame": {
                "decode": per_frame(self.decoded, self.decode_generic),
                "encode": per_frame(self.encoded, self.encode_generic),
            },
        }


def _reset_codec() -> None:
    """Forget the shared codec so the next cluster compiles fresh plans
    (binding whatever walker methods the class has at that moment)."""
    from repro.runtime import codec

    codec._default = None


def run_worker_phase(seed: int, seconds: float, interval: float, counted: bool) -> dict:
    """One cluster run with the worker wrapped; returns the worker's dump."""
    workload = WORKLOADS[WORKLOAD]
    config = workload.config(seed, seconds)
    counts = Counts() if counted else None
    dump = Path(tempfile.mkdtemp()) / "worker.json"
    original_target = process_cluster._shard_worker

    def profiled_worker(spec, conn, inherited):
        from repro.metrics.collector import MetricsCollector
        from repro.runner.shard import Shard

        commits = Counter()
        record_commit = MetricsCollector.record_commit
        go, stop = Shard.go, Shard.stop
        memory: dict[str, float] = {}

        def counted_commit(self, pid, *args, **kwargs):
            commits[pid] += 1
            return record_commit(self, pid, *args, **kwargs)

        def measured_go(self):
            go(self)
            memory["worker_rss_start_mb"] = _rss_mb()

        async def measured_stop(self):
            memory["worker_rss_stop_mb"] = _rss_mb()
            memory["history_bytes_held"] = _history_bytes(self)
            return await stop(self)
        MetricsCollector.record_commit = counted_commit
        Shard.go, Shard.stop = measured_go, measured_stop
        pipe = _CountedPipe(conn)
        sampler = None if counted else StackSampler(interval)
        started = time.process_time()
        if sampler is not None:
            sampler.start()
        try:
            original_target(spec, pipe, inherited)
        finally:
            if sampler is not None:
                sampler.stop()
            cpu = time.process_time() - started
            blocks = sum(commits.values()) / max(len(commits), 1)
            document = {"worker_cpu_s": round(cpu, 3), "blocks": blocks,
                        "cpu_ms_per_block": round(1000.0 * cpu / blocks, 4) if blocks else None}
            if blocks:
                memory["worker_maxrss_mb"] = round(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2
                )
                memory["history_bytes_held_per_block"] = round(
                    memory.pop("history_bytes_held", 0) / blocks, 1
                )
                memory["history_bytes_shipped_per_block"] = round(pipe.sent / blocks, 1)
                document["memory"] = memory
            if sampler is not None:
                document["samples"] = sampler.samples
                shares = document["inclusive_share_pct"] = sampler.shares()
                if blocks:
                    # The share of a CPU that moved: comparable across commits.
                    document["inclusive_ms_per_block"] = {
                        layer: round(share / 100.0 * document["cpu_ms_per_block"], 4)
                        for layer, share in shares.items()
                    }
                document["top_leaves_pct"] = {
                    leaf: round(100.0 * count / max(sampler.samples, 1), 2)
                    for leaf, count in sampler.leaves.most_common(15)
                }
            else:
                document.update(counts.report(blocks))
            dump.write_text(json.dumps(document), encoding="utf-8")

    coordinator: dict[str, float] = {}

    async def drive() -> None:
        cluster = make_live_cluster(config, **workload.cluster)
        await cluster.start()
        try:
            await cluster.run(WARMUP_SECONDS + seconds)
        finally:
            await cluster.stop()
        coordinator["coordinator_rss_after_stop_mb"] = _rss_mb()

    _reset_codec()
    if counts is not None:
        counts.install()
    process_cluster._shard_worker = profiled_worker
    try:
        asyncio.run(drive())
    finally:
        process_cluster._shard_worker = original_target
        if counts is not None:
            counts.uninstall()
        _reset_codec()
    document = json.loads(dump.read_text(encoding="utf-8"))
    dump.unlink()
    dump.parent.rmdir()
    document.get("memory", {}).update(coordinator)
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: 3 s runs instead of 20 s")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run after the warm-up "
                             "(default 20, or 3 with --quick)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--interval", type=float, default=0.003,
                        help="worker CPU seconds between samples (default 0.003)")
    parser.add_argument("--label", default="current",
                        help="name of this run in the output (default: current)")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write (default: the committed "
                             "BENCH_worker_profile.json in full mode, nowhere "
                             "with --quick); the labels already there are kept")
    parser.add_argument("--check-output-version", action="store_true",
                        help="only check that --output (default: the committed "
                             "file) was generated by this repro version; "
                             "profile nothing")
    args = parser.parse_args(argv)

    if args.check_output_version:
        failures = check_output_version(args.output or COMMITTED)
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1 if failures else 0

    seconds = args.seconds if args.seconds is not None else (3.0 if args.quick else 20.0)
    sampled = run_worker_phase(args.seed, seconds, args.interval, counted=False)
    counted = run_worker_phase(args.seed, seconds, args.interval, counted=True)
    run = {
        "mode": "quick" if args.quick else "full",
        "parameters": {"workload": WORKLOAD, "seed": args.seed, "seconds": seconds,
                       "warmup_seconds": WARMUP_SECONDS, "interval_s": args.interval},
        "sampled": sampled,
        "counted": counted,
    }
    output = args.output if args.output is not None or args.quick else COMMITTED
    if output is not None:
        try:
            runs = json.loads(output.read_text(encoding="utf-8")).get("runs", {})
        except (OSError, ValueError):
            runs = {}
        runs[args.label] = run
        document = {
            "schema": "repro-worker-profile/1",
            "generated_by": "benchmarks/profile_worker.py",
            "version": __version__,
            "runs": runs,
        }
        output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {output} [{args.label}]")
    print(f"  worker CPU {sampled['worker_cpu_s']} s, {sampled['blocks']:.0f} blocks, "
          f"{sampled['cpu_ms_per_block']} ms/block, {sampled['samples']} samples")
    for name, value in sampled.get("memory", {}).items():
        print(f"  {name:34s} {value}")
    for layer, share in sampled["inclusive_share_pct"].items():
        per_block = sampled.get("inclusive_ms_per_block", {}).get(layer)
        print(f"  {layer:18s} {share:6.2f} %  {per_block} ms/block")
    for name, value in counted["per_block"].items():
        print(f"  {name:24s} {value} per block")
    for direction, table in counted["generic_codec_calls_per_frame"].items():
        print(f"  generic codec calls per {direction}d frame: "
              + ", ".join(f"{name} {value}" for name, value in table.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
