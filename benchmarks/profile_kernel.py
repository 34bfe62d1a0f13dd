#!/usr/bin/env python3
"""Kernel hotspot report: cProfile over a steady-state lumiere scenario.

Profiles one full ``run_scenario`` call (n=512 by default — the scale the
raw-speed push targets, where the backend-independent kernel share dominates
under the hashing backend) and writes a machine-readable JSON artifact with
the top-N functions by cumulative time, plus the same table by internal
(self) time.  The CI perf-smoke job runs ``--quick`` mode (n=16, shorter
run) and uploads the JSON, so every push leaves a downloadable record of
where the kernel's time went.

The report is a *observability* artifact: wall times vary across machines,
so no number here fails the build.  The companion correctness guard lives in
``bench_scaling.py --check-baseline`` (decision counts are
machine-independent).  The one gate is staleness: ``--check-output-version``
fails when the committed ``BENCH_kernel_profile.json`` was generated by an
older ``repro.version`` (the same check as the other ``BENCH_*.json``).

Only full mode writes ``BENCH_kernel_profile.json`` by default; a quick run
writes its report only where ``--output`` says.

Usage::

    PYTHONPATH=src python benchmarks/profile_kernel.py           # n=512 report
    PYTHONPATH=src python benchmarks/profile_kernel.py --quick \
        --output BENCH_kernel_profile_ci.json                     # CI: n=16
    PYTHONPATH=src python benchmarks/profile_kernel.py --check-output-version
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path
from typing import Any

from bench_scaling import check_output_version
from repro.experiments.scenario import build_spread_fault_config, run_scenario
from repro.version import __version__

#: The committed full-mode report.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_kernel_profile.json"


def profile_scenario(n: int, duration: float, backend: str, seed: int):
    """Run one scenario under cProfile; returns (stats, scenario result)."""
    params = {
        "n": n,
        "protocol": "lumiere",
        "delta": 1.0,
        "actual_delay": 0.1,
        "duration": duration,
        "seed": seed,
        "f_actual": 0,
        "crypto_backend": backend,
    }
    config = build_spread_fault_config(params)
    profiler = cProfile.Profile()
    result_box: list[Any] = []
    profiler.enable()
    result_box.append(run_scenario(config))
    profiler.disable()
    return pstats.Stats(profiler), result_box[0]


def hotspot_rows(stats: pstats.Stats, sort: str, top: int) -> list[dict[str, Any]]:
    """The top-``top`` functions under one sort key, as JSON-friendly rows."""
    stats.sort_stats(sort)
    rows: list[dict[str, Any]] = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        filename, lineno, name = func
        cc, nc, tt, ct, _callers = stats.stats[func]  # type: ignore[attr-defined]
        # Strip machine-specific prefixes so artifacts diff cleanly across
        # checkouts; stdlib/builtin frames keep their short form.
        short = filename
        marker = "/repro/"
        if marker in filename:
            short = "src/repro/" + filename.split(marker, 1)[1]
        rows.append(
            {
                "function": name,
                "location": f"{short}:{lineno}",
                "calls": nc,
                "primitive_calls": cc,
                "internal_time": round(tt, 4),
                "cumulative_time": round(ct, 4),
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: n=16 and a shorter run")
    parser.add_argument("--n", type=int, default=None,
                        help="system size (default 512, or 16 with --quick)")
    parser.add_argument("--duration", type=float, default=None,
                        help="virtual-time duration (default 10, or 15 with --quick)")
    parser.add_argument("--backend", default="hashing",
                        help="crypto backend to profile under (default: hashing, "
                             "the backend whose runs the kernel share dominates)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=25,
                        help="functions per hotspot table (default 25)")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the report (default: the committed "
                             "BENCH_kernel_profile.json in full mode, nowhere "
                             "with --quick)")
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

    n = args.n if args.n is not None else (16 if args.quick else 512)
    duration = args.duration if args.duration is not None else (15.0 if args.quick else 10.0)

    stats, result = profile_scenario(n, duration, args.backend, args.seed)
    total_time = stats.total_tt  # type: ignore[attr-defined]

    by_cumulative = hotspot_rows(stats, "cumulative", args.top)
    by_internal = hotspot_rows(stats, "time", args.top)

    document = {
        "schema": "repro-kernel-profile/1",
        "generated_by": "benchmarks/profile_kernel.py",
        "version": __version__,
        "mode": "quick" if args.quick else "full",
        "parameters": {
            "n": n,
            "protocol": "lumiere",
            "f_actual": 0,
            "duration": duration,
            "seed": args.seed,
            "crypto_backend": args.backend,
            "top": args.top,
        },
        "run": {
            "profiled_wall_time": round(total_time, 4),
            "events_processed": result.simulator.events_processed,
            "decisions": result.honest_decisions(),
            "committed_blocks": result.committed_blocks(),
            "ledgers_consistent": result.ledgers_are_consistent(),
            "messages_sent": result.transport.messages_sent,
            "messages_delivered": result.transport.messages_delivered,
            "total_honest_messages": result.metrics.total_honest_messages,
        },
        "hotspots": {
            "by_cumulative_time": by_cumulative,
            "by_internal_time": by_internal,
        },
    }
    output = args.output if args.output is not None or args.quick else COMMITTED
    if output is not None:
        output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {output}")

    stream = io.StringIO()
    stats.stream = stream  # type: ignore[attr-defined]
    stats.sort_stats("cumulative").print_stats(15)
    print(stream.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
