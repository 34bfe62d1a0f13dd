#!/usr/bin/env python3
"""Scaling benchmark: crypto backends across system sizes.

Runs a gauntlet-lite scenario matrix (pacemaker x fault load, swept over the
``crypto_backend`` campaign axis) at n in {4, 16, 64, 128, 256, 512, 1024}
plus a pure certificate-pipeline microbenchmark of the crypto seam itself
(partial-sign -> verify -> combine -> per-recipient aggregate verification),
and writes machine-readable ``BENCH_scaling.json`` at the repository root.

System sizes at or above ``LARGE_N`` (256) run a reduced tier — Lumiere
only, no faults, shorter duration — because at that scale the simulator
kernel dominates and one protocol cell per backend is enough to measure it;
the full pacemaker x fault matrix at n=1024 would take hours without
saying anything new.  The certificate-pipeline round count is likewise
scaled down at large n (`rounds * 128 // n`, floor 5) so the microbenchmark
stays O(minutes) while still exercising full-width quorums.

Two speedup figures are reported per system size, deliberately:

* ``crypto_speedup`` — counting vs hashing on the certificate pipeline, the
  workload the backend seam serves.  This is where the asymptotic win lives
  (the gate below applies here).
* ``end_to_end_speedup`` — counting vs hashing on full simulation runs.
  Bounded by the simulator kernel's share of the runtime (Amdahl), so it is
  smaller; it is reported unmassaged so future kernel work has a baseline.

Correctness gates (the script exits non-zero if any fails):

* both backends produce **identical decision counts** on every scenario cell;
* **zero safety violations** (honest ledgers consistent) everywhere;
* ``crypto_speedup`` at the largest n is at least ``--min-crypto-speedup``
  (3.0 by default, 1.0 in ``--quick`` mode);
* in quick mode, counting is not slower end-to-end (with a 20% allowance
  for shared-runner scheduling noise; the true margin is ~1.5x);
* with ``--check-baseline FILE``, every cell's ``decisions`` and
  ``committed_blocks`` must match the committed baseline exactly.  Decision
  counts are deterministic per seed — machine-independent — so this is the
  correctness guard CI uses to detect accidental trace changes (timing
  gates cannot run on shared runners; this one can);
* ``--check-baseline`` also asserts that the committed ``BENCH_scaling.json``
  (if present) was generated by the *current* repro version: a stale one
  left over from an earlier release fails the check until it is re-run and
  recommitted.

Only full mode writes ``BENCH_scaling.json`` by default; a quick run writes
its document only where ``--output`` says.

That batched share verification at certificate combine decides the same
run as the per-share reference path is a tier-1 test
(``tests/test_crypto_backends.py::test_backends_produce_identical_decisions_and_stay_safe``).

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling.py            # full matrix
    PYTHONPATH=src python benchmarks/bench_scaling.py --quick    # n in {16, 256}, no file
    PYTHONPATH=src python benchmarks/bench_scaling.py --quick \\
        --check-baseline benchmarks/BASELINE_smoke.json          # CI guard
    PYTHONPATH=src python benchmarks/bench_scaling.py --quick \\
        --write-baseline benchmarks/BASELINE_smoke.json          # refresh it
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from repro.crypto.backend import make_backend
from repro.crypto.signatures import PKI
from repro.crypto.threshold import ThresholdScheme
from repro.experiments.scenario import build_spread_fault_config
from repro.runner import Campaign, Sweep
from repro.version import __version__

BACKENDS = ("hashing", "counting")
#: The committed full-mode document.
COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"
FULL_NS = (4, 16, 64, 128, 256, 512, 1024)
QUICK_NS = (16, 256)
LARGE_N = 256  # at/above this the kernel dominates: reduced tier (see module docstring)


def tier_for_n(n: int, quick: bool) -> tuple[tuple[str, ...], tuple[int, ...], float]:
    """``(protocols, f_values, duration)`` for a system size.

    The large-n tier is the same in quick and full modes so the committed
    quick baseline also guards the n=256 kernel cell.
    """
    if n >= LARGE_N:
        return ("lumiere",), (0,), 10.0
    if quick:
        return ("lumiere", "fever"), (0,), 15.0
    return ("lumiere", "fever", "lp22"), (0, 1), 25.0


def rounds_for_n(n: int, rounds: int) -> int:
    """Certificate-pipeline rounds for a system size (scaled down at large n)."""
    if n <= 128:
        return rounds
    return max(5, rounds * 128 // n)


def scenario_campaign(n: int, protocols: tuple[str, ...], f_values: tuple[int, ...],
                      duration: float) -> Campaign:
    """The gauntlet-lite matrix for one system size, with the backend as a sweep axis."""
    return Campaign(
        name=f"scaling-n{n}",
        build=build_spread_fault_config,
        sweeps=(
            Sweep("crypto_backend", BACKENDS),
            Sweep("protocol", protocols),
            Sweep("f_actual", f_values),
        ),
        fixed={"n": n, "delta": 1.0, "actual_delay": 0.1, "duration": duration, "seed": 0},
    )


def run_scenario_matrix(ns, quick: bool) -> list[dict[str, Any]]:
    """Execute every cell serially (fresh, uncached) and flatten to JSON rows."""
    rows: list[dict[str, Any]] = []
    for n in ns:
        protocols, f_values, duration = tier_for_n(n, quick)
        result = scenario_campaign(n, protocols, f_values, duration).run(backend="serial")
        for record in result:
            rows.append(
                {
                    "n": n,
                    "protocol": record.params["protocol"],
                    "f_actual": record.params["f_actual"],
                    "backend": record.params["crypto_backend"],
                    "wall_time": round(record.wall_time, 4),
                    "events_processed": record.events_processed,
                    "events_per_sec": round(record.events_processed / record.wall_time)
                    if record.wall_time > 0
                    else None,
                    "decisions": record.decisions,
                    "committed_blocks": record.committed_blocks,
                    "ledgers_consistent": record.ledgers_consistent,
                }
            )
        print(f"[scenario] n={n}: {len(result)} cells done")
    return rows


def run_crypto_pipeline(backend_name: str, n: int, rounds: int) -> dict[str, Any]:
    """One certificate pipeline: sign, verify, combine, verify-at-every-recipient."""
    backend = make_backend(backend_name)
    pki, keys = PKI.setup(range(n), backend=backend)
    # The verified-aggregate cache is disabled so the microbenchmark keeps
    # measuring the *raw* per-verification seam cost (the end-to-end scenario
    # rows measure the cached behaviour the simulation actually runs with).
    scheme = ThresholdScheme(pki, cache_verified=False)
    quorum = 2 * ((n - 1) // 3) + 1
    start = time.perf_counter()
    for round_index in range(rounds):
        message = ("qc", round_index, f"block-{round_index}")
        partials = [scheme.partial_sign(keys[i], message) for i in range(quorum)]
        for partial in partials:
            if not scheme.verify_partial(partial, message):
                raise AssertionError("pipeline share failed verification")
        aggregate = scheme.combine(partials, quorum, message)
        for _ in range(n):  # every recipient of the broadcast checks the certificate
            if not scheme.verify(aggregate, message, quorum):
                raise AssertionError("pipeline aggregate failed verification")
    wall = time.perf_counter() - start
    return {
        "n": n,
        "backend": backend_name,
        "rounds": rounds,
        "quorum": quorum,
        "wall_time": round(wall, 4),
        "digest_calls": backend.digest_calls,
        "digests_per_sec": round(backend.digest_calls / wall) if wall > 0 else None,
        "batch_verifies": backend.batch_verifies,
        "batched_shares": backend.batched_shares,
        "saved_dispatches": backend.batched_shares - backend.batch_verifies,
    }


def aggregate(scenario_rows, crypto_rows, ns) -> dict[str, Any]:
    per_n: dict[str, Any] = {}
    for n in ns:
        walls = {
            backend: sum(
                row["wall_time"]
                for row in scenario_rows
                if row["n"] == n and row["backend"] == backend
            )
            for backend in BACKENDS
        }
        crypto = {
            row["backend"]: row["wall_time"]
            for row in crypto_rows
            if row["n"] == n
        }
        per_n[str(n)] = {
            "hashing_wall_time": round(walls["hashing"], 4),
            "counting_wall_time": round(walls["counting"], 4),
            "end_to_end_speedup": round(walls["hashing"] / walls["counting"], 3)
            if walls["counting"]
            else None,
            "crypto_hashing_wall_time": crypto.get("hashing"),
            "crypto_counting_wall_time": crypto.get("counting"),
            "crypto_speedup": round(crypto["hashing"] / crypto["counting"], 3)
            if crypto.get("counting")
            else None,
        }
    return per_n


def baseline_cells(scenario_rows) -> list[dict[str, Any]]:
    """The machine-independent residue of the scenario matrix: per-cell
    decision and commit counts (plus the safety bit), no timings."""
    return [
        {
            "n": row["n"],
            "protocol": row["protocol"],
            "f_actual": row["f_actual"],
            "backend": row["backend"],
            "decisions": row["decisions"],
            "committed_blocks": row["committed_blocks"],
            "ledgers_consistent": row["ledgers_consistent"],
        }
        for row in scenario_rows
    ]


def check_baseline(scenario_rows, baseline_path: Path, run_mode: str) -> list[str]:
    """Compare the run's decision/commit counts against a committed baseline.

    Returns failure strings (empty when every baseline cell was reproduced
    exactly).  Cells in the run but not the baseline are ignored — widening
    the matrix must not require a baseline refresh — but every baseline
    cell must be present and identical.  A baseline recorded in a different
    mode fails fast with the real reason: quick and full cells run with
    different durations, so their counts legitimately differ.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    baseline_mode = baseline.get("mode")
    if baseline_mode is not None and baseline_mode != run_mode:
        return [
            f"baseline {baseline_path} was recorded in {baseline_mode!r} mode but "
            f"this is a {run_mode!r} run; the cells use different durations, so "
            "counts legitimately differ — compare like with like"
        ]
    observed = {
        (cell["n"], cell["protocol"], cell["f_actual"], cell["backend"]): cell
        for cell in baseline_cells(scenario_rows)
    }
    failures: list[str] = []
    for expected in baseline["cells"]:
        key = (expected["n"], expected["protocol"], expected["f_actual"], expected["backend"])
        cell = observed.get(key)
        if cell is None:
            failures.append(f"baseline cell {key} missing from this run's matrix")
        elif cell != expected:
            failures.append(
                f"baseline mismatch at {key}: expected {expected}, got {cell} "
                "(a deliberate trace change needs --write-baseline)"
            )
    return failures


def check_output_version(output_path: Path) -> list[str]:
    """Assert the committed ``--output`` JSON was generated by this version.

    Catches the staleness failure mode where the repo version moves on but
    ``BENCH_scaling.json`` is never re-run: the committed document carries
    the version that produced it, so a mismatch means the numbers describe
    an older codebase.  A missing or unparseable file is not a failure —
    the run about to complete will (re)write it.
    """
    try:
        committed = json.loads(output_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    committed_version = committed.get("version")
    if committed_version is not None and committed_version != __version__:
        return [
            f"committed {output_path} was generated by version {committed_version} "
            f"but the repo is at {__version__}; re-run the benchmark and commit "
            "the refreshed JSON"
        ]
    return []


def check(scenario_rows, per_n, ns, min_crypto_speedup, quick) -> dict[str, Any]:
    """Evaluate the correctness/performance gates; returns the checks blob."""
    failures: list[str] = []

    # Identical decision counts per cell across backends.
    by_cell: dict[tuple, dict[str, int]] = {}
    for row in scenario_rows:
        by_cell.setdefault((row["n"], row["protocol"], row["f_actual"]), {})[
            row["backend"]
        ] = row["decisions"]
    mismatched = {
        cell: counts for cell, counts in by_cell.items() if len(set(counts.values())) != 1
    }
    if mismatched:
        failures.append(f"decision counts differ across backends: {mismatched}")

    unsafe = [row for row in scenario_rows if not row["ledgers_consistent"]]
    if unsafe:
        failures.append(f"safety violations in {len(unsafe)} cells")

    max_n = str(max(ns))
    crypto_speedup = per_n[max_n]["crypto_speedup"]
    if crypto_speedup is None or crypto_speedup < min_crypto_speedup:
        failures.append(
            f"crypto speedup at n={max_n} is {crypto_speedup}, "
            f"required >= {min_crypto_speedup}"
        )

    # Wall-clock comparisons on shared CI runners are noisy, so "counting is
    # not slower" is enforced with a generous 20% allowance: the true ratio
    # is ~1.5x at n=16, so only a genuine regression trips this, not
    # scheduling jitter.  The deterministic gates above do the real work.
    end_to_end = per_n[max_n]["end_to_end_speedup"]
    if quick and (end_to_end is None or end_to_end < 0.8):
        failures.append(
            f"counting is slower end-to-end at n={max_n} "
            f"(speedup {end_to_end}, must be >= 0.8)"
        )

    return {
        "identical_decisions": not mismatched,
        "zero_safety_violations": not unsafe,
        "crypto_speedup_at_max_n": crypto_speedup,
        "end_to_end_speedup_at_max_n": end_to_end,
        "min_crypto_speedup_required": min_crypto_speedup,
        "failures": failures,
        "passed": not failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: n in {16, 256} only, short runs, relaxed speedup gate")
    parser.add_argument("--ns", type=str, default=None,
                        help="comma-separated system sizes (overrides mode default)")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"where to write the run's document (default: {COMMITTED.name} "
                             "in full mode, nowhere with --quick)")
    parser.add_argument("--min-crypto-speedup", type=float, default=None,
                        help="gate on the crypto pipeline at the largest n "
                             "(default 3.0, or 1.0 with --quick)")
    parser.add_argument("--rounds", type=int, default=60,
                        help="certificate rounds per crypto-pipeline cell "
                             "(scaled down automatically for n > 128)")
    parser.add_argument("--check-baseline", type=Path, default=None,
                        help="fail unless per-cell decision/commit counts match "
                             "this committed baseline JSON exactly")
    parser.add_argument("--write-baseline", type=Path, default=None,
                        help="write the run's per-cell decision/commit counts "
                             "as a new baseline JSON")
    args = parser.parse_args(argv)

    ns = tuple(int(x) for x in args.ns.split(",")) if args.ns else (
        QUICK_NS if args.quick else FULL_NS
    )
    min_crypto_speedup = (
        args.min_crypto_speedup
        if args.min_crypto_speedup is not None
        else (1.0 if args.quick else 3.0)
    )
    scenario_rows = run_scenario_matrix(ns, args.quick)
    crypto_rows = [
        run_crypto_pipeline(backend, n, rounds_for_n(n, args.rounds))
        for n in ns
        for backend in BACKENDS
    ]
    per_n = aggregate(scenario_rows, crypto_rows, ns)
    checks = check(scenario_rows, per_n, ns, min_crypto_speedup, args.quick)

    if args.write_baseline is not None:
        baseline_doc = {
            "schema": "repro-bench-baseline/1",
            "generated_by": "benchmarks/bench_scaling.py",
            "mode": "quick" if args.quick else "full",
            "cells": baseline_cells(scenario_rows),
        }
        args.write_baseline.write_text(
            json.dumps(baseline_doc, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote baseline {args.write_baseline}")
    if args.check_baseline is not None:
        baseline_failures = check_baseline(
            scenario_rows, args.check_baseline, "quick" if args.quick else "full"
        )
        version_failures = check_output_version(COMMITTED)
        checks["baseline_matched"] = not baseline_failures
        checks["output_version_current"] = not version_failures
        if baseline_failures or version_failures:
            checks["failures"].extend(baseline_failures)
            checks["failures"].extend(version_failures)
            checks["passed"] = False

    tiers = {
        str(n): dict(zip(("protocols", "f_values", "duration"),
                         tier_for_n(n, args.quick)))
        for n in ns
    }
    document = {
        "schema": "repro-bench-scaling/1",
        "generated_by": "benchmarks/bench_scaling.py",
        "version": __version__,
        "mode": "quick" if args.quick else "full",
        "parameters": {
            "ns": list(ns),
            "backends": list(BACKENDS),
            "tiers": tiers,
            "crypto_rounds": args.rounds,
        },
        "scenario_runs": scenario_rows,
        "crypto_runs": crypto_rows,
        "aggregates": {"per_n": per_n},
        "checks": checks,
    }
    output = args.output if args.output is not None or args.quick else COMMITTED
    if output is not None:
        output.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {output}")
    for n, agg in per_n.items():
        print(
            f"  n={n}: end-to-end {agg['end_to_end_speedup']}x, "
            f"crypto pipeline {agg['crypto_speedup']}x"
        )
    if not checks["passed"]:
        for failure in checks["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
