#!/usr/bin/env python3
"""Campaigns: declarative sweeps, parallel execution, and result caching.

This example shows the full campaign workflow end to end:

1. declare a cartesian grid — pacemaker x GST placement x seed — over the
   scenario harness with a module-level ``build`` function;
2. execute it (serial by default; ``REPRO_BACKEND=process`` fans the cells
   out over a process pool);
3. cache every cell's result on disk, so running this script a second time
   executes nothing and reads everything back from ``.repro-cache/``;
4. aggregate the records — here, worst-case recovery latency after GST per
   pacemaker, averaged over seeds.

Run with:  python examples/campaign_sweep.py  (twice, to see the cache hit)
"""

from __future__ import annotations

import os

from repro.faults import SilentLeaderBehaviour, spread_corruption
from repro.experiments import ScenarioConfig
from repro.runner import Campaign, Sweep

PACEMAKERS = ("lumiere", "lp22", "fever")
GSTS = (0.0, 40.0)
SEEDS = (0, 1, 2)


def build_config(params: dict) -> ScenarioConfig:
    """Each cell: n=7, two silent faults, chaos-free network after GST."""
    config = ScenarioConfig(
        n=7,
        pacemaker=params["pacemaker"],
        delta=1.0,
        actual_delay=0.1,
        gst=params["gst"],
        duration=params["gst"] + 300.0,
        seed=params["seed"],
    )
    config.corruption = spread_corruption(config.protocol_config(), 2, SilentLeaderBehaviour)
    return config


def main() -> None:
    campaign = Campaign(
        name="recovery-latency",
        build=build_config,
        sweeps=(
            Sweep("pacemaker", PACEMAKERS),
            Sweep("gst", GSTS),
            Sweep("seed", SEEDS),
        ),
    )
    print(f"campaign {campaign.name!r}: {len(campaign)} cells "
          f"({len(PACEMAKERS)} pacemakers x {len(GSTS)} GSTs x {len(SEEDS)} seeds)")

    result = campaign.run(
        backend=os.environ.get("REPRO_BACKEND", "serial"),
        # Defaults to .repro-cache (this example is the cache demo);
        # REPRO_CACHE= (empty) disables caching, as in the other examples.
        cache=os.environ.get("REPRO_CACHE", ".repro-cache") or None,
    )
    print(result.describe())
    print()

    print(f"{'pacemaker':<10} {'GST':>6} {'mean latency after GST':>24} {'all safe':>9}")
    print("-" * 52)
    for pacemaker in PACEMAKERS:
        for gst in GSTS:
            records = result.select(pacemaker=pacemaker, gst=gst)
            latencies = [
                r.summary.worst_case_latency
                for r in records
                if r.summary.worst_case_latency is not None
            ]
            mean = sum(latencies) / len(latencies) if latencies else float("nan")
            safe = all(r.ledgers_consistent for r in records)
            print(f"{pacemaker:<10} {gst:>6.1f} {mean:>24.2f} {str(safe):>9}")
    print()
    print("Each cell is content-addressed: rerun this script and every cell is a")
    print("cache hit; change any parameter (or the package version) and only the")
    print("affected cells are re-executed.")


if __name__ == "__main__":
    main()
