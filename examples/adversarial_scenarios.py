#!/usr/bin/env python3
"""The named scenario library: adversarial schedules as one-line configs.

Every entry in :mod:`repro.faults.library` is a named, parameterised
adversarial setup — partitions, rotating leader denial-of-service,
traffic-class throttling, crash/recovery churn — that a ``ScenarioConfig``
references by name:

    ScenarioConfig(pacemaker="lumiere", gst=20.0, scenario="split_brain_at_gst")

and that campaigns sweep like any other axis.  This example lists the
catalogue, runs a few scenarios against two pacemakers, and prints the
pacemaker x scenario comparison the gauntlet benchmark produces in full.

Run with:  PYTHONPATH=src python examples/adversarial_scenarios.py
"""

from __future__ import annotations

import os

from repro.experiments import ScenarioConfig, gauntlet_table, run_scenario, scenario_gauntlet
from repro.faults import get_scenario, scenario_catalogue

SCENARIOS = ("split_brain_at_gst", "rotating_leader_dos", "crash_churn", "view_sync_throttle")
PACEMAKERS = ("lumiere", "lp22")


def main() -> None:
    print("The scenario library")
    print("-" * 72)
    for entry in scenario_catalogue():
        print(f"{entry.name:<22} {entry.intent}")
    print()

    # One scenario, in full: a partition that heals exactly at GST.
    print("One run: lumiere under split_brain_at_gst (n=7, GST=20)")
    config = ScenarioConfig(
        n=7,
        pacemaker="lumiere",
        gst=20.0,
        duration=140.0,
        seed=0,
        scenario="split_brain_at_gst",
    )
    result = run_scenario(config)
    print(f"  decisions={result.honest_decisions()} "
          f"committed={result.committed_blocks()} "
          f"safe={result.ledgers_are_consistent()}")
    print()

    # Scenario parameters are overridable per run:
    entry = get_scenario("rotating_leader_dos")
    knobs = ", ".join(f"{p.name} (default {p.default})" for p in entry.parameters)
    print(f"rotating_leader_dos knobs: {knobs}")
    print()

    # The comparison the gauntlet benchmark runs across the full library:
    print(f"Gauntlet excerpt: {PACEMAKERS} x {SCENARIOS} — decisions")
    cells = scenario_gauntlet(
        PACEMAKERS,
        SCENARIOS,
        n=7,
        gst=20.0,
        duration=170.0,
        backend=os.environ.get("REPRO_BACKEND", "serial"),
        cache=os.environ.get("REPRO_CACHE") or None,
    )
    print(gauntlet_table(cells, measure="decisions"))
    print()
    print("Worst post-GST decision gap")
    print(gauntlet_table(cells, measure="max_gap"))
    print()
    print("Every scenario stays inside the partial-synchrony envelope, so safety")
    print("and liveness are required everywhere; what varies is how much latency")
    print("the adversary extracts — the separation the paper is about.")


if __name__ == "__main__":
    main()
