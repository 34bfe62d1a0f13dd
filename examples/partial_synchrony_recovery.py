#!/usr/bin/env python3
"""Partial synchrony: chaos before GST, recovery after it.

The adversary controls message delays before the Global Stabilisation Time.
This example drives a 7-processor Lumiere deployment through 60 time units
of pre-GST asynchrony (delays of tens of Delta) with two silent Byzantine
processors, then lets the network stabilise, and prints the recovery
timeline: when the first post-GST heavy epoch synchronisation completes,
when the first honest-leader decision lands (worst-case latency), and how
the system settles back into network-speed decisions.

Run with:  python examples/partial_synchrony_recovery.py
"""

from __future__ import annotations

from repro.faults import (
    SilentLeaderBehaviour,
    spread_corruption,
    worst_case_clock_dispersion_model,
)
from repro.experiments import ScenarioConfig, run_scenario


def main() -> None:
    gst = 60.0
    config = ScenarioConfig(
        n=7,
        pacemaker="lumiere",
        delta=1.0,
        actual_delay=0.1,
        gst=gst,
        duration=gst + 400.0,
        seed=7,
    )
    protocol_config = config.protocol_config()
    config.corruption = spread_corruption(protocol_config, 2, SilentLeaderBehaviour)
    config.delay_model = worst_case_clock_dispersion_model(
        protocol_config, config.actual_delay, pre_gst_max_delay=gst
    )
    result = run_scenario(config)
    metrics = result.metrics

    pre_gst_decisions = [d for d in metrics.honest_decisions() if d.time < gst]
    first_after = metrics.first_honest_decision_after(gst)
    latency = metrics.latency_after(gst)
    w_gst = metrics.communication_after(gst + config.delta)
    steady_gaps = metrics.decision_gaps(after=gst + 100.0)

    print("Partial synchrony recovery (Lumiere, n=7, f_a=2, GST=60)")
    print("-" * 56)
    print(f"decisions before GST                 : {len(pre_gst_decisions)}")
    print(f"first honest decision after GST      : t={first_after.time:.2f} (view {first_after.view})")
    print(f"worst-case latency (t*_GST - GST)    : {latency:.2f}  [bound: O(n * Delta)]")
    print(f"W_(GST+Delta) honest messages        : {w_gst}        [bound: O(n^2)]")
    print(f"heavy epoch syncs after t=GST+150    : {metrics.epoch_syncs_after(gst + 150.0)}")
    if steady_gaps:
        print(f"steady-state worst decision gap      : {max(steady_gaps):.2f}")
    print(f"honest ledgers consistent            : {result.ledgers_are_consistent()}")
    print()
    print("Heavy epoch synchronisations observed (value = the epoch):")
    for event in metrics.events("epoch_sync")[:10]:
        print(f"  {event}")


if __name__ == "__main__":
    main()
