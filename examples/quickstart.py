#!/usr/bin/env python3
"""Quickstart: run Lumiere + chained HotStuff in the simulator.

Builds a 4-processor, fault-free deployment, runs it for 120 time units of
virtual time, and prints what the system did: how many consensus decisions
honest leaders produced, how fast they came, how many messages were spent,
and the first rows of processor 0 in the run's event table.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.experiments import ScenarioConfig, run_scenario


def main() -> None:
    config = ScenarioConfig(
        n=4,                # 4 processors => tolerates f = 1 Byzantine fault
        pacemaker="lumiere",
        delta=1.0,          # the known post-GST bound Delta
        actual_delay=0.1,   # the actual network delay delta (unknown to the protocol)
        gst=0.0,            # the network is synchronous from the start
        duration=120.0,     # virtual time to simulate
    )
    result = run_scenario(config)
    summary = result.summary()

    print("Lumiere quickstart (n=4, fault-free)")
    print("-" * 48)
    print(f"honest-leader decisions        : {summary.decisions}")
    print(f"committed blocks               : {result.committed_blocks()}")
    print(f"highest view reached           : {result.max_honest_view()}")
    print(f"honest messages sent           : {summary.total_messages}")
    print(f"steady-state worst decision gap: {summary.eventual_latency:.3f} "
          f"(= O(delta), delta = {config.actual_delay})")
    print(f"heavy epoch syncs after warmup : {summary.heavy_syncs_after_warmup}")
    print(f"honest ledgers consistent      : {result.ledgers_are_consistent()}")
    print()

    # The first pacemaker-level rows of processor 0 in the run's event table.
    print("Event excerpt (processor 0):")
    kinds = {"enter_view", "proposal_sent", "lumiere_success_criterion",
             "lumiere_epoch_view_sent"}
    rows = [event for event in result.metrics.events(pid=0) if event.kind in kinds]
    for event in rows[:12]:
        print(f"  {event}")


if __name__ == "__main__":
    main()
