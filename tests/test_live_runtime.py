"""Runtime integration tests: golden fault-free runs, how a stepped run
ends, latency noise, the wall clock (inline TCP clusters), TCP smoke.

The virtual-time lane — a ``LocalTransport`` on the simulator kernel —
reaches exactly the decisions and ledgers the simulated ``Network`` fabric
it replaced reached for the same scenario
(``tests/data/lane_fingerprints.json``, see ``tests/test_live_faults.py``).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.scenario import (
    ScenarioConfig,
    build_scenario,
    run_scenario,
    start_replicas,
)
from repro.faults import FixedDelay, SilentLeaderBehaviour, UniformDelay, spread_corruption
from repro.runner import make_live_cluster
from test_live_faults import assert_reproduces_the_captured_fabric


def _scenario(seed: int, **overrides) -> ScenarioConfig:
    defaults = dict(
        n=4,
        pacemaker="lumiere",
        delta=1.0,
        actual_delay=0.1,
        gst=0.0,
        duration=30.0,
        seed=seed,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _decisions(metrics):
    return [(d.view, d.leader) for d in metrics.decisions]


def _ledgers(replicas):
    return {pid: replica.ledger.block_ids for pid, replica in replicas.items()}


def run_until(config: ScenarioConfig, predicate):
    """Run ``config`` in virtual time one event at a time, stopping at the
    event after which ``predicate(result)`` holds (or at the duration)."""
    result = build_scenario(config)
    start_replicas(result.replicas)
    simulator = result.simulator
    while not predicate(result):
        before = simulator.events_processed
        simulator.run(until=config.duration, max_events=1)
        if simulator.events_processed == before:
            break  # drained, or the next event lies beyond the duration
    return result


def _run_inline(config: ScenarioConfig, stop_when):
    """An inline TCP cluster on the wall clock, run until ``stop_when(cluster)``
    or ``config.duration`` wall seconds, then stopped."""
    async def run():
        cluster = make_live_cluster(config, placement="inline")
        try:
            await cluster.run(config.duration, stop_when=stop_when)
        finally:
            await cluster.stop()
        return cluster

    return asyncio.run(run())


# ----------------------------------------------------------------------
# Golden: SimRuntime + LocalTransport == the captured Network fabric
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_transport_reproduces_simulator_exactly(seed):
    assert_reproduces_the_captured_fabric(f"fault_free/{seed}")


def test_equivalence_holds_under_faults():
    # Stepping the kernel one event at a time is the same run as one call,
    # with a silent leader in it.
    config = _scenario(3)
    config.corruption = spread_corruption(
        config.protocol_config(), 1, SilentLeaderBehaviour
    )
    whole = run_scenario(config)
    stepped = run_until(config, lambda r: False)
    assert _decisions(stepped.metrics) == _decisions(whole.metrics)
    assert _ledgers(stepped.replicas) == _ledgers(whole.replicas)
    assert stepped.ledgers_are_consistent() and stepped.committed_blocks() > 0


# ----------------------------------------------------------------------
# How a virtual-time run ends: duration, event budget, predicate
# ----------------------------------------------------------------------
def test_deterministic_run_ends_at_the_duration_on_one_kernel():
    config = _scenario(0, duration=12.5)
    result = run_scenario(config)
    assert result.simulator.now == result.runtime.now == 12.5
    assert result.events_processed == result.simulator.events_processed > 0


def test_deterministic_run_honours_the_event_budget():
    config = _scenario(0)
    assert run_scenario(config, max_events=100).events_processed == 100
    # Stepped one event at a time under a predicate that never fires, the
    # duration ends the run, at the decisions of one uninterrupted run.
    full = run_until(config, lambda r: False)
    assert full.simulator.now == config.duration
    assert _decisions(full.metrics) == _decisions(run_scenario(config).metrics)


def test_deterministic_run_stops_at_the_event_the_predicate_turns_true():
    config = _scenario(0)
    result = run_until(config, lambda r: r.committed_blocks() >= 3)
    assert result.committed_blocks() == 3
    assert result.simulator.now < config.duration


# ----------------------------------------------------------------------
# Latency noise is a delay model: deterministic replay per seed
# ----------------------------------------------------------------------
def test_seeded_jitter_is_deterministic():
    config = _scenario(0, duration=20.0, delay_model=UniformDelay(0.1, 0.4))
    first = run_scenario(config)
    second = run_scenario(config)
    assert _decisions(first.metrics) == _decisions(second.metrics)
    assert _ledgers(first.replicas) == _ledgers(second.replicas)
    assert first.committed_blocks() > 0
    assert first.ledgers_are_consistent() and second.ledgers_are_consistent()


def test_live_runs_execute_simulator_adversaries():
    # A delay model or named scenario runs under a FaultyTransport (full
    # coverage of the registry lives in test_live_faults.py).
    config = _scenario(0, gst=5.0, duration=20.0)
    config.delay_model = FixedDelay(0.1)
    scheduled = run_scenario(config)
    assert scheduled.committed_blocks() > 0
    assert scheduled.ledgers_are_consistent()

    named = _scenario(0, gst=5.0, duration=20.0, scenario="split_brain_at_gst")
    result = run_scenario(named)
    assert result.committed_blocks() > 0
    assert result.ledgers_are_consistent()
    assert result.metrics.counts["partition_epochs"] >= 1


# ----------------------------------------------------------------------
# Wall clock (an inline TCP cluster): real time, still safe
# ----------------------------------------------------------------------
def test_wall_clock_local_cluster_commits_in_real_time():
    # Condition-driven with a generous hard deadline: the run ends as soon
    # as three blocks commit, so a slow CI box gets the whole budget rather
    # than a fixed sleep sized for a fast one.
    config = _scenario(0, delta=0.1, duration=20.0)
    result = _run_inline(config, lambda c: c.min_committed() >= 3).result()
    assert result.committed_blocks() >= 3
    assert result.ledgers_are_consistent()
    # The wall lane reports the virtual-time lane's counter names.
    assert set(result.metrics.counts) == set(run_scenario(config).metrics.counts)
    # Wall timestamps: monotone, non-virtual times recorded by the collector.
    # The WALL_START_GRACE re-anchor may push the very first events a hair
    # before zero, but never out of order.
    times = [d.time for d in result.metrics.decisions]
    assert times == sorted(times)
    assert all(t >= -1.0 for t in times)


def test_wall_clock_local_cluster_counts_each_downtime_window_once():
    # Kills and restarts are counted by the replica's own crash/recover
    # timers, so even on a wall clock the totals are exact, not sampled.
    config = _scenario(
        0, delta=0.1, duration=3.0, scenario="crash_churn",
        scenario_params={"downtime": 0.3, "period": 0.8, "cycles": 2},
    )
    result = _run_inline(config, lambda c: c.metrics.counts["restarts"] >= 2).result()
    counts = result.metrics.counts
    assert (counts["kills"], counts["restarts"]) == (2, 2)
    assert result.ledgers_are_consistent()


# ----------------------------------------------------------------------
# One runtime timer per view entered
# ----------------------------------------------------------------------
def test_a_view_entry_arms_one_clock_timer_and_fires_none_for_an_entered_view(monkeypatch):
    from repro.core.lumiere import LumierePacemaker
    from repro.runtime.simulation import SimRuntime
    from repro.sim.clock import LocalClock

    clock_timers = []  # delays of the runtime timers LocalClock armed
    stale_fires = []  # _on_clock_target(view) with view already entered
    set_timer = SimRuntime.set_timer
    on_clock_target = LumierePacemaker._on_clock_target

    def counting_set_timer(self, delay, callback, *args, **kwargs):
        if isinstance(getattr(callback, "__self__", None), LocalClock):
            clock_timers.append(delay)
        return set_timer(self, delay, callback, *args, **kwargs)

    def watching_on_clock_target(self, view):
        if view <= self.current_view:
            stale_fires.append(view)
        on_clock_target(self, view)

    monkeypatch.setattr(SimRuntime, "set_timer", counting_set_timer)
    monkeypatch.setattr(LumierePacemaker, "_on_clock_target", watching_on_clock_target)
    result = run_scenario(_scenario(1, duration=80.0))
    entries = len(result.metrics.events("enter_view"))
    assert result.max_honest_view() >= 200 and entries >= 4 * 200
    # A view entered on a QC cancels the pending boundary timer, bumps, and
    # arms the next boundary: one timer, not re-arm / zero-delay no-op /
    # re-arm (3.5 per entry before).
    assert len(clock_timers) <= 1.5 * entries
    assert stale_fires == []


def test_wall_clock_lumiere_keeps_committing_across_epoch_boundaries():
    # One-round epochs (8 views at n=4) on a real clock: every few views a
    # QC bumps the replicas exactly onto an epoch view's clock time, and a
    # few microseconds pass before the pacemaker reads the clock again.  It
    # must still be offered that boundary, or the run live-locks there.
    from repro.core.config import LumiereConfig

    config = _scenario(0, delta=0.1, actual_delay=0.002, duration=20.0)
    config.pacemaker_config = LumiereConfig(
        protocol=config.protocol_config(), epoch_rounds=1
    )
    result = _run_inline(config, lambda c: c.min_committed() >= 40).result()
    assert result.committed_blocks() >= 40
    assert result.ledgers_are_consistent()
    epochs = {replica.pacemaker.current_epoch for replica in result.replicas.values()}
    assert min(epochs) >= 3


# ----------------------------------------------------------------------
# TCP smoke: n=4 over localhost commits >= 5 blocks under a hard timeout
# ----------------------------------------------------------------------
def test_tcp_cluster_smoke():
    async def scenario():
        cluster = make_live_cluster(
            ScenarioConfig(
                n=4, pacemaker="lumiere", delta=0.2, duration=25.0, seed=0,
            )
        )
        try:
            # Condition-polled with a hard outer deadline: the run returns the
            # moment the fifth block commits everywhere, never sleeps a fixed
            # amount, and wait_for guarantees the test cannot hang past 28s.
            commits = await asyncio.wait_for(
                cluster.run_until_commits(5, timeout=25.0, poll=0.01), timeout=28.0
            )
            consistent = cluster.ledgers_are_consistent()
            decisions = len(cluster.metrics.honest_decisions())
        finally:
            await cluster.stop()
        return commits, consistent, decisions

    commits, consistent, decisions = asyncio.run(scenario())
    assert commits >= 5, f"only {commits} blocks within the wall-clock budget"
    assert consistent
    assert decisions >= commits
