"""Live-runtime integration tests: golden fault-free runs, how a run ends,
jitter, the wall clock, the ``live`` campaign backend, TCP smoke.

The transport stack — a seeded zero-jitter ``LocalTransport`` on the
simulator kernel — reaches exactly the decisions and ledgers the simulated
``Network`` fabric it replaced reached for the same scenario
(``tests/data/lane_fingerprints.json``, see ``tests/test_live_faults.py``).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.faults import FixedDelay, SilentLeaderBehaviour, spread_corruption
from repro.runner import (
    Campaign,
    LiveExecutor,
    Sweep,
    make_live_cluster,
    run_live_scenario,
)
from repro.runtime import MonotonicClock
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


# ----------------------------------------------------------------------
# Golden: SimRuntime + seeded LocalTransport == the captured Network fabric
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_transport_reproduces_simulator_exactly(seed):
    assert_reproduces_the_captured_fabric(f"fault_free/{seed}")


def test_equivalence_holds_under_faults():
    # run_live_scenario is run_scenario plus knobs: with none set, one run.
    config = _scenario(3)
    config.corruption = spread_corruption(
        config.protocol_config(), 1, SilentLeaderBehaviour
    )
    sim = run_scenario(config)
    live = run_live_scenario(config)
    assert _decisions(live.metrics) == _decisions(sim.metrics)
    assert _ledgers(live.replicas) == _ledgers(sim.replicas)
    assert live.ledgers_are_consistent() and live.committed_blocks() > 0


# ----------------------------------------------------------------------
# How a deterministic live run ends: duration, event budget, predicate
# ----------------------------------------------------------------------
def test_deterministic_run_ends_at_the_duration_on_one_kernel():
    config = _scenario(0, duration=12.5)
    result = run_live_scenario(config)
    assert result.simulator.now == result.runtime.now == 12.5
    assert result.events_processed == result.simulator.events_processed > 0


def test_deterministic_run_honours_the_event_budget():
    config = _scenario(0)
    assert run_live_scenario(config, max_events=100).events_processed == 100
    # With a predicate that never fires the budget still bounds the run...
    bounded = run_live_scenario(config, max_events=100, stop_when=lambda r: False)
    assert bounded.events_processed == 100
    # ...and without one, the duration does.
    full = run_live_scenario(config, stop_when=lambda r: False)
    assert full.simulator.now == config.duration
    assert _decisions(full.metrics) == _decisions(run_live_scenario(config).metrics)


def test_deterministic_run_stops_at_the_event_the_predicate_turns_true():
    config = _scenario(0)
    result = run_live_scenario(config, stop_when=lambda r: r.committed_blocks() >= 3)
    assert result.committed_blocks() == 3
    assert result.simulator.now < config.duration


# ----------------------------------------------------------------------
# Seeded jitter: deterministic replay, distinct schedules per seed
# ----------------------------------------------------------------------
def test_seeded_jitter_is_deterministic():
    config = _scenario(0, duration=20.0)
    first = run_live_scenario(config, jitter=0.3)
    second = run_live_scenario(config, jitter=0.3)
    assert _decisions(first.metrics) == _decisions(second.metrics)
    assert _ledgers(first.replicas) == _ledgers(second.replicas)
    assert first.committed_blocks() > 0
    assert first.ledgers_are_consistent() and second.ledgers_are_consistent()


def test_live_runs_execute_simulator_adversaries():
    # Since the chaos layer, a delay model or named scenario runs live under
    # a FaultyTransport instead of being rejected (full coverage of the
    # registry lives in test_live_faults.py).
    config = _scenario(0, gst=5.0, duration=20.0)
    config.delay_model = FixedDelay(0.1)
    scheduled = run_live_scenario(config)
    assert scheduled.committed_blocks() > 0
    assert scheduled.ledgers_are_consistent()

    named = _scenario(0, gst=5.0, duration=20.0, scenario="split_brain_at_gst")
    result = run_live_scenario(named)
    assert result.committed_blocks() > 0
    assert result.ledgers_are_consistent()
    assert result.metrics.counts["partition_epochs"] >= 1

    # Transport jitter on top of a schedule is rejected, not added.
    with pytest.raises(ConfigurationError):
        run_live_scenario(named, jitter=0.05)


# ----------------------------------------------------------------------
# Wall-clock mode (in-memory): real time, still safe
# ----------------------------------------------------------------------
def test_wall_clock_local_cluster_commits_in_real_time():
    # Condition-driven with a generous hard deadline: the run ends as soon
    # as three blocks commit, so a slow CI box gets the whole budget rather
    # than a fixed sleep sized for a fast one.
    config = _scenario(0, delta=0.1, duration=20.0)
    result = run_live_scenario(
        config,
        clock=MonotonicClock(),
        stop_when=lambda r: r.committed_blocks() >= 3,
    )
    assert result.committed_blocks() >= 3
    assert result.ledgers_are_consistent()
    # The wall lane reports the deterministic lanes' counter names.
    assert set(result.metrics.counts) == set(run_live_scenario(config).metrics.counts)
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
    result = run_live_scenario(
        config,
        clock=MonotonicClock(),
        stop_when=lambda r: r.metrics.counts["restarts"] >= 2,
    )
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
    result = run_live_scenario(_scenario(1, duration=80.0))
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
    result = run_live_scenario(
        config,
        clock=MonotonicClock(),
        stop_when=lambda r: r.committed_blocks() >= 40,
    )
    assert result.committed_blocks() >= 40
    assert result.ledgers_are_consistent()
    epochs = {replica.pacemaker.current_epoch for replica in result.replicas.values()}
    assert min(epochs) >= 3


# ----------------------------------------------------------------------
# Campaign integration: the "live" backend
# ----------------------------------------------------------------------
def _build_live_cell(params):
    return ScenarioConfig(
        n=params["n"],
        pacemaker=params["protocol"],
        delta=1.0,
        actual_delay=0.1,
        duration=params["duration"],
        seed=params["seed"],
    )


def test_live_campaign_backend_and_cache_salting(tmp_path):
    campaign = Campaign(
        name="live-backend-test",
        build=_build_live_cell,
        sweeps=(Sweep("protocol", ("lumiere", "fever")),),
        fixed={"n": 4, "duration": 20.0, "seed": 0},
    )
    cache = str(tmp_path / "cache")
    live = campaign.run(backend="live", cache=cache)
    assert len(live) == 2 and live.cache_misses == 2
    assert all(r.decisions > 0 and r.ledgers_consistent for r in live)
    assert all(r.key.startswith("live:") for r in live)

    # Second live run: full cache hits.
    again = campaign.run(backend="live", cache=cache)
    assert again.cache_hits == 2 and again.cache_misses == 0

    # Simulated run of the same grid must NOT see the live entries...
    simulated = campaign.run(backend="serial", cache=cache)
    assert simulated.cache_misses == 2
    # ...and (lumiere cell) agrees with the live record on decisions, since
    # zero-jitter live replay is sim-equivalent.
    live_lumiere = live.one(protocol="lumiere")
    sim_lumiere = simulated.one(protocol="lumiere")
    assert live_lumiere.decisions == sim_lumiere.decisions
    assert live_lumiere.committed_blocks == sim_lumiere.committed_blocks

    with pytest.raises(ConfigurationError):
        campaign.run(backend="serial", live_executor=LiveExecutor())
    with pytest.raises(ConfigurationError):
        campaign.run(backend="live", workers=4)

    # A differently configured live executor (jitter) must not answer from
    # the zero-jitter cache: its salt folds the jitter in.
    jittered = campaign.run(
        backend="live", cache=cache, live_executor=LiveExecutor(jitter=0.05)
    )
    assert jittered.cache_misses == 2
    assert all(r.key.startswith("live[jitter=0.05]:") for r in jittered)


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
