"""Cross-runtime conformance suite: every named scenario, sim vs live.

The chaos layer's headline guarantee (ISSUE 7 acceptance): for *every*
scenario in the ``repro.faults`` registry, a zero-jitter live run on the
simulator kernel (:class:`~repro.runtime.simulation.SimRuntime` over a
:class:`~repro.runtime.transports.LocalTransport`) — delay schedules
imposed by a :class:`~repro.runtime.chaos.FaultyTransport` — reaches
exactly the simulated network's decisions, ledgers and fault counts, across
multiple seeds, with zero safety violations and the injected-fault counters
the scenario implies.  A TCP wall-clock subset (marked ``tcp``) smoke-tests the real
socket lane, where the schedule is an approximation by design.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.faults.library import available_scenarios
from repro.runner import Campaign, Sweep, make_live_cluster, run_live_scenario
from repro.runtime.chaos import BASE_FAULT_COUNTS
from repro.sim.network import DelayModel

ALL_SCENARIOS = tuple(available_scenarios())

#: Faster knobs for scenarios whose defaults are sized for long runs: the
#: churn cycle must fit the test duration, and the calm/chaos waves must
#: actually reach a chaotic window before the run ends.
SCENARIO_OVERRIDES = {
    "crash_churn": {"downtime": 4.0, "period": 10.0, "cycles": 2},
    "calm_chaos_waves": {"calm_duration": 5.0, "chaos_duration": 5.0},
}

#: Fault counters each scenario must report (beyond the always-present
#: base set); corruption-only scenarios assert their kill/restart or
#: nothing, which still checks the counters attach and stay zero-clean.
EXPECTED_COUNTS = {
    "split_brain_at_gst": {"partition_epochs": 1, "partitioned_messages": 1},
    "split_then_silence": {"partition_epochs": 1, "partitioned_messages": 1},
    "rotating_leader_dos": {"dos_hits": 1},
    "flaky_half": {"chaos_windows": 1},
    "calm_chaos_waves": {"chaos_windows": 1},
    "view_sync_throttle": {"throttled_messages": 1},
    "proposal_throttle": {"throttled_messages": 1},
    "crash_churn": {"kills": 1, "restarts": 1},
}


def _config(name: str, seed: int, **overrides) -> ScenarioConfig:
    defaults = dict(
        n=4,
        pacemaker="lumiere",
        delta=1.0,
        actual_delay=0.1,
        gst=5.0,
        duration=25.0,
        seed=seed,
        scenario=name,
        scenario_params=dict(SCENARIO_OVERRIDES.get(name, {})),
        record_trace=False,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _decisions(metrics):
    return [(d.view, d.leader, d.time) for d in metrics.decisions]


def _ledgers(replicas):
    return {pid: replica.ledger.block_ids for pid, replica in replicas.items()}


# ----------------------------------------------------------------------
# The conformance matrix: every scenario x three seeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_live_run_matches_simulator(name, seed):
    config = _config(name, seed)
    sim = run_scenario(config)
    live = run_live_scenario(config)

    assert _decisions(live.metrics) == _decisions(sim.metrics)
    assert _ledgers(live.replicas) == _ledgers(sim.replicas)
    assert live.ledgers_are_consistent()
    assert sim.ledgers_are_consistent()
    assert live.committed_blocks() == sim.committed_blocks()
    # Same wire accounting: every send the simulated network minted, the
    # live transport minted too (and vice versa).
    assert live.transport.messages_sent == sim.network.messages_sent
    assert live.transport.messages_delivered == sim.network.messages_delivered
    # Same faults, counted where they happen by the same schedule objects
    # and the same replicas.
    assert live.fault_counts == sim.fault_counts


@pytest.mark.parametrize("run", [run_scenario, run_live_scenario])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_fault_counters_on_both_deterministic_lanes(name, run):
    counts = run(_config(name, 0)).fault_counts
    # Every scenario run reports the base counters, even at zero.
    assert set(BASE_FAULT_COUNTS) <= set(counts)
    for counter, floor in EXPECTED_COUNTS.get(name, {}).items():
        assert counts[counter] >= floor, (
            f"{name}: expected {counter} >= {floor}, got {counts}"
        )


def test_a_new_delay_model_runs_live_with_no_registration_step():
    class EveryThirdSlow(DelayModel):
        """Defined here and nowhere else: one class is a whole schedule."""

        def __init__(self):
            self.seen = 0

        def propose_delay(self, envelope_info, ctx):
            self.seen += 1
            if self.seen % 3:
                return ctx.rng.uniform(0.05, 0.15)
            ctx.faults.bump("every_third_slowed")
            return 0.6

    def config():
        cfg = _config(None, 0, gst=0.0)
        cfg.delay_model = EveryThirdSlow()
        return cfg

    sim = run_scenario(config())
    live = run_live_scenario(config())
    assert live.committed_blocks() > 0
    assert _decisions(live.metrics) == _decisions(sim.metrics)
    assert _ledgers(live.replicas) == _ledgers(sim.replicas)
    assert live.fault_counts == sim.fault_counts
    assert live.fault_counts["every_third_slowed"] > 0


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_live_run_is_deterministic(name):
    first = run_live_scenario(_config(name, 1))
    second = run_live_scenario(_config(name, 1))
    assert _decisions(first.metrics) == _decisions(second.metrics)
    assert _ledgers(first.replicas) == _ledgers(second.replicas)
    assert first.fault_counts == second.fault_counts


# ----------------------------------------------------------------------
# Campaign integration: the whole registry under backend="live"
# ----------------------------------------------------------------------
def _build_scenario_cell(params):
    return _config(params["scenario"], params["seed"], duration=20.0)


def test_every_scenario_runs_under_the_live_campaign_backend(tmp_path):
    campaign = Campaign(
        name="chaos-conformance",
        build=_build_scenario_cell,
        sweeps=(Sweep("scenario", ALL_SCENARIOS),),
        fixed={"seed": 0},
    )
    cache = str(tmp_path / "cache")
    result = campaign.run(backend="live", cache=cache)
    assert len(result) == len(ALL_SCENARIOS)
    assert all(r.ledgers_consistent for r in result)
    assert all(r.key.startswith("live:") for r in result)
    # Fault counters flow into the picklable records.
    partition = result.one(scenario="split_brain_at_gst")
    assert partition.metrics.fault_count("partition_epochs") >= 1
    churn = result.one(scenario="crash_churn")
    assert churn.metrics.fault_count("kills") >= 1
    assert churn.metrics.fault_count("restarts") >= 1

    # The simulated lane counts the same faults, cell for cell.
    serial = campaign.run(backend="serial")
    for record in result:
        twin = serial.one(scenario=record.params["scenario"])
        assert twin.metrics.fault_counts == record.metrics.fault_counts

    # The counters survive the JSON cache round trip.
    again = campaign.run(backend="live", cache=cache)
    assert again.cache_hits == len(ALL_SCENARIOS)
    cached = again.one(scenario="split_brain_at_gst")
    assert cached.metrics.fault_count("partition_epochs") >= 1


# ----------------------------------------------------------------------
# TCP wall-clock smoke subset (slow lane, marked for CI's live job)
# ----------------------------------------------------------------------
@pytest.mark.tcp
@pytest.mark.parametrize("name", ["split_brain_at_gst", "crash_churn"])
def test_tcp_cluster_runs_chaotic_scenarios(name):
    async def run():
        cluster = make_live_cluster(
            _config(
                name, 0, delta=0.3, gst=2.0, duration=20.0,
                scenario_params={
                    "crash_churn": {"downtime": 2.0, "period": 5.0, "cycles": 1},
                }.get(name, dict(SCENARIO_OVERRIDES.get(name, {}))),
            )
        )
        def done(c):
            # Fast runs can commit three blocks before the first churn
            # window even opens; a chaotic smoke must outlive its fault.
            if c.min_committed() < 3:
                return False
            if name == "crash_churn":
                return c.fault_counters.as_dict()["restarts"] >= 1
            return True

        try:
            await asyncio.wait_for(
                cluster.run(20.0, stop_when=done, poll=0.01), timeout=24.0
            )
            commits = cluster.min_committed()
            consistent = cluster.ledgers_are_consistent()
            counts = dict(cluster.fault_counters.as_dict())
        finally:
            await cluster.stop()
        return commits, consistent, counts

    commits, consistent, counts = asyncio.run(run())
    assert commits >= 3, f"only {commits} blocks within the wall-clock budget"
    assert consistent
    assert set(BASE_FAULT_COUNTS) <= set(counts)
    if name == "crash_churn":
        assert counts["kills"] >= 1 and counts["restarts"] >= 1
    else:
        assert counts["partition_epochs"] >= 1
