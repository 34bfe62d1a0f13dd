"""Conformance suite of the virtual-time lane: every named scenario.

Two kinds of check:

* **Golden fingerprints.**  ``tests/data/lane_fingerprints.json`` was
  captured through ``run_scenario`` on the commit *before* the simulated
  ``Network`` fabric was deleted (``python tests/test_live_faults.py
  --capture`` in that commit's tree): decisions with their
  times, every replica's ledger, the fabric's sent / delivered totals, the
  honest message count and ``fault_counts`` of all twelve ``repro.faults``
  scenarios x three seeds, plus three fault-free seeds.  That fabric
  survives only as this file; the transport stack — a
  :class:`~repro.runtime.transports.LocalTransport` on the simulator
  kernel, schedules imposed by a
  :class:`~repro.faults.transport.FaultyTransport` — must reproduce every cell
  exactly (:func:`assert_reproduces_the_captured_fabric`, also run by
  ``tests/test_live_runtime.py`` on the fault-free cells).
* **Counters and campaigns.**  Every scenario reports the injected-fault
  counters it implies, replays deterministically, and runs under the
  ``live`` campaign backend.  A TCP wall-clock subset (marked ``tcp``)
  smoke-tests the real socket lane, where the schedule is an approximation
  by design.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.faults.library import available_scenarios
from repro.runner import Campaign, Sweep, make_live_cluster, run_live_scenario
from repro.faults.delays import DelayModel
from repro.metrics.counters import BASE_COUNTS, BASE_FAULT_COUNTS

GOLDEN = Path(__file__).parent / "data" / "lane_fingerprints.json"
SEEDS = (0, 1, 2)
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
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def _decisions(metrics):
    return [(d.view, d.leader, d.time) for d in metrics.decisions]


def _ledgers(replicas):
    return {pid: replica.ledger.block_ids for pid, replica in replicas.items()}


def _fault_free_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        n=4, pacemaker="lumiere", delta=1.0, actual_delay=0.1, gst=0.0,
        duration=30.0, seed=seed,
    )


def _digest(values) -> str:
    return f"{len(values)}:" + hashlib.sha256(repr(values).encode()).hexdigest()


def lane_fingerprint(result, fault_names) -> dict:
    """Everything a message fabric could disturb, small enough to commit:
    the run's counts of ``fault_names`` stand for its injected faults."""
    counts = result.metrics.counts
    return {
        "decisions": _digest(_decisions(result.metrics)),
        "ledgers": {
            str(pid): _digest(list(replica.ledger.block_ids))
            for pid, replica in sorted(result.replicas.items())
        },
        "messages_sent": counts["messages_sent"],
        "messages_delivered": counts["messages_delivered"],
        "honest_messages": result.metrics.total_honest_messages,
        "fault_counts": {name: counts.get(name, 0) for name in fault_names},
    }


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _cells() -> dict[str, ScenarioConfig]:
    cells = {f"{name}/{seed}": _config(name, seed) for name in ALL_SCENARIOS for seed in SEEDS}
    cells.update({f"fault_free/{seed}": _fault_free_config(seed) for seed in SEEDS})
    return cells


def assert_reproduces_the_captured_fabric(cell: str) -> None:
    """Run golden cell ``cell`` and compare it with its captured fingerprint,
    fault counts on the names the file holds."""
    result = run_scenario(_cells()[cell])
    assert result.ledgers_are_consistent()
    golden = _golden()[cell]
    assert lane_fingerprint(result, golden["fault_counts"]) == golden


# ----------------------------------------------------------------------
# The golden matrix: every scenario x three seeds (+ three fault-free cells)
# ----------------------------------------------------------------------
def test_golden_file_covers_every_cell():
    assert sorted(_golden()) == sorted(_cells())
    assert len(_cells()) == 39


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_live_run_matches_simulator(name, seed):
    assert_reproduces_the_captured_fabric(f"{name}/{seed}")


@pytest.mark.parametrize("run", [run_scenario, run_live_scenario])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_fault_counters_on_both_deterministic_lanes(name, run):
    counts = run(_config(name, 0)).metrics.counts
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
    assert live.metrics.counts == sim.metrics.counts
    assert live.metrics.counts["every_third_slowed"] > 0


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_live_run_is_deterministic(name):
    first = run_live_scenario(_config(name, 1))
    second = run_live_scenario(_config(name, 1))
    assert _decisions(first.metrics) == _decisions(second.metrics)
    assert _ledgers(first.replicas) == _ledgers(second.replicas)
    assert first.metrics.counts == second.metrics.counts


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
    assert partition.metrics.count("partition_epochs") >= 1
    churn = result.one(scenario="crash_churn")
    assert churn.metrics.count("kills") >= 1
    assert churn.metrics.count("restarts") >= 1

    # The simulated lane counts the same faults, cell for cell.
    serial = campaign.run(backend="serial")
    for record in result:
        twin = serial.one(scenario=record.params["scenario"])
        assert twin.metrics.counts == record.metrics.counts

    # The counters survive the JSON cache round trip.
    again = campaign.run(backend="live", cache=cache)
    assert again.cache_hits == len(ALL_SCENARIOS)
    cached = again.one(scenario="split_brain_at_gst")
    assert cached.metrics.count("partition_epochs") >= 1


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
                return c.metrics.counts["restarts"] >= 1
            return True

        try:
            await asyncio.wait_for(
                cluster.run(20.0, stop_when=done, poll=0.01), timeout=24.0
            )
            commits = cluster.min_committed()
            consistent = cluster.ledgers_are_consistent()
            counts = cluster.metrics.counts
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_live_faults.py --capture")
    GOLDEN.parent.mkdir(exist_ok=True)
    cells = {}
    for cell, config in _cells().items():
        result = run_scenario(config)
        # The base fault names, and every name a schedule minted.
        faults = set(BASE_FAULT_COUNTS) | (set(result.metrics.counts) - set(BASE_COUNTS))
        cells[cell] = lane_fingerprint(result, sorted(faults))
    GOLDEN.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN}")
