"""Tests for the campaign runner: grid expansion, executors, and the cache.

The builders live at module level so the process-pool backend can pickle
them by reference — the same constraint real campaign code is under.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig
from repro.faults.behaviours import SilentLeaderBehaviour
from repro.faults.corruption import CorruptionPlan
from repro.runner import (
    Campaign,
    ResultCache,
    RunRecord,
    Sweep,
    WorkloadConfig,
    config_fingerprint,
    execute_cell,
    run_campaign,
    spec_key,
)


def build_plain(params: dict) -> ScenarioConfig:
    """A minimal fault-free cell: tiny run, seeded from the grid point."""
    return ScenarioConfig(
        n=params["n"],
        pacemaker=params["pacemaker"],
        duration=params["duration"],
        seed=params["seed"],
    )


def build_with_faults(params: dict) -> ScenarioConfig:
    """A cell with a corruption plan, exercising nested-object fingerprints."""
    config = build_plain(params)
    config.corruption = CorruptionPlan.uniform(
        config.protocol_config(), [1], SilentLeaderBehaviour
    )
    return config


def small_campaign(**overrides) -> Campaign:
    settings = dict(
        name="test-campaign",
        build=build_plain,
        sweeps=(Sweep("pacemaker", ("lumiere", "lp22")), Sweep("seed", (0, 1))),
        fixed={"n": 4, "duration": 40.0},
    )
    settings.update(overrides)
    return Campaign(**settings)


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
def test_expansion_is_deterministic_and_ordered_like_nested_loops():
    campaign = small_campaign()
    first = campaign.expand()
    second = campaign.expand()
    assert [spec.run_id for spec in first] == [spec.run_id for spec in second]
    assert [spec.key for spec in first] == [spec.key for spec in second]
    # Last sweep axis varies fastest, like nested for-loops.
    assert [spec.run_id for spec in first] == [
        "test-campaign[pacemaker=lumiere,seed=0]",
        "test-campaign[pacemaker=lumiere,seed=1]",
        "test-campaign[pacemaker=lp22,seed=0]",
        "test-campaign[pacemaker=lp22,seed=1]",
    ]
    assert len(campaign) == 4


def test_expansion_with_no_sweeps_is_a_single_cell_named_after_the_campaign():
    campaign = Campaign(
        name="solo", build=build_plain,
        fixed={"n": 4, "duration": 30.0, "pacemaker": "lumiere", "seed": 0},
    )
    specs = campaign.expand()
    assert len(specs) == 1
    assert specs[0].run_id == "solo"


def test_duplicate_parameter_declaration_rejected():
    with pytest.raises(ConfigurationError):
        Campaign(
            name="dup", build=build_plain,
            sweeps=(Sweep("n", (4, 7)),), fixed={"n": 4},
        )
    with pytest.raises(ConfigurationError):
        Campaign(
            name="dup", build=build_plain,
            sweeps=(Sweep("n", (4,)), Sweep("n", (7,))),
        )


def test_empty_sweep_rejected():
    with pytest.raises(ConfigurationError):
        Sweep("n", ())


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------
def test_spec_key_changes_with_any_config_field():
    base = ScenarioConfig(n=4, seed=0, duration=40.0)
    assert spec_key(base) == spec_key(ScenarioConfig(n=4, seed=0, duration=40.0))
    assert spec_key(base) != spec_key(ScenarioConfig(n=4, seed=1, duration=40.0))
    assert spec_key(base) != spec_key(ScenarioConfig(n=7, seed=0, duration=40.0))
    assert spec_key(base) != spec_key(base, max_events=100)


def test_fingerprint_covers_corruption_and_delay_model():
    plain = config_fingerprint(build_plain({"n": 4, "pacemaker": "lumiere",
                                            "duration": 40.0, "seed": 0}))
    faulty = config_fingerprint(build_with_faults({"n": 4, "pacemaker": "lumiere",
                                                   "duration": 40.0, "seed": 0}))
    assert plain["corruption"] is None
    assert faulty["corruption"] == {"1": "SilentLeaderBehaviour"}
    # The fingerprint must be JSON-serializable (it is hashed canonically).
    json.dumps(plain), json.dumps(faulty)


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
def test_serial_and_process_backends_produce_identical_records():
    campaign = small_campaign()
    serial = run_campaign(campaign, backend="serial")
    parallel = run_campaign(campaign, backend="process", workers=2)
    assert len(serial) == len(parallel) == 4
    for left, right in zip(serial, parallel):
        assert left.run_id == right.run_id
        assert left.key == right.key
        # Byte-identical modulo wall time: the summary, the derived metrics
        # and every accounting scalar must match across backends.
        left_doc = dataclasses.replace(left, wall_time=0.0).to_json_dict()
        right_doc = dataclasses.replace(right, wall_time=0.0).to_json_dict()
        assert left_doc == right_doc


def test_records_carry_run_results():
    record = run_campaign(small_campaign()).one(pacemaker="lumiere", seed=0)
    assert record.decisions > 0
    assert record.ledgers_consistent
    assert record.events_processed > 0
    assert record.summary.protocol == "lumiere"
    assert record.metrics.decision_times == tuple(sorted(record.metrics.decision_times))
    assert len(record.metrics.gap_message_counts) == record.decisions - 1


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        run_campaign(small_campaign(), backend="threads")


def test_select_and_one():
    result = run_campaign(small_campaign())
    assert len(result.select(pacemaker="lumiere")) == 2
    assert result.one(pacemaker="lp22", seed=1).params["seed"] == 1
    with pytest.raises(KeyError):
        result.one(pacemaker="lumiere")  # two matches
    with pytest.raises(KeyError):
        result.one(pacemaker="no-such")  # zero matches


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------
def test_cache_miss_then_hit_and_rebinding(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    campaign = small_campaign()

    first = run_campaign(campaign, cache=cache)
    assert (first.cache_hits, first.cache_misses) == (0, 4)
    assert len(cache) == 4

    second = run_campaign(campaign, cache=cache)
    assert (second.cache_hits, second.cache_misses) == (4, 0)
    for fresh, cached in zip(first, second):
        assert cached.cached and not fresh.cached
        assert cached.run_id == fresh.run_id
        assert cached.summary == fresh.summary
        assert cached.metrics == fresh.metrics


def test_cache_only_executes_missing_cells(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    run_campaign(small_campaign(), cache=cache)

    grown = small_campaign(sweeps=(Sweep("pacemaker", ("lumiere", "lp22", "fever")),
                                   Sweep("seed", (0, 1))))
    result = run_campaign(grown, cache=cache)
    assert (result.cache_hits, result.cache_misses) == (4, 2)
    assert {r.params["pacemaker"] for r in result if not r.cached} == {"fever"}


def test_torn_cache_entry_counts_as_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    campaign = small_campaign()
    run_campaign(campaign, cache=cache)
    victim = campaign.expand()[0]
    cache.path_for(victim.key).write_text("{not json", encoding="utf-8")

    result = run_campaign(campaign, cache=cache)
    assert (result.cache_hits, result.cache_misses) == (3, 1)


def test_cache_accepts_directory_path_and_clear(tmp_path):
    root = tmp_path / "by-path"
    result = run_campaign(small_campaign(), cache=str(root))
    assert result.cache_misses == 4
    cache = ResultCache(root)
    assert len(cache) == 4
    assert cache.clear() == 4
    assert len(cache) == 0


# ----------------------------------------------------------------------
# RunRecord round trip
# ----------------------------------------------------------------------
def test_run_record_json_round_trip():
    spec = small_campaign().expand()[0]
    record = execute_cell(build_plain, spec.params, spec.run_id, spec.key)
    rebuilt = RunRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
    assert rebuilt.cached
    assert dataclasses.replace(rebuilt, cached=False) == record


def build_churn_with_workload(params: dict) -> ScenarioConfig:
    """A crash/recovery churn cell serving an open-loop client workload."""
    config = build_plain(params)
    config.scenario = "crash_churn"
    config.scenario_params = {"downtime": 4.0, "period": 10.0, "cycles": 2}
    config.workload = WorkloadConfig(mode="open", rate=20.0, stop=20.0)
    return config


def test_run_record_json_round_trip_keeps_the_whole_run_metrics():
    params = {"n": 4, "pacemaker": "lumiere", "duration": 40.0, "seed": 0}
    record = execute_cell(build_churn_with_workload, params, "churn", "key")
    metrics = record.metrics
    assert metrics.requests_applied > 0 and metrics.count("requests_submitted") > 0
    assert metrics.count("kills") > 0
    rebuilt = RunRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
    assert rebuilt.metrics == metrics


def test_an_old_format_record_at_the_current_key_is_a_removed_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = small_campaign().expand()[0]
    record = execute_cell(build_plain, spec.params, spec.run_id, spec.key)
    old = record.to_json_dict()
    old["metrics"] = {
        name: value for name, value in old["metrics"].items()
        if name not in ("counts", "request_latencies")
    }
    old["metrics"]["fault_counts"] = []
    cache.path_for(spec.key).write_text(json.dumps(old), encoding="utf-8")
    assert cache.get(spec.key) is None
    assert spec.key not in cache


def build_failing(params: dict) -> ScenarioConfig:
    """Builder whose second cell blows up inside ``run_scenario`` (a
    corruption plan built for the wrong system size), simulating a campaign
    dying partway through execution."""
    config = build_plain(params)
    if params["seed"] == 1:
        config.corruption = CorruptionPlan.none(
            ScenarioConfig(n=7).protocol_config()
        )
    return config


def test_completed_cells_are_cached_even_if_a_later_cell_fails(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    campaign = Campaign(
        name="partial", build=build_failing,
        sweeps=(Sweep("seed", (0, 1)),),
        fixed={"n": 4, "duration": 30.0, "pacemaker": "lumiere"},
    )
    with pytest.raises(ConfigurationError):
        run_campaign(campaign, cache=cache)
    # The first cell finished before the crash and must be recoverable.
    assert len(cache) == 1
    ok = Campaign(
        name="partial", build=build_plain,
        sweeps=(Sweep("seed", (0,)),),
        fixed={"n": 4, "duration": 30.0, "pacemaker": "lumiere"},
    )
    resumed = run_campaign(ok, cache=cache)
    assert (resumed.cache_hits, resumed.cache_misses) == (1, 0)


def test_fingerprint_distinguishes_behaviour_parameters():
    """Cache keys must separate same-class behaviours with different params."""
    from repro.faults.behaviours import SlowLeaderBehaviour

    def with_delay(delay: float) -> ScenarioConfig:
        config = build_plain({"n": 4, "pacemaker": "lumiere", "duration": 40.0, "seed": 0})
        config.corruption = CorruptionPlan.uniform(
            config.protocol_config(), [1], lambda: SlowLeaderBehaviour(delay=delay)
        )
        return config

    assert spec_key(with_delay(0.5)) != spec_key(with_delay(5.0))
    assert spec_key(with_delay(0.5)) == spec_key(with_delay(0.5))


def test_fingerprint_rejects_address_bearing_pacemaker_config_repr():
    class Opaque:  # no __repr__: repr() embeds a memory address
        pass

    config = build_plain({"n": 4, "pacemaker": "lumiere", "duration": 40.0, "seed": 0})
    config.pacemaker_config = Opaque()
    with pytest.raises(ConfigurationError, match="stable description"):
        spec_key(config)


def test_cache_put_leaves_no_tmp_files_and_overwrites_cleanly(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = small_campaign().expand()[0]
    record = execute_cell(build_plain, spec.params, spec.run_id, spec.key)
    cache.put(record)
    cache.put(record)  # same key twice: last write wins, no tmp residue
    assert len(cache) == 1
    assert not list((tmp_path / "cache").glob("*.tmp"))
    assert cache.get(spec.key) is not None


def test_unreadable_cache_bytes_and_bad_shapes_count_as_misses(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    campaign = small_campaign()
    run_campaign(campaign, cache=cache)
    specs = campaign.expand()
    # Non-UTF-8 bytes in one entry, valid JSON with a wrong-arity field in another.
    cache.path_for(specs[0].key).write_bytes(b"\xff\xfe\x00garbage")
    good = json.loads(cache.path_for(specs[1].key).read_text(encoding="utf-8"))
    good["metrics"]["epoch_sync_events"] = [[1.0]]  # wrong arity
    cache.path_for(specs[1].key).write_text(json.dumps(good), encoding="utf-8")

    result = run_campaign(campaign, cache=cache)
    assert (result.cache_hits, result.cache_misses) == (2, 2)


def test_process_backend_caches_completed_cells_when_one_fails(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    campaign = Campaign(
        name="partial-pool", build=build_failing,
        sweeps=(Sweep("seed", (0, 2, 1)),),  # seed 1 fails inside run_scenario
        fixed={"n": 4, "duration": 30.0, "pacemaker": "lumiere"},
    )
    with pytest.raises(ConfigurationError):
        run_campaign(campaign, backend="process", workers=2, cache=cache)
    # Both good cells completed (the pool drains before the error propagates)
    # and must be recoverable from the cache.
    assert len(cache) == 2


def _delay_schedule_a(pending, sim):
    return 0.1


def _delay_schedule_b(pending, sim):
    return 0.2


def test_fingerprint_distinguishes_adversarial_delay_callables():
    """Two different schedules with the default name must not share a key."""
    from repro.faults.delays import AdversarialDelay

    def with_model(fn) -> ScenarioConfig:
        config = build_plain({"n": 4, "pacemaker": "lumiere", "duration": 40.0, "seed": 0})
        config.delay_model = AdversarialDelay(fn)
        return config

    assert spec_key(with_model(_delay_schedule_a)) != spec_key(with_model(_delay_schedule_b))
    assert spec_key(with_model(_delay_schedule_a)) == spec_key(with_model(_delay_schedule_a))


def test_process_backend_runs_even_a_single_cell_on_the_pool():
    """No silent serial fallback: an unpicklable builder must fail on the
    process backend even when only one cell needs executing."""
    campaign = Campaign(
        name="one-cell", build=lambda params: build_plain(params),  # unpicklable
        fixed={"n": 4, "duration": 30.0, "pacemaker": "lumiere", "seed": 0},
    )
    with pytest.raises(Exception):  # pickling error surfaces immediately
        run_campaign(campaign, backend="process", workers=2)
    # The same campaign still works serially.
    assert len(run_campaign(campaign, backend="serial")) == 1


def test_clear_sweeps_tmp_debris(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    run_campaign(small_campaign(), cache=cache)
    (cache.root / "deadbeef.tmp").write_text("half-written", encoding="utf-8")
    assert cache.clear() == 4
    assert not list(cache.root.iterdir())


def test_fingerprint_rejects_closure_derived_delay_descriptions():
    """Closures from the same factory share a qualname; require a name."""
    from repro.faults.delays import AdversarialDelay

    def make(delay):
        return AdversarialDelay(lambda p, s: delay)

    config = build_plain({"n": 4, "pacemaker": "lumiere", "duration": 40.0, "seed": 0})
    config.delay_model = make(0.1)
    with pytest.raises(ConfigurationError, match="stable description"):
        spec_key(config)
    # An explicit parameter-faithful name makes the same closure acceptable.
    config.delay_model = AdversarialDelay(lambda p, s: 0.1, name="const-0.1")
    keyed = spec_key(config)
    config.delay_model = AdversarialDelay(lambda p, s: 5.0, name="const-5.0")
    assert spec_key(config) != keyed


def test_expand_rejects_non_json_params_before_running():
    campaign = Campaign(
        name="bad-params", build=build_plain,
        sweeps=(Sweep("seed", ({"a"},)),),  # a set is not JSON-serializable
        fixed={"n": 4, "duration": 30.0, "pacemaker": "lumiere"},
    )
    with pytest.raises(ConfigurationError, match="JSON-serializable"):
        campaign.expand()
