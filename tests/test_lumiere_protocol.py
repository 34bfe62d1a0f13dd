"""Integration tests for the Lumiere pacemaker driving chained HotStuff.

These tests exercise the full stack (simulator, network, crypto, consensus,
pacemaker) in small systems and check the properties the paper proves:
liveness after GST, safety regardless of faults, bounded honest clock gaps,
elimination of heavy epoch synchronisations in the steady state, and the
bounded damage of Byzantine leaders.
"""

from __future__ import annotations

import pytest

from repro.faults.behaviours import (
    CrashBehaviour,
    EquivocatingBehaviour,
    MuteViewSyncBehaviour,
    SilentLeaderBehaviour,
    SlowLeaderBehaviour,
)
from repro.faults.corruption import CorruptionPlan
from repro.faults.attacks import spread_corruption, worst_case_clock_dispersion_model
from repro.core.config import LumiereConfig
from repro.experiments.scenario import ScenarioConfig, run_scenario


def scenario(n=4, duration=250.0, pacemaker="lumiere", **kwargs) -> ScenarioConfig:
    defaults = dict(
        n=n,
        pacemaker=pacemaker,
        delta=1.0,
        actual_delay=0.1,
        gst=0.0,
        duration=duration,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


# ----------------------------------------------------------------------
# Liveness and responsiveness (fault-free)
# ----------------------------------------------------------------------
def test_fault_free_run_produces_many_decisions():
    result = run_scenario(scenario())
    assert result.honest_decisions() > 100
    assert result.committed_blocks() > 100
    assert result.ledgers_are_consistent()


def test_fault_free_run_is_optimistically_responsive():
    """Steady-state decision gaps are O(delta), far below Gamma."""
    result = run_scenario(scenario(duration=150.0))
    gaps = result.metrics.decision_gaps(after=20.0)
    assert gaps, "expected steady-state decisions"
    gamma = 2 * (result.protocol_config.x + 2) * result.config.delta
    assert max(gaps) < gamma / 4
    assert max(gaps) <= 6 * result.config.actual_delay + 1e-6


def test_heavy_syncs_stop_after_first_successful_epoch():
    """Theorem 1.1(4): only a constant number of heavy syncs happen."""
    result = run_scenario(scenario(duration=400.0))
    # The bootstrap heavy sync for epoch 0 is allowed; after the first
    # successful epoch no further heavy synchronisation may occur.
    assert result.metrics.epoch_syncs_after(0.0) <= 1
    assert result.metrics.epoch_syncs_after(50.0) == 0
    # The run crossed several epoch boundaries (epoch = 10n views = 40).
    assert result.max_honest_view() > 3 * 40


def test_basic_lumiere_heavy_syncs_every_epoch():
    result = run_scenario(scenario(pacemaker="basic-lumiere", duration=300.0))
    epoch_length = 2 * 4  # one leader round for basic lumiere at n=4
    views = result.max_honest_view()
    expected_epochs = views // epoch_length
    assert expected_epochs > 5
    # Basic Lumiere performs a heavy sync at (almost) every epoch boundary.
    assert result.metrics.epoch_syncs_after(0.0) >= expected_epochs - 2


def test_view_monotonicity_at_every_honest_replica():
    result = run_scenario(scenario(duration=120.0))
    for pid in result.corruption.honest_ids:
        entries = result.metrics.events("enter_view", pid)
        views = [event.value for event in entries]
        assert views == sorted(views)
        times = [event.time for event in entries]
        assert times == sorted(times)


def test_epoch_boundaries_do_not_stall_fault_free_progress():
    """Crossing from epoch e to e+1 without heavy sync keeps the QC chain going."""
    result = run_scenario(scenario(duration=300.0))
    gaps = result.metrics.decision_gaps(after=20.0)
    gamma = 2 * (result.protocol_config.x + 2) * result.config.delta
    # Even at epoch boundaries the gap stays below a single Gamma.
    assert max(gaps) < gamma


# ----------------------------------------------------------------------
# Byzantine faults
# ----------------------------------------------------------------------
def test_silent_leader_causes_bounded_stall():
    """Eventual latency is O(f_a * Gamma): one silent leader costs at most ~2 Gamma."""
    config = scenario(duration=400.0)
    config.corruption = spread_corruption(config.protocol_config(), 1, SilentLeaderBehaviour)
    result = run_scenario(config)
    assert result.honest_decisions() > 30
    assert result.ledgers_are_consistent()
    gamma = 2 * (result.protocol_config.x + 2) * result.config.delta
    gaps = result.metrics.decision_gaps(after=50.0)
    # A faulty leader owns two consecutive views per leader round, and can own
    # the adjacent slots of two consecutive rounds (four views back to back);
    # the stall is bounded by a per-fault constant number of Gamma, never by n.
    assert max(gaps) <= 4 * gamma + 4 * result.config.delta


def test_progress_with_maximum_faults():
    config = scenario(n=7, duration=500.0)
    config.corruption = spread_corruption(config.protocol_config(), 2, SilentLeaderBehaviour)
    result = run_scenario(config)
    assert result.honest_decisions() > 20
    assert result.ledgers_are_consistent()


def test_safety_under_equivocating_leader():
    config = scenario(duration=300.0)
    config.corruption = CorruptionPlan.uniform(
        config.protocol_config(), [1], EquivocatingBehaviour
    )
    result = run_scenario(config)
    assert result.ledgers_are_consistent()
    assert result.honest_decisions() > 20


def test_progress_with_crashed_replica():
    config = scenario(duration=300.0)
    config.corruption = CorruptionPlan.uniform(
        config.protocol_config(), [2], lambda: CrashBehaviour(at_time=30.0)
    )
    result = run_scenario(config)
    decisions_after_crash = [d for d in result.metrics.honest_decisions() if d.time > 40.0]
    assert len(decisions_after_crash) > 10
    assert result.ledgers_are_consistent()


def test_progress_with_mute_view_sync_replica():
    config = scenario(duration=300.0)
    config.corruption = CorruptionPlan.uniform(
        config.protocol_config(), [3], MuteViewSyncBehaviour
    )
    result = run_scenario(config)
    assert result.honest_decisions() > 30
    assert result.ledgers_are_consistent()


def test_slow_leader_cannot_stall_past_its_views():
    config = scenario(duration=400.0)
    config.corruption = CorruptionPlan.uniform(
        config.protocol_config(), [1], lambda: SlowLeaderBehaviour(delay=30.0)
    )
    result = run_scenario(config)
    gamma = 2 * (result.protocol_config.x + 2) * result.config.delta
    gaps = result.metrics.decision_gaps(after=60.0)
    assert gaps
    # Bounded by a per-fault constant number of Gamma (up to four consecutive
    # views can belong to the slow leader), never by the epoch length.
    assert max(gaps) <= 4 * gamma + 6 * result.config.delta
    assert result.ledgers_are_consistent()


# ----------------------------------------------------------------------
# Partial synchrony: GST recovery
# ----------------------------------------------------------------------
def test_recovery_after_gst_with_pre_gst_chaos():
    config = scenario(n=4, duration=400.0, gst=40.0, seed=5)
    protocol_config = config.protocol_config()
    config.corruption = spread_corruption(protocol_config, 1, SilentLeaderBehaviour)
    config.delay_model = worst_case_clock_dispersion_model(
        protocol_config, config.actual_delay, pre_gst_max_delay=40.0
    )
    result = run_scenario(config)
    post_gst = [d for d in result.metrics.honest_decisions() if d.time > config.gst]
    assert len(post_gst) > 10
    assert result.ledgers_are_consistent()
    # Worst-case latency after GST is O(n * Delta); generous constant here.
    latency = result.metrics.latency_after(config.gst)
    assert latency is not None
    assert latency <= 30 * config.n * config.delta


def test_honest_clock_gap_stays_bounded_in_steady_state():
    """Lemma 5.9-flavoured check: once synchronised, the (f+1)-st honest clock
    gap never exceeds Gamma + Delta again."""
    config = scenario(duration=250.0)
    result = run_scenario(config)
    gamma = 2 * (result.protocol_config.x + 2) * result.config.delta
    clocks = sorted(
        (replica.clock.read() for replica in result.honest_replicas), reverse=True
    )
    f = result.protocol_config.f
    gap = clocks[0] - clocks[f]
    assert gap <= gamma + result.config.delta + 1e-6


# ----------------------------------------------------------------------
# Configuration variants
# ----------------------------------------------------------------------
def test_small_epoch_configuration_still_live():
    config = scenario(duration=200.0)
    config.pacemaker_config = LumiereConfig(
        protocol=config.protocol_config(), epoch_rounds=1
    )
    result = run_scenario(config)
    assert result.honest_decisions() > 50
    assert result.ledgers_are_consistent()


def test_qc_production_deadline_blocks_very_late_qcs():
    """A leader delaying its QC past Gamma/2 - 2*Delta must not publish it."""
    config = scenario(duration=300.0)
    gamma = 2 * (config.protocol_config().x + 2) * config.delta
    late = gamma  # longer than the production deadline
    config.corruption = CorruptionPlan.uniform(
        config.protocol_config(), [1], lambda: SlowLeaderBehaviour(delay=late)
    )
    result = run_scenario(config)
    # The run still makes progress and never forks.
    assert result.honest_decisions() > 20
    assert result.ledgers_are_consistent()


def test_determinism_same_seed_same_outcome():
    a = run_scenario(scenario(duration=100.0, seed=7))
    b = run_scenario(scenario(duration=100.0, seed=7))
    assert a.honest_decisions() == b.honest_decisions()
    assert a.metrics.total_honest_messages == b.metrics.total_honest_messages
    assert [d.time for d in a.metrics.honest_decisions()] == [
        d.time for d in b.metrics.honest_decisions()
    ]
