"""Property-based integration tests.

Hypothesis drives randomised fault assignments, network delays and system
sizes through short end-to-end runs, and asserts the two properties that
must hold in *every* execution: safety (prefix-consistent honest ledgers)
and honest view monotonicity.  Liveness is only asserted when the scenario
is one in which the paper guarantees it (GST well before the end of the
run).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.behaviours import (
    CrashBehaviour,
    EquivocatingBehaviour,
    MuteViewSyncBehaviour,
    SilentLeaderBehaviour,
    SlowLeaderBehaviour,
)
from repro.faults.corruption import CorruptionPlan
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.faults.delays import FixedDelay, PreGSTChaos, UniformDelay


_BEHAVIOURS = [
    SilentLeaderBehaviour,
    EquivocatingBehaviour,
    MuteViewSyncBehaviour,
    lambda: SlowLeaderBehaviour(delay=5.0),
    lambda: CrashBehaviour(at_time=20.0),
]

_slow_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _build_plan(config, corrupted_id, behaviour_index):
    behaviour_factory = _BEHAVIOURS[behaviour_index % len(_BEHAVIOURS)]
    return CorruptionPlan.uniform(config, [corrupted_id], behaviour_factory)


@_slow_settings
@given(
    pacemaker=st.sampled_from(["lumiere", "lp22", "fever"]),
    corrupted_id=st.integers(min_value=0, max_value=3),
    behaviour_index=st.integers(min_value=0, max_value=len(_BEHAVIOURS) - 1),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_safety_and_monotonicity_under_random_single_fault(
    pacemaker, corrupted_id, behaviour_index, seed
):
    config = ScenarioConfig(
        n=4,
        pacemaker=pacemaker,
        delta=1.0,
        actual_delay=0.1,
        gst=0.0,
        duration=120.0,
        seed=seed,
    )
    config.corruption = _build_plan(config.protocol_config(), corrupted_id, behaviour_index)
    result = run_scenario(config)
    assert result.ledgers_are_consistent()
    for pid in result.corruption.honest_ids:
        views = [event.value for event in result.metrics.events("enter_view", pid)]
        assert views == sorted(views)


@_slow_settings
@given(
    pacemaker=st.sampled_from(["lumiere", "fever", "cogsworth", "backoff"]),
    low=st.floats(min_value=0.01, max_value=0.3),
    spread=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_liveness_under_random_symmetric_delays(pacemaker, low, spread, seed):
    """With no faults and GST=0, every protocol keeps deciding under any
    delay distribution bounded by Delta."""
    high = min(low + spread, 1.0)
    config = ScenarioConfig(
        n=4,
        pacemaker=pacemaker,
        delta=1.0,
        actual_delay=high,
        gst=0.0,
        duration=150.0,
        seed=seed,
        delay_model=UniformDelay(low, high),
    )
    result = run_scenario(config)
    assert result.honest_decisions() > 5
    assert result.ledgers_are_consistent()


@_slow_settings
@given(
    gst=st.floats(min_value=5.0, max_value=40.0),
    pre_max=st.floats(min_value=5.0, max_value=60.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_lumiere_recovers_after_random_gst(gst, pre_max, seed):
    config = ScenarioConfig(
        n=4,
        pacemaker="lumiere",
        delta=1.0,
        actual_delay=0.1,
        gst=gst,
        duration=gst + 250.0,
        seed=seed,
        delay_model=PreGSTChaos(FixedDelay(0.1), pre_gst_max_delay=pre_max),
    )
    result = run_scenario(config)
    post_gst = [d for d in result.metrics.honest_decisions() if d.time > gst]
    assert len(post_gst) > 3
    assert result.ledgers_are_consistent()


@_slow_settings
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lumiere_honest_clocks_end_close_together(seed):
    """After a long synchronous fault-free run, the (f+1)-st honest clock gap
    is below Gamma (the steady-state synchronisation Lemma 5.9 maintains)."""
    config = ScenarioConfig(
        n=4,
        pacemaker="lumiere",
        delta=1.0,
        actual_delay=0.1,
        gst=0.0,
        duration=100.0,
        seed=seed,
    )
    result = run_scenario(config)
    gamma = 2 * (result.protocol_config.x + 2) * result.config.delta
    clocks = sorted((r.clock.read() for r in result.honest_replicas), reverse=True)
    f = result.protocol_config.f
    assert clocks[0] - clocks[f] <= gamma + 1e-6
