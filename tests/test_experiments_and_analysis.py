"""Tests for the experiment harness, the analysis helpers and the engine-level
behaviours that the harness relies on."""

from __future__ import annotations

import math

import pytest

from repro.analysis.fitting import estimate_exponent, growth_ratio
from repro.analysis.table1 import PAPER_TABLE1, bound_for
from repro.experiments.figure1 import run_figure1
from repro.experiments.responsiveness import responsiveness_sweep
from repro.experiments.scenario import ScenarioConfig, build_scenario, run_scenario
from repro.experiments.steady_state import heavy_sync_count
from repro.experiments.table1 import Table1Row, eventual_complexity_sweep, format_rows
from repro.errors import ConfigurationError
from repro.faults.corruption import CorruptionPlan
from repro.config import ProtocolConfig


# ----------------------------------------------------------------------
# Scenario harness
# ----------------------------------------------------------------------
def test_build_scenario_does_not_advance_time():
    result = build_scenario(ScenarioConfig(n=4, duration=50.0))
    assert result.simulator.now == 0.0
    assert result.honest_decisions() == 0


def test_run_scenario_runs_to_requested_duration():
    result = run_scenario(ScenarioConfig(n=4, duration=60.0))
    assert result.simulator.now >= 60.0
    assert result.honest_decisions() > 0


def test_scenario_rejects_mismatched_corruption_plan():
    config = ScenarioConfig(n=7, duration=10.0)
    config.corruption = CorruptionPlan.none(ProtocolConfig(n=4))
    with pytest.raises(ConfigurationError):
        build_scenario(config)


def test_scenario_describe_and_summary_round_trip():
    result = run_scenario(ScenarioConfig(n=4, duration=80.0))
    summary = result.summary()
    assert summary.n == 4
    assert summary.decisions == result.honest_decisions()
    assert "lumiere" in result.describe()


def test_trace_recording_can_be_enabled():
    result = run_scenario(ScenarioConfig(n=4, duration=30.0))
    metrics = result.metrics
    assert len(metrics.events()) > 0
    assert metrics.events("enter_view")[0].kind == "enter_view"
    assert metrics.events("qc_observed")
    # A QC a leader forms is a decision row, not an event row.
    assert metrics.decisions and not metrics.events("qc_produced")


# ----------------------------------------------------------------------
# Experiment modules (scaled-down runs)
# ----------------------------------------------------------------------
def test_figure1_lp22_stalls_for_an_epoch_while_lumiere_stall_is_per_fault():
    """Figure 1's claim: one silent leader stalls LP22 for an epoch-scale wait
    (which grows with n), while Lumiere's stall is a constant number of its
    own Gamma per faulty leader."""
    figure = run_figure1(n=7, delta=1.0, actual_delay=0.05, duration=600.0)
    f = (7 - 1) // 3
    # LP22 loses (almost) the remainder of the epoch: at least two extra views
    # of clock time beyond the faulty view itself.
    assert figure.lp22_max_gap >= (f + 1) * figure.lp22_gamma
    # Lumiere's stall is bounded by a small constant number of Gamma,
    # independent of n (a faulty leader owns at most four consecutive views).
    assert figure.lumiere_max_gap <= 5 * figure.lumiere_gamma
    assert "Figure 1" in figure.describe()
    assert len(figure.lp22_decision_times) > 5
    assert len(figure.lumiere_decision_times) > 5


def test_responsiveness_sweep_grows_with_faults():
    points = responsiveness_sweep(
        "lumiere", n=4, fault_counts=[0, 1], delta=1.0, actual_delay=0.05, duration=300.0
    )
    assert len(points) == 2
    fault_free, one_fault = points
    assert fault_free.max_gap is not None and one_fault.max_gap is not None
    assert fault_free.max_gap < one_fault.max_gap
    # Fault-free steady state runs at network speed, not at Delta speed.
    assert fault_free.max_gap < 1.0


def test_heavy_sync_count_separates_lumiere_from_basic_lumiere():
    lumiere = heavy_sync_count("lumiere", n=4, duration=400.0, warmup=60.0)
    basic = heavy_sync_count("basic-lumiere", n=4, duration=400.0, warmup=60.0)
    assert lumiere.heavy_syncs_after_warmup == 0
    assert basic.heavy_syncs_after_warmup > 3
    assert lumiere.decisions > 0 and basic.decisions > 0


def test_eventual_sweep_produces_rows_for_each_protocol_and_fault_level():
    rows = eventual_complexity_sweep(
        protocols=("lumiere", "lp22"), n=4, fault_counts=[0, 1], delta=1.0, actual_delay=0.1
    )
    assert len(rows) == 4
    assert {row.protocol for row in rows} == {"lumiere", "lp22"}
    table = format_rows(rows)
    assert "lumiere" in table and "lp22" in table
    for row in rows:
        assert isinstance(row, Table1Row)
        assert row.decisions > 0


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------
def test_paper_table_contains_all_four_protocol_columns():
    assert set(PAPER_TABLE1) == {"cogsworth", "lp22", "fever", "lumiere"}
    lumiere = PAPER_TABLE1["lumiere"]
    assert lumiere.eventual_communication.formula == "O(n * f_a + n)"
    assert lumiere.eventual_communication(10, 3) == 40


def test_bound_for_resolves_aliases():
    assert bound_for("basic-lumiere", "worst_case_communication").formula == "O(n^2)"
    assert bound_for("naor-keidar", "worst_case_latency").formula == "O(n^2 * Delta)"
    assert bound_for("lumiere", "eventual_latency")(13, 2, 1.0, 0.1) == pytest.approx(2.1)


def test_estimate_exponent_recovers_power_laws():
    xs = [4, 8, 16, 32]
    quadratic = [x**2 for x in xs]
    linear = [3 * x for x in xs]
    assert estimate_exponent(xs, quadratic) == pytest.approx(2.0, abs=0.01)
    assert estimate_exponent(xs, linear) == pytest.approx(1.0, abs=0.01)


def test_estimate_exponent_input_validation():
    with pytest.raises(ValueError):
        estimate_exponent([1], [1])
    with pytest.raises(ValueError):
        estimate_exponent([2, 2], [1, 4])


def test_growth_ratio():
    assert growth_ratio([2, 4, 8]) == pytest.approx(4.0)
    assert math.isnan(growth_ratio([0, 4]))
    assert math.isnan(growth_ratio([5]))


def test_figure1_sweep_tolerates_duplicate_sizes():
    from repro.experiments.figure1 import figure1_sweep

    figures = figure1_sweep((4, 4), delta=1.0, actual_delay=0.05, duration=120.0, seed=0)
    assert list(figures) == [4]
    assert figures[4].n == 4


def test_heavy_sync_sweep_tolerates_duplicate_protocols():
    from repro.experiments.steady_state import heavy_sync_sweep

    results = heavy_sync_sweep(("lumiere", "lumiere"), n=4, duration=200.0, warmup=40.0)
    assert list(results) == ["lumiere"]
