"""Regeneration of Table 1: the four complexity measures across protocols.

The paper's Table 1 is asymptotic; we regenerate it *empirically* by running
each protocol in the simulator under the scenarios the bounds are about and
reporting the measured counts.  Two sweeps are provided, both expressed as
declarative :class:`~repro.runner.Campaign` grids:

* :func:`worst_case_complexity_sweep` — worst-case communication and latency
  after GST, as a function of ``n``, under maximal faults and pre-GST chaos
  (rows 1 and 3 of Table 1);
* :func:`eventual_complexity_sweep` — steady-state (post-warmup) per-decision
  communication and latency as a function of the number of actual faults
  ``f_a`` (rows 2 and 4 of Table 1).

:func:`table1_rows` combines both into the table printed by
``benchmarks/bench_table1_*.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence, Union

from repro.experiments.scenario import ScenarioConfig, build_spread_fault_config
from repro.faults.attacks import spread_corruption, worst_case_clock_dispersion_model
from repro.faults.behaviours import SilentLeaderBehaviour
# Submodule imports (not ``repro.runner``) keep the experiments <-> runner
# import graph acyclic; see the note in repro/runner/campaign.py.
from repro.runner.cache import ResultCache
from repro.runner.campaign import Campaign, Sweep
from repro.runner.record import RunRecord


#: Protocols included in the Table-1 comparison, in the paper's column order.
TABLE1_PROTOCOLS: tuple[str, ...] = ("cogsworth", "lp22", "fever", "lumiere")


@dataclass(frozen=True)
class Table1Row:
    """One measured cell group of Table 1 (one protocol at one system size / fault level)."""

    protocol: str
    n: int
    f_actual: int
    worst_case_communication: Optional[int]
    worst_case_latency: Optional[float]
    eventual_communication: Optional[int]
    eventual_latency: Optional[float]
    decisions: int

    def as_dict(self) -> dict[str, object]:
        return {
            "protocol": self.protocol,
            "n": self.n,
            "f_a": self.f_actual,
            "worst_comm": self.worst_case_communication,
            "worst_latency": self.worst_case_latency,
            "eventual_comm": self.eventual_communication,
            "eventual_latency": self.eventual_latency,
            "decisions": self.decisions,
        }


def _base_config(params: dict[str, Any], *, gst: float, duration: float) -> ScenarioConfig:
    return ScenarioConfig(
        n=params["n"],
        pacemaker=params["protocol"],
        delta=params["delta"],
        actual_delay=params["actual_delay"],
        gst=gst,
        duration=duration,
        seed=params["seed"],
    )


def build_worst_case_config(params: dict[str, Any]) -> ScenarioConfig:
    """Campaign cell builder for the worst-case (rows 1 & 3) sweep.

    The run duration scales with ``n`` because the worst-case latency of the
    epoch-based protocols is Theta(n * Delta); faults are maximal and the
    pre-GST period is chaotic to maximise clock dispersion at GST.
    """
    n, delta = params["n"], params["delta"]
    gst = 20.0 * delta
    config = _base_config(params, gst=gst, duration=gst + 400.0 * delta + 60.0 * n * delta)
    protocol_config = config.protocol_config()
    config.corruption = spread_corruption(
        protocol_config, (n - 1) // 3, SilentLeaderBehaviour
    )
    config.delay_model = worst_case_clock_dispersion_model(
        protocol_config, params["actual_delay"], pre_gst_max_delay=gst
    )
    return config


def build_eventual_config(params: dict[str, Any]) -> ScenarioConfig:
    """Campaign cell builder for the eventual (rows 2 & 4) sweep.

    GST is zero (the network is synchronous throughout) so the measurement
    isolates the steady state; faults are silent leaders spread across the
    id space.  The shape is the shared steady-state cell with a duration
    that scales with ``n``.
    """
    n, delta = params["n"], params["delta"]
    return build_spread_fault_config(
        {**params, "duration": 600.0 * delta + 80.0 * n * delta}
    )


def row_from_record(record: RunRecord) -> Table1Row:
    """Project one campaign record onto its Table-1 row."""
    summary = record.summary
    return Table1Row(
        protocol=summary.protocol,
        n=summary.n,
        f_actual=summary.f_actual,
        worst_case_communication=summary.worst_case_communication,
        worst_case_latency=summary.worst_case_latency,
        eventual_communication=summary.eventual_communication,
        eventual_latency=summary.eventual_latency,
        decisions=summary.decisions,
    )


def worst_case_complexity_sweep(
    protocols: Sequence[str] = TABLE1_PROTOCOLS,
    sizes: Iterable[int] = (4, 7, 13, 19),
    *,
    delta: float = 1.0,
    actual_delay: float = 0.1,
    seed: int = 0,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, None] = None,
) -> list[Table1Row]:
    """Rows 1 & 3 of Table 1: worst case after GST, maximal faults, pre-GST chaos."""
    campaign = Campaign(
        name="table1-worst-case",
        build=build_worst_case_config,
        sweeps=(Sweep("n", sizes), Sweep("protocol", protocols)),
        fixed={"delta": delta, "actual_delay": actual_delay, "seed": seed},
    )
    result = campaign.run(backend=backend, workers=workers, cache=cache)
    return [row_from_record(record) for record in result]


def eventual_complexity_sweep(
    protocols: Sequence[str] = TABLE1_PROTOCOLS,
    n: int = 13,
    fault_counts: Optional[Iterable[int]] = None,
    *,
    delta: float = 1.0,
    actual_delay: float = 0.1,
    seed: int = 0,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, None] = None,
) -> list[Table1Row]:
    """Rows 2 & 4 of Table 1: steady-state cost per decision as ``f_a`` grows."""
    f_max = (n - 1) // 3
    if fault_counts is None:
        fault_counts = range(0, f_max + 1)
    campaign = Campaign(
        name="table1-eventual",
        build=build_eventual_config,
        sweeps=(Sweep("f_actual", fault_counts), Sweep("protocol", protocols)),
        fixed={"n": n, "delta": delta, "actual_delay": actual_delay, "seed": seed},
    )
    result = campaign.run(backend=backend, workers=workers, cache=cache)
    return [row_from_record(record) for record in result]


def table1_rows(
    *,
    sizes: Iterable[int] = (4, 7, 13),
    steady_state_n: int = 13,
    delta: float = 1.0,
    actual_delay: float = 0.1,
    seed: int = 0,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, None] = None,
) -> dict[str, list[Table1Row]]:
    """Both sweeps, keyed by which half of the table they regenerate."""
    return {
        "worst_case": worst_case_complexity_sweep(
            sizes=sizes, delta=delta, actual_delay=actual_delay, seed=seed,
            backend=backend, workers=workers, cache=cache,
        ),
        "eventual": eventual_complexity_sweep(
            n=steady_state_n, delta=delta, actual_delay=actual_delay, seed=seed,
            backend=backend, workers=workers, cache=cache,
        ),
    }


def format_rows(rows: Sequence[Table1Row]) -> str:
    """Render rows as an aligned text table for reports and bench output."""
    header = (
        f"{'protocol':<14} {'n':>4} {'f_a':>4} {'worst_comm':>11} {'worst_lat':>10} "
        f"{'event_comm':>11} {'event_lat':>10} {'decisions':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.protocol:<14} {row.n:>4} {row.f_actual:>4} "
            f"{_fmt(row.worst_case_communication):>11} {_fmt(row.worst_case_latency):>10} "
            f"{_fmt(row.eventual_communication):>11} {_fmt(row.eventual_latency):>10} "
            f"{row.decisions:>10}"
        )
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
