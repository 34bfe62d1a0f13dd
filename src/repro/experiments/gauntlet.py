"""The scenario gauntlet: every pacemaker against the named scenario library.

The paper's headline claim is comparative — Lumiere stays live and cheap
under adversarial partial-synchrony schedules where the baselines degrade.
The gauntlet makes that claim an experiment: one campaign grid of pacemaker
x named scenario (see :mod:`repro.faults.library`), all cells under the same
timing parameters, reduced to a comparison table of decisions, worst
post-GST decision gap, and message cost.

Every scenario in the default set keeps at most ``f`` processors faulty and
proposes delays within the partial-synchrony envelope, so *every correct*
pacemaker must stay safe and live in every cell; what separates them is how
much latency and communication the adversary can extract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig
from repro.faults.library import available_scenarios
from repro.pacemakers.registry import available_pacemakers
from repro.runner.cache import ResultCache
from repro.runner.campaign import Campaign, Sweep

#: The scenario names every pacemaker is run against by default: the whole
#: registered library.  This is sound because the library's conventions
#: (enforced by the gauntlet benchmark) require every entry to keep >= 2f+1
#: honest-and-up processors at all times and heal every partition by GST, so
#: liveness is required of every correct pacemaker in every cell.
DEFAULT_GAUNTLET_SCENARIOS = tuple(available_scenarios())


@dataclass(frozen=True)
class GauntletCell:
    """One (pacemaker, scenario) outcome of the gauntlet."""

    pacemaker: str
    scenario: str
    #: Honest-leader decisions over the whole run.
    decisions: int
    #: Length of the longest honest ledger.
    committed_blocks: int
    #: Safety: honest ledgers pairwise prefix-consistent.
    ledgers_consistent: bool
    #: Largest gap between consecutive honest-leader decisions after the
    #: post-GST warmup (``None`` with fewer than two decisions there).
    max_gap: Optional[float]
    #: Honest messages sent over the whole run.
    total_messages: int
    #: Simulator events executed (a proxy for simulation cost).
    events_processed: int


def build_gauntlet_config(params: dict[str, Any]) -> ScenarioConfig:
    """Module-level campaign builder for gauntlet cells.

    ``params`` must carry ``protocol``, ``scenario``, ``n``, ``delta``,
    ``actual_delay``, ``gst``, ``duration`` and ``seed``; an optional
    ``scenario_params`` dict is forwarded to the named scenario and an
    optional ``crypto_backend`` name selects the digest backend (so
    campaigns can sweep it).  Being module-level keeps the builder
    picklable for the process-pool backend.
    """
    return ScenarioConfig(
        n=params["n"],
        pacemaker=params["protocol"],
        delta=params["delta"],
        actual_delay=params["actual_delay"],
        gst=params["gst"],
        duration=params["duration"],
        seed=params["seed"],
        scenario=params["scenario"],
        scenario_params=dict(params.get("scenario_params", {})),
        crypto_backend=params.get("crypto_backend", "hashing"),
    )


def gauntlet_campaign(
    pacemakers: Iterable[str],
    scenarios: Iterable[str],
    *,
    n: int = 7,
    delta: float = 1.0,
    actual_delay: float = 0.1,
    gst: float = 20.0,
    duration: Optional[float] = None,
    seed: int = 0,
) -> Campaign:
    """The pacemaker x scenario grid as a :class:`Campaign`.

    ``gst`` must be positive: several library scenarios (partitions, pre-GST
    storms) attack the pre-GST period and require it.  ``duration`` defaults
    to ``gst + 300 * delta``, long enough for every pacemaker to settle after
    the worst scenario in the default set.
    """
    if gst <= 0:
        raise ConfigurationError(
            f"the gauntlet needs gst > 0 (several scenarios attack the "
            f"pre-GST period), got gst={gst}"
        )
    if duration is None:
        duration = gst + 300.0 * delta
    return Campaign(
        name="gauntlet",
        build=build_gauntlet_config,
        sweeps=(
            Sweep("protocol", tuple(pacemakers)),
            Sweep("scenario", tuple(scenarios)),
        ),
        fixed={
            "n": n,
            "delta": delta,
            "actual_delay": actual_delay,
            "gst": gst,
            "duration": duration,
            "seed": seed,
        },
    )


def scenario_gauntlet(
    pacemakers: Optional[Iterable[str]] = None,
    scenarios: Optional[Iterable[str]] = None,
    *,
    n: int = 7,
    delta: float = 1.0,
    actual_delay: float = 0.1,
    gst: float = 20.0,
    duration: Optional[float] = None,
    seed: int = 0,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, None] = None,
) -> list[GauntletCell]:
    """Run the gauntlet and reduce it to comparison cells.

    Defaults sweep every registered pacemaker against
    :data:`DEFAULT_GAUNTLET_SCENARIOS`.  The post-GST warmup for ``max_gap``
    is ``gst + 30 * delta``, skipping the recovery transient every scenario
    deliberately front-loads.
    """
    pacemakers = tuple(pacemakers) if pacemakers is not None else tuple(available_pacemakers())
    scenarios = (
        tuple(scenarios) if scenarios is not None else DEFAULT_GAUNTLET_SCENARIOS
    )
    campaign = gauntlet_campaign(
        pacemakers,
        scenarios,
        n=n,
        delta=delta,
        actual_delay=actual_delay,
        gst=gst,
        duration=duration,
        seed=seed,
    )
    result = campaign.run(backend=backend, workers=workers, cache=cache)

    warmup = gst + 30.0 * delta
    cells = []
    for record in result:
        cells.append(
            GauntletCell(
                pacemaker=record.params["protocol"],
                scenario=record.params["scenario"],
                decisions=record.decisions,
                committed_blocks=record.committed_blocks,
                ledgers_consistent=record.ledgers_consistent,
                max_gap=record.metrics.max_gap(after=warmup),
                total_messages=record.metrics.total_honest_messages,
                events_processed=record.events_processed,
            )
        )
    return cells


def gauntlet_table(cells: Iterable[GauntletCell], measure: str = "decisions") -> str:
    """Render gauntlet cells as a pacemaker x scenario text matrix.

    ``measure`` selects the cell value: any :class:`GauntletCell` field name
    (``"decisions"``, ``"max_gap"``, ``"total_messages"``, ...).  Cells that
    failed the safety check are marked with ``!`` — these should never occur
    and mean a protocol bug.
    """
    cells = list(cells)
    if not cells:
        return "(no cells)"
    pacemakers = sorted({cell.pacemaker for cell in cells})
    scenarios = sorted({cell.scenario for cell in cells})
    by_key = {(cell.pacemaker, cell.scenario): cell for cell in cells}

    def render(cell: Optional[GauntletCell]) -> str:
        if cell is None:
            return "-"
        value = getattr(cell, measure)
        if value is None:
            text = "-"
        elif isinstance(value, float):
            text = f"{value:.2f}"
        else:
            text = str(value)
        return f"{text}!" if not cell.ledgers_consistent else text

    width = max(
        [len(measure)]
        + [len(render(by_key.get((p, s)))) for p in pacemakers for s in scenarios]
    )
    label_width = max(len("pacemaker"), *(len(p) for p in pacemakers))
    column_widths = [max(len(s), width) for s in scenarios]

    lines = [
        " ".join(
            [f"{'pacemaker':<{label_width}}"]
            + [f"{s:>{w}}" for s, w in zip(scenarios, column_widths)]
        )
    ]
    for pacemaker in pacemakers:
        row = [f"{pacemaker:<{label_width}}"]
        for scenario_name, column_width in zip(scenarios, column_widths):
            row.append(f"{render(by_key.get((pacemaker, scenario_name))):>{column_width}}")
        lines.append(" ".join(row))
    return "\n".join(lines)
