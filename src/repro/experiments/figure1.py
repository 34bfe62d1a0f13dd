"""Regeneration of Figure 1: the LP22 single-faulty-leader pathology.

Figure 1 of the paper shows an LP22 epoch in which the first leaders produce
QCs at network speed, a faulty leader near the end of the epoch stalls, and
honest processors must then wait out almost the whole epoch's worth of clock
time before the next epoch synchronisation — even though only one processor
is faulty.  Lumiere bounds the damage of the same faulty leader to a single
view's ``Gamma``.

:func:`figure1_sweep` runs the same corruption plan (one silent leader owning
the tail view of an epoch) under both protocols at each requested system
size — as one campaign grid — and reports, for each size, the largest gap
between consecutive honest-leader decisions after the warmup, together with
the decision timeline used to plot the figure.  :func:`run_figure1` is the
single-size convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from repro.config import ProtocolConfig
from repro.experiments.scenario import ScenarioConfig
from repro.faults.behaviours import SilentLeaderBehaviour
from repro.faults.corruption import CorruptionPlan
from repro.runner.cache import ResultCache
from repro.runner.campaign import Campaign, Sweep


@dataclass(frozen=True)
class Figure1Result:
    """Decision timelines and maximum stall for the two protocols."""

    n: int
    corrupted: int
    lp22_decision_times: tuple[float, ...]
    lumiere_decision_times: tuple[float, ...]
    lp22_max_gap: float
    lumiere_max_gap: float
    lp22_gamma: float
    lumiere_gamma: float

    def gap_ratio(self) -> float:
        """How many times larger LP22's worst stall is than Lumiere's."""
        if self.lumiere_max_gap <= 0:
            return float("inf")
        return self.lp22_max_gap / self.lumiere_max_gap

    def describe(self) -> str:
        return (
            f"Figure 1 (n={self.n}, silent leader p{self.corrupted}): "
            f"LP22 worst stall {self.lp22_max_gap:.2f} "
            f"({self.lp22_max_gap / self.lp22_gamma:.1f} Gamma_lp22), "
            f"Lumiere worst stall {self.lumiere_max_gap:.2f} "
            f"({self.lumiere_max_gap / self.lumiere_gamma:.1f} Gamma_lumiere)"
        )


def default_corrupted(n: int) -> int:
    """A silent leader somewhere in the middle of the round-robin order.

    Over a long run its views periodically fall at an LP22 epoch tail, which
    is the pathology Figure 1 is about.
    """
    f = ProtocolConfig(n=n).f
    return (2 * (f + 1) - 1) % n


def build_figure1_config(params: dict[str, Any]) -> ScenarioConfig:
    """Campaign cell builder: one protocol at one size, one silent leader."""
    n = params["n"]
    corrupted = params["corrupted"]
    if corrupted is None:
        corrupted = default_corrupted(n)
    duration = params["duration"]
    if duration is None:
        duration = 300.0 + 120.0 * n
    config = ScenarioConfig(
        n=n,
        pacemaker=params["pacemaker"],
        delta=params["delta"],
        actual_delay=params["actual_delay"],
        gst=0.0,
        duration=duration,
        seed=params["seed"],
    )
    config.corruption = CorruptionPlan.uniform(
        config.protocol_config(), [corrupted], SilentLeaderBehaviour
    )
    return config


def figure1_sweep(
    sizes: Iterable[int],
    *,
    delta: float = 1.0,
    actual_delay: float = 0.05,
    duration: Optional[float] = None,
    seed: int = 0,
    corrupted: Optional[int] = None,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, None] = None,
) -> dict[int, Figure1Result]:
    """Run the Figure-1 scenario under LP22 and Lumiere at each size.

    ``duration=None`` scales the run with the system size (``300 + 120 n``);
    ``corrupted=None`` picks the epoch-tail leader via
    :func:`default_corrupted`.  Returns one :class:`Figure1Result` per size.
    """
    sizes = tuple(dict.fromkeys(sizes))  # preserve order, drop duplicate cells
    campaign = Campaign(
        name="figure1",
        build=build_figure1_config,
        sweeps=(Sweep("n", sizes), Sweep("pacemaker", ("lp22", "lumiere"))),
        fixed={
            "delta": delta,
            "actual_delay": actual_delay,
            "duration": duration,
            "seed": seed,
            "corrupted": corrupted,
        },
    )
    result = campaign.run(backend=backend, workers=workers, cache=cache)

    warmup = 20.0 * delta
    x = ProtocolConfig().x
    figures: dict[int, Figure1Result] = {}
    for n in sizes:
        lp22 = result.one(n=n, pacemaker="lp22").metrics
        lumiere = result.one(n=n, pacemaker="lumiere").metrics
        lp22_times = lp22.decision_times_after(warmup)
        lumiere_times = lumiere.decision_times_after(warmup)
        lp22_gaps = lp22.decision_gaps(after=warmup)
        lumiere_gaps = lumiere.decision_gaps(after=warmup)
        figures[n] = Figure1Result(
            n=n,
            corrupted=corrupted if corrupted is not None else default_corrupted(n),
            lp22_decision_times=tuple(lp22_times),
            lumiere_decision_times=tuple(lumiere_times),
            lp22_max_gap=max(lp22_gaps) if lp22_gaps else float("nan"),
            lumiere_max_gap=max(lumiere_gaps) if lumiere_gaps else float("nan"),
            lp22_gamma=(x + 1) * delta,
            lumiere_gamma=2 * (x + 2) * delta,
        )
    return figures


def run_figure1(
    n: int = 13,
    *,
    delta: float = 1.0,
    actual_delay: float = 0.05,
    duration: float = 2500.0,
    seed: int = 0,
    corrupted: int | None = None,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, None] = None,
) -> Figure1Result:
    """Run the Figure-1 scenario under LP22 and Lumiere and compare stalls."""
    figures = figure1_sweep(
        (n,),
        delta=delta,
        actual_delay=actual_delay,
        duration=duration,
        seed=seed,
        corrupted=corrupted,
        backend=backend,
        workers=workers,
        cache=cache,
    )
    return figures[n]
