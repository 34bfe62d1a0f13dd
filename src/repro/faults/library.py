"""The named scenario library.

Every entry is a :class:`FaultScenario`: a named, parameterised adversarial
setup — a delay schedule, a corruption plan, or both — documented with the
paper claim it stresses.  Scenarios are referenced *by name* from
:class:`~repro.experiments.scenario.ScenarioConfig` (the ``scenario`` field)
and therefore from :class:`~repro.runner.campaign.Campaign` sweeps
(``Sweep("scenario", available_scenarios())``), which makes the whole
adversarial design space one more campaign axis.

A scenario is a *builder*, not a config: it receives the fully-populated
``ScenarioConfig`` (so it can key off ``n``, ``gst``, ``delta``,
``actual_delay``) plus its resolved parameters, and returns the
``(delay_model, corruption)`` pair the config should run under.  Defaults of
``None`` are derived from the config at build time, so one scenario name
means the same *relative* adversary at every system size.

The documentation site's scenario catalogue page is generated from this
registry (``docs/gen_ref.py``) — intent, parameters and stressed claim all
come from the :func:`scenario` registrations below, so the catalogue can
never drift from the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.faults.attacks import lp22_tail_attack_plan, spread_corruption
from repro.faults.behaviours import ChurnBehaviour, EquivocatingBehaviour, SilentLeaderBehaviour
from repro.faults.corruption import CorruptionPlan
from repro.faults.delays import (
    DelayModel,
    FixedDelay,
    IntermittentSynchrony,
    MessageClassDelay,
    PartitionSchedule,
    PreGSTChaos,
    RotatingLeaderDelay,
    TargetedDelay,
    UniformDelay,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.experiments.scenario import ScenarioConfig

#: What a scenario builds: the delay model and corruption plan to run under
#: (either may be ``None``, meaning "the config's defaults").
ScenarioEffect = tuple[Optional[DelayModel], Optional[CorruptionPlan]]

#: Signature of a registered scenario builder.
ScenarioBuilder = Callable[["ScenarioConfig", dict[str, Any]], ScenarioEffect]


@dataclass(frozen=True)
class ScenarioParameter:
    """One tunable knob of a named scenario.

    Attributes
    ----------
    name:
        Parameter name, as accepted in ``scenario_params``.
    default:
        Default value.  ``None`` means "derived from the scenario config at
        build time" (the ``doc`` says how).
    doc:
        One-line description, surfaced in the generated catalogue.
    """

    name: str
    default: Any
    doc: str


@dataclass(frozen=True)
class FaultScenario:
    """A named, parameterised adversarial setup.

    Attributes
    ----------
    name:
        Registry key, stable across releases (campaign cache keys embed it).
    intent:
        One-line description of the adversarial situation modelled.
    claim:
        The paper claim this scenario stresses.
    parameters:
        Tunable knobs with defaults and docs.
    builder:
        The function turning (config, resolved params) into the scenario's
        ``(delay_model, corruption)`` effect.
    """

    name: str
    intent: str
    claim: str
    parameters: tuple[ScenarioParameter, ...]
    builder: ScenarioBuilder

    def resolve_params(self, overrides: Optional[Mapping[str, Any]] = None) -> dict[str, Any]:
        """Defaults merged with ``overrides``; unknown keys are rejected."""
        params = {parameter.name: parameter.default for parameter in self.parameters}
        overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r} has no parameter(s) {unknown}; "
                f"available: {sorted(params)}"
            )
        params.update(overrides)
        return params

    def build(
        self, config: "ScenarioConfig", overrides: Optional[Mapping[str, Any]] = None
    ) -> ScenarioEffect:
        """The ``(delay_model, corruption)`` this scenario imposes on ``config``."""
        return self.builder(config, self.resolve_params(overrides))


_REGISTRY: dict[str, FaultScenario] = {}


def scenario(
    name: str,
    intent: str,
    claim: str,
    params: Sequence[ScenarioParameter] = (),
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Register a scenario builder under ``name`` (decorator).

    Parameters
    ----------
    name:
        Registry key; must be unique.
    intent:
        One-line description of the adversarial situation.
    claim:
        The paper claim the scenario stresses.
    params:
        The scenario's tunable parameters.
    """

    def decorate(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in _REGISTRY:
            raise ConfigurationError(f"scenario {name!r} registered twice")
        _REGISTRY[name] = FaultScenario(
            name=name,
            intent=intent,
            claim=claim,
            parameters=tuple(params),
            builder=builder,
        )
        return builder

    return decorate


def available_scenarios() -> list[str]:
    """Names accepted by :func:`get_scenario` (and ``ScenarioConfig.scenario``)."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> FaultScenario:
    """The registered scenario called ``name``.

    Raises
    ------
    ConfigurationError
        If no scenario with that name exists.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        ) from None


def scenario_catalogue() -> list[FaultScenario]:
    """Every registered scenario, sorted by name (drives the docs catalogue)."""
    return [_REGISTRY[name] for name in available_scenarios()]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _base_model(config: "ScenarioConfig") -> DelayModel:
    """The benign baseline every schedule perturbs: fixed network-speed delay."""
    return FixedDelay(config.actual_delay)


def _require_positive_gst(config: "ScenarioConfig", name: str) -> None:
    if config.gst <= 0:
        raise ConfigurationError(
            f"scenario {name!r} is an attack on the pre-GST period; "
            f"it needs gst > 0 (got gst={config.gst})"
        )


def _halves(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    split = (n + 1) // 2
    return tuple(range(split)), tuple(range(split, n))


# ----------------------------------------------------------------------
# The library
# ----------------------------------------------------------------------
@scenario(
    "split_brain_at_gst",
    intent="Two network halves cannot talk until the partition heals exactly at GST.",
    claim="Liveness after GST regardless of pre-GST history (Theorem 1.1, liveness).",
    params=(
        ScenarioParameter("split_at", 0.0, "Time the partition forms."),
        ScenarioParameter(
            "flush_delay", None, "Backlog flush delay after heal; None = actual_delay."
        ),
    ),
)
def _split_brain_at_gst(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    _require_positive_gst(config, "split_brain_at_gst")
    flush = params["flush_delay"] if params["flush_delay"] is not None else config.actual_delay
    first, second = _halves(config.n)
    model = PartitionSchedule(
        _base_model(config),
        groups=(first, second),
        split_at=params["split_at"],
        heal_at=config.gst,
        flush_delay=flush,
    )
    return model, None


@scenario(
    "rotating_leader_dos",
    intent="A moving denial-of-service pins the current (round-robin) leader's "
    "inbound traffic at the worst legal delay.",
    claim="Smooth optimistic responsiveness: latency degrades by O(Delta) per "
    "attacked view, never collapses (Theorem 1.1, property 3).",
    params=(
        ScenarioParameter(
            "view_duration", None, "Attacker's per-view time estimate; None = 2*delta."
        ),
        ScenarioParameter(
            "target_delay", None, "Proposed delay for victim traffic; None = delta (the max)."
        ),
    ),
)
def _rotating_leader_dos(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    view_duration = (
        params["view_duration"] if params["view_duration"] is not None else 2.0 * config.delta
    )
    target_delay = (
        params["target_delay"] if params["target_delay"] is not None else config.delta
    )
    model = RotatingLeaderDelay(
        _base_model(config),
        n=config.n,
        view_duration=view_duration,
        target_delay=target_delay,
    )
    return model, None


@scenario(
    "flaky_half",
    intent="Half the processors' links periodically degrade to the Delta envelope, "
    "then recover to network speed.",
    claim="View synchronisation must re-form after every lapse without heavy "
    "syncs restarting (success criterion, Section 6).",
    params=(
        ScenarioParameter("calm_duration", 20.0, "Length of each calm window."),
        ScenarioParameter("chaos_duration", 10.0, "Length of each degraded window."),
    ),
)
def _flaky_half(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    first, _ = _halves(config.n)
    degraded = TargetedDelay(
        _base_model(config),
        targets=first,
        target_delay=config.delta,
        direction="both",
    )
    model = IntermittentSynchrony(
        calm=_base_model(config),
        chaotic=degraded,
        calm_duration=params["calm_duration"],
        chaos_duration=params["chaos_duration"],
        start=0.0,
    )
    return model, None


@scenario(
    "late_gst_storm",
    intent="A long, maximally chaotic asynchronous period before a late GST, "
    "with the full budget of silent Byzantine leaders.",
    claim="Worst-case communication/latency after GST is bounded independent of "
    "the pre-GST chaos (Table 1, worst-case rows).",
    params=(
        ScenarioParameter(
            "pre_gst_max_delay", None, "Pre-GST delay bound; None = config.pre_gst_max_delay."
        ),
        ScenarioParameter("faults", None, "Silent leaders; None = the full budget f."),
    ),
)
def _late_gst_storm(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    _require_positive_gst(config, "late_gst_storm")
    pre_max = (
        params["pre_gst_max_delay"]
        if params["pre_gst_max_delay"] is not None
        else config.pre_gst_max_delay
    )
    protocol_config = config.protocol_config()
    faults = params["faults"] if params["faults"] is not None else protocol_config.f
    model = PreGSTChaos(_base_model(config), pre_gst_max_delay=pre_max)
    corruption = spread_corruption(protocol_config, faults, SilentLeaderBehaviour)
    return model, corruption


@scenario(
    "view_sync_throttle",
    intent="Only view-synchronisation traffic is throttled to the Delta envelope; "
    "proposals and votes stay at network speed.",
    claim="Lumiere's latency rides on consensus traffic, not on sync traffic, "
    "once the success criterion holds (Section 6).",
    params=(
        ScenarioParameter("delay", None, "Delay for view-sync messages; None = delta."),
    ),
)
def _view_sync_throttle(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    delay = params["delay"] if params["delay"] is not None else config.delta
    return MessageClassDelay(_base_model(config), match="view-sync", delay=delay), None


@scenario(
    "proposal_throttle",
    intent="Only consensus traffic (proposals, votes, QCs) is throttled to the "
    "Delta envelope; view synchronisation stays fast.",
    claim="Decision latency degrades to O(Delta) per view but view "
    "synchronisation never destabilises (Theorem 1.1, property 3).",
    params=(
        ScenarioParameter("delay", None, "Delay for consensus messages; None = delta."),
    ),
)
def _proposal_throttle(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    delay = params["delay"] if params["delay"] is not None else config.delta
    return MessageClassDelay(_base_model(config), match="consensus", delay=delay), None


@scenario(
    "crash_churn",
    intent="Processors keep crashing and restarting in staggered waves.",
    claim="Liveness with f_a benign faults costs O(Delta * f_a + delta) per "
    "decision, even when the faulty set keeps changing state (Theorem 1.1).",
    params=(
        ScenarioParameter("faults", None, "Churning processors; None = the full budget f."),
        ScenarioParameter("downtime", 10.0, "Time each processor stays down per cycle."),
        ScenarioParameter("period", 40.0, "Cycle length (down + up)."),
        ScenarioParameter("cycles", 3, "Crash/recover cycles per processor."),
    ),
)
def _crash_churn(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    protocol_config = config.protocol_config()
    faults = params["faults"] if params["faults"] is not None else protocol_config.f
    downtime = params["downtime"]
    period = params["period"]
    cycles = params["cycles"]
    stagger = period / max(1, faults)

    counter = iter(range(faults))

    def churn() -> ChurnBehaviour:
        index = next(counter)
        return ChurnBehaviour(
            first_crash=config.gst + 1.0 + index * stagger,
            downtime=downtime,
            period=period,
            cycles=cycles,
        )

    corruption = spread_corruption(protocol_config, faults, churn)
    return None, corruption


@scenario(
    "silent_spread",
    intent="The classic fault load: silent Byzantine leaders spread evenly over "
    "the id space.",
    claim="Eventual latency and communication per decision (Table 1, eventual rows).",
    params=(
        ScenarioParameter("faults", None, "Silent leaders; None = the full budget f."),
    ),
)
def _silent_spread(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    protocol_config = config.protocol_config()
    faults = params["faults"] if params["faults"] is not None else protocol_config.f
    return None, spread_corruption(protocol_config, faults, SilentLeaderBehaviour)


@scenario(
    "equivocator_mix",
    intent="Byzantine leaders propose conflicting blocks to different halves of "
    "the processors.",
    claim="Safety: honest ledgers stay prefix-consistent under equivocation "
    "(the 3-chain commit rule).",
    params=(
        ScenarioParameter("faults", None, "Equivocating leaders; None = the full budget f."),
    ),
)
def _equivocator_mix(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    protocol_config = config.protocol_config()
    faults = params["faults"] if params["faults"] is not None else protocol_config.f
    return None, spread_corruption(protocol_config, faults, EquivocatingBehaviour)


@scenario(
    "calm_chaos_waves",
    intent="The whole network alternates between network-speed calm and "
    "envelope-filling chaos after GST.",
    claim="Responsiveness must return within O(Delta) of each calm window "
    "opening (smooth optimistic responsiveness).",
    params=(
        ScenarioParameter("calm_duration", 30.0, "Length of each calm window."),
        ScenarioParameter("chaos_duration", 15.0, "Length of each chaotic window."),
    ),
)
def _calm_chaos_waves(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    chaotic = UniformDelay(0.0, 10.0 * config.delta)  # clamped to the envelope post-GST
    model = IntermittentSynchrony(
        calm=_base_model(config),
        chaotic=chaotic,
        calm_duration=params["calm_duration"],
        chaos_duration=params["chaos_duration"],
        start=config.gst,
    )
    return model, None


@scenario(
    "tail_leader_ambush",
    intent="A single silent leader placed to own the tail views of an epoch "
    "under round-robin schedules.",
    claim="The LP22 pathology of Figure 1: one fault causes epoch-scale stalls "
    "in epoch-based protocols but only O(Delta) in Lumiere.",
)
def _tail_leader_ambush(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    return None, lp22_tail_attack_plan(config.protocol_config())


@scenario(
    "split_then_silence",
    intent="A pre-GST partition heals at GST, and the recovered network still "
    "carries the full budget of silent leaders.",
    claim="Recovery bounds compose: partition recovery and fault tolerance "
    "do not multiply each other's cost (Theorem 1.1).",
    params=(
        ScenarioParameter("faults", None, "Silent leaders; None = the full budget f."),
    ),
)
def _split_then_silence(config: "ScenarioConfig", params: dict[str, Any]) -> ScenarioEffect:
    _require_positive_gst(config, "split_then_silence")
    protocol_config = config.protocol_config()
    faults = params["faults"] if params["faults"] is not None else protocol_config.f
    first, second = _halves(config.n)
    model = PartitionSchedule(
        _base_model(config),
        groups=(first, second),
        split_at=0.0,
        heal_at=config.gst,
        flush_delay=config.actual_delay,
    )
    corruption = spread_corruption(protocol_config, faults, SilentLeaderBehaviour)
    return model, corruption
