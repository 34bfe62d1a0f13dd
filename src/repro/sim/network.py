"""Partial-synchrony network model.

The defining constraint of the partial synchrony model of Dwork, Lynch and
Stockmeyer: a message sent at time ``t`` is delivered by
``max(GST, t) + Delta`` (:meth:`NetworkConfig.delivery_time`).  Within that
constraint, the adversary (modelled by a :class:`DelayModel`) chooses the
actual delivery time of every message.

This module is the model only — the timing parameters, the delay models,
the run's counter bag and the :class:`Envelope` a message travels in.  The
fabric that moves messages under it is a
:class:`~repro.runtime.transports.Transport`: in virtual time a
:class:`~repro.runtime.transports.LocalTransport`, wrapped in a
:class:`~repro.runtime.chaos.FaultyTransport` when a delay model is imposed.

The model never loses a message.  A processor sending a message "to all
processors" includes itself, and the copy to itself is delivered
immediately, matching the convention stated in Section 4 of the paper.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NetworkConfig:
    """Timing parameters of the partial synchrony model.

    Attributes
    ----------
    delta:
        The known bound ``Delta`` on message delay after GST.
    gst:
        The Global Stabilisation Time chosen by the adversary.  Unknown to
        the protocols (they never read it); known to the simulator.
    actual_delay:
        The actual (unknown to the protocol) bound ``delta`` on message
        delay after GST, used by the default delay models.  Must satisfy
        ``0 < actual_delay <= delta``.
    pre_gst_max_delay:
        Upper bound used by delay models for messages sent before GST.  The
        model itself caps delivery at ``GST + delta`` anyway; this bound only
        shapes how chaotic the pre-GST period looks.
    min_delay:
        Floor applied to every delay a :class:`DelayModel` proposes for a
        message between *distinct* processors (self-messages stay immediate).
        The default of ``0.0`` keeps the historical behaviour; setting it
        positive guarantees virtual time advances along every message chain,
        so a model proposing ``0.0`` forever can no longer livelock
        ``Simulator.run(until=...)`` (see also
        :attr:`~repro.sim.events.Simulator.MAX_EVENTS_PER_TIMESTAMP`, the
        complementary guard that trips when no floor is set).  Must satisfy
        ``0 <= min_delay <= actual_delay``: a floor above ``actual_delay``
        would contradict the claim that ``actual_delay`` bounds every
        post-GST delay (and a floor above ``delta`` would break the partial
        synchrony model outright).
    """

    delta: float = 1.0
    gst: float = 0.0
    actual_delay: float = 0.1
    pre_gst_max_delay: float = 50.0
    min_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {self.delta}")
        if self.actual_delay <= 0 or self.actual_delay > self.delta:
            raise ConfigurationError(
                f"actual_delay must be in (0, delta={self.delta}], got {self.actual_delay}"
            )
        if self.gst < 0:
            raise ConfigurationError(f"gst must be non-negative, got {self.gst}")
        if self.pre_gst_max_delay < 0:
            raise ConfigurationError(
                f"pre_gst_max_delay must be non-negative, got {self.pre_gst_max_delay}"
            )
        if self.min_delay < 0 or self.min_delay > self.delta:
            raise ConfigurationError(
                f"min_delay must be in [0, delta={self.delta}], got {self.min_delay}"
            )
        if self.min_delay > self.actual_delay:
            raise ConfigurationError(
                f"min_delay={self.min_delay} exceeds actual_delay={self.actual_delay}: "
                "the floor would push every post-GST delay above the actual bound "
                "delta, making the timing parameters contradictory — raise "
                "actual_delay or lower min_delay"
            )

    def delivery_time(self, send_time: float, proposed_delay: float) -> float:
        """When a message sent at ``send_time`` arrives, given the adversary's proposal.

        The model's one network rule, stated here and nowhere else: the
        proposal is floored at ``min_delay`` and delivery is clamped to
        ``max(GST, send_time) + Delta``.  A
        :class:`~repro.runtime.chaos.FaultyTransport` decides every non-self
        message's fate through this method, on every lane.
        """
        return min(
            send_time + max(self.min_delay, proposed_delay),
            max(self.gst, send_time) + self.delta,
        )


#: Injected-fault counters every run reports, even when zero.
BASE_FAULT_COUNTS = ("drops", "duplicates", "kills", "partition_epochs", "restarts")
#: The gateway's flush triggers, each with the counter it bumps.
FLUSH_COUNTS = {trigger: "flushes." + trigger for trigger in ("view", "size", "deadline")}
#: The names a run's bag starts at zero: the fault counters, the client
#: path's and the protocol's, each bumped where it happens.
BUMPED_COUNTS = BASE_FAULT_COUNTS + (
    "requests_submitted", "requests_rejected", "requests_redispatched",
    *FLUSH_COUNTS.values(), "forwards_sent", "qc_count",
)
#: Run totals kept by the transports and runtimes themselves (plain attribute
#: increments on their hot paths), read into a run's counts when the
#: collector takes a snapshot.  ``shm_pushes`` / ``shm_doorbells`` (frames
#: copied into a shared-memory ring, and the pushes that woke its reader)
#: stay zero off the shm lane.
SOURCE_COUNTS = (
    "messages_sent", "messages_delivered", "frames_decoded", "frames_dropped",
    "frames_rejected", "events_processed", "shm_pushes", "shm_doorbells",
)
#: Every name a run reports, even when zero.
BASE_COUNTS = BUMPED_COUNTS + SOURCE_COUNTS


class Counters:
    """A run's one named-counter bag, shared by every site that counts.

    A plain named-counter bag (``bump``) plus distinct-key counting
    (``note_epoch``) for window-shaped faults: a partition that defers ten
    thousand messages is still *one* partition epoch.  Each run has one bag
    (:attr:`repro.metrics.collector.MetricsCollector.counters`): delay
    schedules, drop/duplicate injectors, replica crash/recovery, the client
    path and the protocol all count into it where the event happens, on
    every lane, and a merged run adds its shards' snapshots (:meth:`add`).
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = dict.fromkeys(BUMPED_COUNTS, 0)
        self._epoch_keys: set[tuple] = set()

    def bump(self, name: str, by: int = 1) -> None:
        """Add ``by`` to the counter called ``name`` (created at zero)."""
        self._counts[name] = self._counts.get(name, 0) + by

    def note_epoch(self, name: str, key: tuple) -> None:
        """Bump ``name`` once per distinct ``key`` (idempotent per key)."""
        full_key = (name, key)
        if full_key not in self._epoch_keys:
            self._epoch_keys.add(full_key)
            self.bump(name)

    def add(self, counts: dict[str, int]) -> None:
        """Add another snapshot (:meth:`as_dict`) name by name."""
        for name, count in counts.items():
            self.bump(name, count)

    def as_dict(self) -> dict[str, int]:
        """All counters by name (the bumped base names always present)."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self._counts.items() if v}
        return f"Counters({nonzero})"


class DelayContext:
    """What a :class:`DelayModel` is handed besides the message, on every lane.

    ``rng`` is the run's seeded delay stream — nothing else in a run draws
    from it, so a given ``(seed, send order)`` always replays the same draws.
    ``faults`` is the run's :class:`Counters` bag: a schedule counts a
    message in the branch that shaped it.
    """

    __slots__ = ("rng", "faults")

    def __init__(self, rng: random.Random, faults: Optional[Counters] = None) -> None:
        self.rng = rng
        self.faults = faults if faults is not None else Counters()


class Envelope(NamedTuple):
    """A single point-to-point message in flight.

    Tuple-backed (``NamedTuple``) rather than a frozen dataclass: one
    envelope is allocated per delivery, and the frozen-dataclass ``__init__``
    (one guarded ``object.__setattr__`` per field) was the single largest
    allocation cost of the send path — tuple construction is one C call,
    ~4x cheaper, while staying immutable with named-field access.

    Attributes
    ----------
    msg_id:
        Unique, monotonically increasing id assigned by the transport.
    sender, recipient:
        Processor ids of the two endpoints.
    payload:
        The message content, delivered verbatim.
    send_time:
        Time the message was sent, on the runtime's clock.
    deliver_time:
        Time the message is scheduled to be delivered — the send time on
        the socket and shared-memory transports, whose latency is not known
        when the envelope is minted.
    """

    msg_id: int
    sender: int
    recipient: int
    payload: Any
    send_time: float
    deliver_time: float

    @property
    def is_self_message(self) -> bool:
        """Whether the message was sent by a processor to itself."""
        return self.sender == self.recipient


class DelayModel(ABC):
    """Strategy choosing the delay of each message, i.e. the network adversary."""

    @abstractmethod
    def propose_delay(self, envelope_info: "PendingSend", ctx: DelayContext) -> float:
        """Return the proposed delay for the message described by ``envelope_info``.

        This is a schedule's one decision and its one method: a
        :class:`~repro.runtime.chaos.FaultyTransport` calls it once per
        non-self message, in send order, on every lane, so a new subclass
        runs everywhere with no further step.

        Parameters
        ----------
        envelope_info:
            The :class:`PendingSend` describing the message (sender,
            recipient, payload, send time, whether the send is after GST).
        ctx:
            The run's :class:`DelayContext`: draw randomness from
            ``ctx.rng`` only, so runs stay reproducible, and count a fault
            in ``ctx.faults`` in the branch that shapes the message.

        Returns
        -------
        float
            The proposed delay in seconds.  Advisory: the caller decides the
            arrival with :meth:`NetworkConfig.delivery_time`.
        """

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return type(self).__name__


class PendingSend(NamedTuple):
    """The information a :class:`DelayModel` may base its decision on.

    Tuple-backed for the same reason as :class:`Envelope`: one is built per
    recipient on every scheduled send.

    Attributes
    ----------
    sender, recipient:
        Processor ids of the two endpoints.
    payload:
        The message content (delay models may inspect its type, e.g. to
        throttle one traffic class).
    send_time:
        Virtual time of the send.
    after_gst:
        Whether ``send_time >= GST``.
    """

    sender: int
    recipient: int
    payload: Any
    send_time: float
    after_gst: bool


class FixedDelay(DelayModel):
    """Every message takes exactly ``delay`` time units (the synchronous case).

    Parameters
    ----------
    delay:
        The delay applied to every message; must be non-negative.
    """

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        self.delay = delay

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> float:
        return self.delay

    def describe(self) -> str:
        return f"FixedDelay({self.delay})"


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]`` using the run's delay RNG.

    Parameters
    ----------
    low, high:
        Bounds of the uniform range; need ``0 <= low <= high``.
    """

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise ConfigurationError(f"invalid uniform delay range [{low}, {high}]")
        self.low = low
        self.high = high

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> float:
        return ctx.rng.uniform(self.low, self.high)

    def describe(self) -> str:
        return f"UniformDelay({self.low}, {self.high})"


class PreGSTChaos(DelayModel):
    """Adversarial asynchrony before GST, a benign model after GST.

    Before GST, every message is delayed by a value drawn uniformly from
    ``[0, pre_gst_max_delay]`` (the network clamp still guarantees delivery by
    ``GST + Delta``).  After GST the wrapped ``post_model`` decides.

    Parameters
    ----------
    post_model:
        Delay model governing messages sent at or after GST.
    pre_gst_max_delay:
        Upper bound of the uniform pre-GST delay distribution.
    """

    def __init__(self, post_model: DelayModel, pre_gst_max_delay: float = 50.0) -> None:
        if pre_gst_max_delay < 0:
            raise ConfigurationError("pre_gst_max_delay must be non-negative")
        self.post_model = post_model
        self.pre_gst_max_delay = pre_gst_max_delay

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> float:
        if envelope_info.after_gst:
            return self.post_model.propose_delay(envelope_info, ctx)
        return ctx.rng.uniform(0.0, self.pre_gst_max_delay)

    def describe(self) -> str:
        return f"PreGSTChaos(pre_max={self.pre_gst_max_delay}, post={self.post_model.describe()})"


class AdversarialDelay(DelayModel):
    """Delegates the delay decision to an arbitrary callable.

    The callable receives ``(pending_send, ctx)`` — the same
    :class:`DelayContext` on every lane — and returns a delay.  Used by
    attack strategies that need full control of the schedule.

    ``describe()`` identifies the model in campaign cache keys, so it must
    distinguish different schedules.  The default (the callable's qualname)
    is only sound for module-level functions; campaigns reject lambdas and
    closures, whose qualnames collide across different captured parameters —
    give those a distinctive ``name``.

    Parameters
    ----------
    fn:
        Callable ``(pending_send, ctx) -> delay`` deciding each message.
    name:
        Stable identifier used by ``describe()``; required for lambdas and
        closures (see above).
    """

    def __init__(self, fn: Callable[[PendingSend, DelayContext], float], name: str = "") -> None:
        self.fn = fn
        self.name = name

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> float:
        return self.fn(envelope_info, ctx)

    def describe(self) -> str:
        if self.name:
            return f"AdversarialDelay({self.name})"
        # Default to the callable's identity so two different module-level
        # schedules never share a description (and hence a cache key).
        fn_id = getattr(self.fn, "__qualname__", None) or repr(self.fn)
        return f"AdversarialDelay({fn_id})"


class TargetedDelay(DelayModel):
    """Delay messages touching a set of target processors; others use a base model.

    This captures attacks where the adversary slows down traffic to or from
    specific honest processors (e.g. to maximise the honest clock gap)
    without violating the post-GST bound.

    Parameters
    ----------
    base:
        Delay model for traffic not touching a target.
    targets:
        Processor ids under attack.
    target_delay:
        Proposed delay for targeted traffic (clamped by the network).
    direction:
        ``"to"`` (inbound), ``"from"`` (outbound) or ``"both"`` (default).
    """

    def __init__(
        self,
        base: DelayModel,
        targets: Iterable[int],
        target_delay: float,
        direction: str = "both",
    ) -> None:
        if direction not in ("to", "from", "both"):
            raise ConfigurationError(f"direction must be 'to', 'from' or 'both', got {direction!r}")
        self.base = base
        self.targets = frozenset(targets)
        self.target_delay = target_delay
        self.direction = direction

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> float:
        hit = False
        if self.direction in ("to", "both") and envelope_info.recipient in self.targets:
            hit = True
        if self.direction in ("from", "both") and envelope_info.sender in self.targets:
            hit = True
        if hit:
            ctx.faults.bump("targeted_delays")
            return self.target_delay
        return self.base.propose_delay(envelope_info, ctx)

    def describe(self) -> str:
        return (
            f"TargetedDelay(targets={sorted(self.targets)}, delay={self.target_delay}, "
            f"direction={self.direction}, base={self.base.describe()})"
        )
