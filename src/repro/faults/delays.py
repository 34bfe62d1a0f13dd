"""The network adversary: the partial-synchrony envelope and the delay models.

The defining constraint of the partial synchrony model of Dwork, Lynch and
Stockmeyer: a message sent at time ``t`` is delivered by
``max(GST, t) + Delta`` (:meth:`NetworkConfig.delivery_time`).  Within that
constraint the adversary, a :class:`DelayModel`, decides each message's
fate in one call, :meth:`DelayModel.propose_delay`: its delay and — beyond
the paper's model, with :class:`Lossy` — whether it arrives at all or twice.

Most models wrap a ``base`` model and perturb only the traffic they target
(by time, topology, target or traffic class), so they compose: an
:class:`IntermittentSynchrony` whose chaotic phase is a
:class:`PartitionSchedule` is a network that periodically splits in half.
No model can break the envelope, only fill it (a partition that heals after
``GST + Delta`` is cut short by the clamp).  A model counts the faults it
injects into ``ctx.faults``, in the branch that shaped the message, and
implements a parameter-faithful ``describe()``: campaign run keys and the
on-disk result cache hash it (:func:`repro.runner.campaign.config_fingerprint`).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Optional, Sequence, Union

from repro.consensus.messages import ConsensusMessage
from repro.errors import ConfigurationError
from repro.metrics.counters import Counters
from repro.pacemakers.base import PacemakerMessage

#: A message's copy: its delay (``None``: the fabric's own) and whether it arrives.
Copy = tuple[Optional[float], bool]
#: What :meth:`DelayModel.propose_delay` returns: a delay or the copies.
Fate = Union[float, tuple[Copy, ...]]


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
        :class:`~repro.faults.transport.FaultyTransport` decides every non-self
        message's fate through this method, on every lane.
        """
        return min(
            send_time + max(self.min_delay, proposed_delay),
            max(self.gst, send_time) + self.delta,
        )


class DelayContext:
    """What a :class:`DelayModel` is handed besides the message, on every lane.

    One context per :class:`~repro.faults.transport.FaultyTransport`.
    ``rng`` is its seeded delay stream — nothing else draws from it, so a
    given ``(seed, send order)`` always replays the same draws.  ``faults``
    is the run's :class:`~repro.metrics.counters.Counters` bag: a model
    counts a message in the branch that shaped it.  ``offset`` is the pid of
    the one node whose sends the context shapes (0 for a fabric hosting
    every node).
    """

    __slots__ = ("rng", "faults", "offset", "_streams")

    def __init__(
        self, rng: random.Random, faults: Optional[Counters] = None, offset: int = 0
    ) -> None:
        self.rng = rng
        self.faults = faults if faults is not None else Counters()
        self.offset = offset
        self._streams: dict[Hashable, random.Random] = {}

    def stream(self, owner: Hashable, seed: int) -> random.Random:
        """``owner``'s stream for anything but a delay, seeded ``seed + offset``
        on first use: it lives here, not on the model, because one model is
        shared by every node of a process and each node draws its own."""
        rng = self._streams.get(owner)
        if rng is None:
            rng = self._streams[owner] = random.Random(seed + self.offset)
        return rng


class DelayModel(ABC):
    """Strategy choosing the delay of each message, i.e. the network adversary."""

    @abstractmethod
    def propose_delay(self, envelope_info: "PendingSend", ctx: DelayContext) -> Fate:
        """Decide the fate of the message described by ``envelope_info``.

        This is a model's one decision and its one method: a
        :class:`~repro.faults.transport.FaultyTransport` calls it once per
        non-self message, in send order, on every lane, so a new subclass
        runs everywhere with no further step.

        Parameters
        ----------
        envelope_info:
            The :class:`PendingSend` describing the message (sender,
            recipient, payload, send time, whether the send is after GST).
        ctx:
            The transport's :class:`DelayContext`: draw delays from
            ``ctx.rng`` and any other coin from ``ctx.stream(self, seed)``,
            so runs stay reproducible, and count a fault in ``ctx.faults``
            in the branch that shapes the message.

        Returns
        -------
        Fate
            The proposed delay in seconds — one copy that arrives — or the
            message's copies as ``((delay, arrives), ...)``: ``((d, False),)``
            is a drop, ``((d, True), (d, True))`` a duplicate.  A delay is
            advisory: the caller decides the arrival with
            :meth:`NetworkConfig.delivery_time`.  A copy's delay of ``None``
            means the fabric's own latency, drawn once per message and not
            clamped.
        """

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return type(self).__name__


class PendingSend(NamedTuple):
    """The information a :class:`DelayModel` may base its decision on.

    Tuple-backed: one is built per recipient on every scheduled send.

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


def _touches(info: PendingSend, is_target: Callable[[int], bool], direction: str) -> bool:
    """Whether a message touches a target: its recipient unless ``direction``
    is ``"from"``, its sender unless it is ``"to"``."""
    return (direction != "from" and is_target(info.recipient)) or (
        direction != "to" and is_target(info.sender)
    )


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
        if _touches(envelope_info, self.targets.__contains__, self.direction):
            ctx.faults.bump("targeted_delays")
            return self.target_delay
        return self.base.propose_delay(envelope_info, ctx)

    def describe(self) -> str:
        return (
            f"TargetedDelay(targets={sorted(self.targets)}, delay={self.target_delay}, "
            f"direction={self.direction}, base={self.base.describe()})"
        )


#: Traffic classes understood by :class:`MessageClassDelay`.
MESSAGE_CLASSES = ("view-sync", "consensus")


class PartitionSchedule(DelayModel):
    """Split the processors into groups between ``split_at`` and ``heal_at``.

    Messages crossing group boundaries while the partition holds are delayed
    until the heal time (plus ``flush_delay``); traffic within a group, and
    all traffic outside the split window, uses the ``base`` model.

    Parameters
    ----------
    base:
        Delay model for unaffected traffic (and for cross-group traffic
        outside the split window).
    groups:
        Disjoint processor-id groups.  Processors not listed in any group are
        unrestricted (they can talk across the split — e.g. a designated
        observer).
    split_at:
        Time the partition forms.
    heal_at:
        Time the partition heals.  Must exceed ``split_at``.  To model a
        *real* partition the heal time must not exceed ``GST + Delta``: the
        network clamp delivers every message by ``max(GST, send) + Delta``
        regardless of what this schedule proposes, so a later heal is cut
        short.  The named library scenarios pair ``heal_at`` with GST for
        exactly this reason.
    flush_delay:
        Extra delay applied to cross-group messages after the heal, modelling
        the backlog flush of a real partition (default ``0.0``: the backlog
        arrives the instant the partition heals).
    """

    def __init__(
        self,
        base: DelayModel,
        groups: Sequence[Iterable[int]],
        split_at: float,
        heal_at: float,
        flush_delay: float = 0.0,
    ) -> None:
        if heal_at <= split_at:
            raise ConfigurationError(
                f"heal_at must exceed split_at, got split_at={split_at}, heal_at={heal_at}"
            )
        if flush_delay < 0:
            raise ConfigurationError(f"flush_delay must be non-negative, got {flush_delay}")
        self.base = base
        self.groups = tuple(tuple(sorted(group)) for group in groups)
        if len(self.groups) < 2:
            raise ConfigurationError("a partition needs at least two groups")
        self.split_at = split_at
        self.heal_at = heal_at
        self.flush_delay = flush_delay
        self._group_of: dict[int, int] = {}
        for index, group in enumerate(self.groups):
            for pid in group:
                if pid in self._group_of:
                    raise ConfigurationError(f"processor {pid} appears in two groups")
                self._group_of[pid] = index
        self._epoch_key = self.describe()

    def _crosses_split(self, envelope_info: PendingSend) -> bool:
        sender_group = self._group_of.get(envelope_info.sender)
        recipient_group = self._group_of.get(envelope_info.recipient)
        if sender_group is None or recipient_group is None:
            return False
        return sender_group != recipient_group

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> float:
        send_time = envelope_info.send_time
        if self.split_at <= send_time < self.heal_at and self._crosses_split(envelope_info):
            # One PartitionSchedule holds one split window: one epoch,
            # however many messages it defers, on however many workers.
            ctx.faults.note_epoch("partition_epochs", (self._epoch_key,))
            ctx.faults.bump("partitioned_messages")
            return (self.heal_at - send_time) + self.flush_delay
        return self.base.propose_delay(envelope_info, ctx)

    def describe(self) -> str:
        groups = ";".join("-".join(str(pid) for pid in group) for group in self.groups)
        return (
            f"Partition(groups=[{groups}], split={self.split_at}, heal={self.heal_at}, "
            f"flush={self.flush_delay}, base={self.base.describe()})"
        )


class IntermittentSynchrony(DelayModel):
    """Alternate between a calm and a chaotic delay model in fixed windows.

    Starting at ``start`` the network cycles: ``calm_duration`` time units
    governed by ``calm``, then ``chaos_duration`` governed by ``chaotic``,
    repeating forever.  Before ``start`` the network is calm.  This models
    the adversary the paper's liveness argument must survive: synchrony that
    keeps lapsing *after* GST within the ``Delta`` envelope (the chaotic
    model's proposals are still clamped to ``max(GST, send) + Delta``).

    Parameters
    ----------
    calm:
        Delay model during calm windows (typically network-speed).
    chaotic:
        Delay model during chaotic windows (typically near the ``Delta``
        envelope, a partition, or targeted delays).
    calm_duration, chaos_duration:
        Window lengths; both must be positive.
    start:
        When the alternation begins (default ``0.0``).  A *calm* window
        opens at ``start``; the first chaotic window begins at
        ``start + calm_duration``.
    """

    def __init__(
        self,
        calm: DelayModel,
        chaotic: DelayModel,
        calm_duration: float,
        chaos_duration: float,
        start: float = 0.0,
    ) -> None:
        if calm_duration <= 0 or chaos_duration <= 0:
            raise ConfigurationError(
                f"window lengths must be positive, got calm={calm_duration}, "
                f"chaos={chaos_duration}"
            )
        self.calm = calm
        self.chaotic = chaotic
        self.calm_duration = calm_duration
        self.chaos_duration = chaos_duration
        self.start = start
        self._epoch_key = self.describe()

    def in_chaos(self, time: float) -> bool:
        """Whether ``time`` falls inside a chaotic window."""
        if time < self.start:
            return False
        offset = (time - self.start) % (self.calm_duration + self.chaos_duration)
        return offset >= self.calm_duration

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> float:
        send_time = envelope_info.send_time
        if not self.in_chaos(send_time):
            return self.calm.propose_delay(envelope_info, ctx)
        window = int((send_time - self.start) // (self.calm_duration + self.chaos_duration))
        ctx.faults.note_epoch("chaos_windows", (self._epoch_key, window))
        return self.chaotic.propose_delay(envelope_info, ctx)

    def describe(self) -> str:
        return (
            f"IntermittentSynchrony(calm={self.calm_duration}@{self.calm.describe()}, "
            f"chaos={self.chaos_duration}@{self.chaotic.describe()}, start={self.start})"
        )


class RotatingLeaderDelay(DelayModel):
    """Targeted denial-of-service that follows the leader schedule.

    At time ``t`` the attack estimates the current view as
    ``int(t / view_duration)`` and delays traffic touching that view's leader
    by ``target_delay``; everyone else uses ``base``.  With the default
    round-robin ``leader_fn`` (``view % n``) this tracks the rotation used by
    the epoch-based baselines; pass a custom ``leader_fn`` (with a ``name``)
    to key the attack off a pseudo-random
    :class:`~repro.core.leader_schedule.LeaderSchedule`.

    Parameters
    ----------
    base:
        Delay model for traffic not touching the current victim.
    n:
        System size (used by the default round-robin victim rotation).
    view_duration:
        The attacker's estimate of wall-clock time per view; must be positive.
    target_delay:
        Proposed delay for victim traffic (values above ``Delta`` are clamped
        by the network envelope after GST — proposing huge values is how this
        schedule pins the victim at the worst legal delay).
    leader_fn:
        Optional ``view -> leader pid`` override.  Requires ``name``.
    name:
        Stable identifier for a custom ``leader_fn``, used in ``describe()``
        (and hence campaign cache keys).
    direction:
        ``"to"`` (victim's inbound traffic, the default), ``"from"``, or
        ``"both"``.
    """

    def __init__(
        self,
        base: DelayModel,
        n: int,
        view_duration: float,
        target_delay: float,
        leader_fn: Optional[Callable[[int], int]] = None,
        name: str = "",
        direction: str = "to",
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        if view_duration <= 0:
            raise ConfigurationError(f"view_duration must be positive, got {view_duration}")
        if direction not in ("to", "from", "both"):
            raise ConfigurationError(f"direction must be 'to', 'from' or 'both', got {direction!r}")
        if leader_fn is not None and not name:
            raise ConfigurationError(
                "a custom leader_fn needs a stable name for describe() "
                "(campaign cache keys depend on it)"
            )
        self.base = base
        self.n = n
        self.view_duration = view_duration
        self.target_delay = target_delay
        self.leader_fn = leader_fn
        self.name = name or "round-robin"
        self.direction = direction

    def victim_at(self, time: float) -> int:
        """The processor under attack at simulation time ``time``."""
        view = int(time / self.view_duration)
        if self.leader_fn is not None:
            return self.leader_fn(view)
        return view % self.n

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> float:
        victim = self.victim_at(envelope_info.send_time)
        if _touches(envelope_info, victim.__eq__, self.direction):
            ctx.faults.bump("dos_hits")
            return self.target_delay
        return self.base.propose_delay(envelope_info, ctx)

    def describe(self) -> str:
        return (
            f"RotatingLeaderDelay(n={self.n}, view_duration={self.view_duration}, "
            f"delay={self.target_delay}, schedule={self.name}, "
            f"direction={self.direction}, base={self.base.describe()})"
        )


class MessageClassDelay(DelayModel):
    """Delay only one class of protocol traffic.

    ``match`` selects the class: ``"view-sync"`` matches every
    :class:`~repro.pacemakers.base.PacemakerMessage` (view messages, view
    certificates, epoch syncs, wishes), ``"consensus"`` matches every
    :class:`~repro.consensus.messages.ConsensusMessage` (proposals, votes, QC
    announcements).  Matching traffic is delayed by ``delay``; everything
    else uses ``base``.  This isolates which half of a protocol its liveness
    actually rides on — e.g. Lumiere's view synchronisation under throttled
    sync traffic but fast proposals, or vice versa.

    Parameters
    ----------
    base:
        Delay model for non-matching traffic.
    match:
        One of :data:`MESSAGE_CLASSES`.
    delay:
        Proposed delay for matching traffic (clamped to the partial-synchrony
        envelope by the network).
    """

    def __init__(self, base: DelayModel, match: str, delay: float) -> None:
        if match not in MESSAGE_CLASSES:
            raise ConfigurationError(
                f"match must be one of {MESSAGE_CLASSES}, got {match!r}"
            )
        if delay < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay}")
        self.base = base
        self.match = match
        self.delay = delay

    def matches(self, payload: object) -> bool:
        """Whether ``payload`` belongs to the targeted traffic class."""
        if self.match == "view-sync":
            return isinstance(payload, PacemakerMessage)
        return isinstance(payload, ConsensusMessage)

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> float:
        if self.matches(envelope_info.payload):
            ctx.faults.bump("throttled_messages")
            return self.delay
        return self.base.propose_delay(envelope_info, ctx)

    def describe(self) -> str:
        return (
            f"MessageClassDelay(match={self.match}, delay={self.delay}, "
            f"base={self.base.describe()})"
        )


class Lossy(DelayModel):
    """Drop and duplicate messages, over a ``base`` model or, with none, the
    fabric's own latency.

    Each non-self message is dropped with probability ``drop_rate`` (sent,
    never delivered) and, independently, delivered twice with probability
    ``duplicate_rate`` (both: it arrives once).  The coins come from the
    model's own :meth:`DelayContext.stream` seeded ``seed``, drop first, and
    a zero rate draws nothing, so loss never perturbs the delay stream.  The
    paper's model has no analogue: nothing retransmits a dropped message.
    """

    def __init__(
        self,
        base: Optional[DelayModel] = None,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        for name, rate in (("drop_rate", drop_rate), ("duplicate_rate", duplicate_rate)):
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {rate}")
        self.base = base
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.seed = seed

    def propose_delay(self, envelope_info: PendingSend, ctx: DelayContext) -> Fate:
        base = self.base
        delay = None if base is None else base.propose_delay(envelope_info, ctx)
        rng = ctx.stream(self, self.seed)
        dropped = self.drop_rate > 0.0 and rng.random() < self.drop_rate
        duplicated = self.duplicate_rate > 0.0 and rng.random() < self.duplicate_rate
        copies: tuple[Copy, ...] = ((delay, not dropped),)
        if dropped:
            ctx.faults.bump("drops")
        if duplicated:
            copies += ((delay, True),)
            ctx.faults.bump("duplicates")
        return copies

    def describe(self) -> str:
        base = "fabric" if self.base is None else self.base.describe()
        return (
            f"Lossy(drop={self.drop_rate!r}, dup={self.duplicate_rate!r}, "
            f"seed={self.seed}, base={base})"
        )
