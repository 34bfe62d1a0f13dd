"""Composable adversarial network schedules.

A *schedule* is a :class:`~repro.sim.network.DelayModel` that shapes message
delays as a function of simulation time, topology, or traffic class — the
three levers the partial-synchrony adversary actually has.  Schedules wrap a
``base`` model and perturb only the traffic they target, so they compose:
an :class:`IntermittentSynchrony` whose chaotic phase is a
:class:`PartitionSchedule` is a network that periodically splits in half.

Every schedule here respects the model envelope by construction: its caller
still decides the arrival with
:meth:`~repro.sim.network.NetworkConfig.delivery_time`, so a schedule can
*propose* arbitrarily hostile delays without ever violating partial
synchrony.  The practical consequence is documented per class (e.g. a
partition whose heal time exceeds ``GST + Delta`` is cut short by the
clamp — pair partitions with a GST at or after the heal time).

A schedule is one class: ``propose_delay`` is its whole decision on every
lane, and it counts the faults it injects itself, into ``ctx.faults``, in the
branch that shaped the message.

All schedules implement a parameter-faithful ``describe()`` so campaign run
keys and the on-disk result cache stay sound (see
:func:`repro.runner.campaign.config_fingerprint`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.consensus.messages import ConsensusMessage
from repro.errors import ConfigurationError
from repro.pacemakers.base import PacemakerMessage
from repro.sim.network import DelayContext, DelayModel, PendingSend

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
            # however many messages it defers.
            ctx.faults.note_epoch("partition_epochs", (id(self),))
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
        ctx.faults.note_epoch("chaos_windows", (id(self), window))
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
        hit = False
        if self.direction in ("to", "both") and envelope_info.recipient == victim:
            hit = True
        if self.direction in ("from", "both") and envelope_info.sender == victim:
            hit = True
        if hit:
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
