"""Partial-synchrony network model.

The network enforces the defining constraint of the partial synchrony model
of Dwork, Lynch and Stockmeyer: a message sent at time ``t`` is delivered by
``max(GST, t) + Delta``.  Within that constraint, the adversary (modelled by
a :class:`DelayModel`) chooses the actual delivery time of every message.

Messages are never lost.  A processor sending a message "to all processors"
includes itself, and the copy to itself is delivered immediately, matching
the convention stated in Section 4 of the paper.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.sim.events import Simulator

if TYPE_CHECKING:  # pragma: no cover - type-checking only (keeps sim crypto-free)
    from repro.crypto.backend import CryptoBackend


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
        ``max(GST, send_time) + Delta``.  The simulated :class:`Network` and
        the live :class:`~repro.runtime.chaos.FaultyTransport` both decide
        every non-self message's fate through this method.
        """
        return min(
            send_time + max(self.min_delay, proposed_delay),
            max(self.gst, send_time) + self.delta,
        )


#: Counters every run reports, even when zero.
BASE_FAULT_COUNTS = ("drops", "duplicates", "kills", "partition_epochs", "restarts")


class FaultCounters:
    """Injected-fault totals for one run, shared by every injection site.

    A plain named-counter bag (``bump``) plus distinct-key counting
    (``note_epoch``) for window-shaped faults: a partition that defers ten
    thousand messages is still *one* partition epoch.  Each run has one bag
    (:attr:`repro.metrics.collector.MetricsCollector.faults`): delay
    schedules, drop/duplicate injectors and replica crash/recovery all count
    into it at the point the fault happens, on every lane.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {name: 0 for name in BASE_FAULT_COUNTS}
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

    def as_dict(self) -> dict[str, int]:
        """All counters by name (base counters always present)."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self._counts.items() if v}
        return f"FaultCounters({nonzero})"


class DelayContext:
    """What a :class:`DelayModel` is handed besides the message, on every lane.

    ``rng`` is the run's seeded delay stream — nothing else in a run draws
    from it, so the simulated network (which passes the simulator's RNG) and
    a live transport seeded with the scenario seed replay the same draws.
    ``faults`` is the run's :class:`FaultCounters`: a schedule counts a
    message in the branch that shaped it.
    """

    __slots__ = ("rng", "faults")

    def __init__(self, rng: random.Random, faults: Optional[FaultCounters] = None) -> None:
        self.rng = rng
        self.faults = faults if faults is not None else FaultCounters()


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
        Unique, monotonically increasing id assigned by the network.
    sender, recipient:
        Processor ids of the two endpoints.
    payload:
        The message content, delivered verbatim.
    send_time:
        Virtual time the message was sent.
    deliver_time:
        Virtual time the message will be (or was) delivered.
    payload_digest:
        Content digest of the payload under the network's crypto backend, or
        ``None`` when the network has no backend attached.  Broadcast and
        multicast canonicalise the payload *once per send*, so all envelopes
        of one send share this value (see :meth:`Network.broadcast`).
    """

    msg_id: int
    sender: int
    recipient: int
    payload: Any
    send_time: float
    deliver_time: float
    payload_digest: Optional[str] = None

    @property
    def is_self_message(self) -> bool:
        """Whether the message was sent by a processor to itself."""
        return self.sender == self.recipient


class DelayModel(ABC):
    """Strategy choosing the delay of each message, i.e. the network adversary."""

    @abstractmethod
    def propose_delay(self, envelope_info: "PendingSend", ctx: DelayContext) -> float:
        """Return the proposed delay for the message described by ``envelope_info``.

        This is a schedule's one decision, on every lane: the simulated
        :class:`Network` and a live
        :class:`~repro.runtime.chaos.FaultyTransport` call it with the same
        arguments, so a new subclass runs everywhere with no further step.

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

    def propose_delays(self, sends: Sequence["PendingSend"], ctx: DelayContext) -> list[float]:
        """Propose delays for a whole batch of messages at once, in order.

        The vectorised form of :meth:`propose_delay`, called by the
        network's batched send paths (:meth:`Network.broadcast` /
        :meth:`Network.multicast`) to obtain every recipient's delay up
        front before grouping deliveries by identical deliver-time.

        The default delegates to :meth:`propose_delay` once per send, **in
        list order**, so any model is automatically batchable with an
        unchanged RNG stream — a batched run and a per-recipient run draw
        the same random numbers in the same order.  Models that can do
        better override it (:class:`FixedDelay` skips the calls entirely,
        :class:`UniformDelay` draws directly); overrides must preserve the
        one-draw-per-send RNG discipline or document that they diverge.

        Parameters
        ----------
        sends:
            The :class:`PendingSend` descriptions, one per recipient, in
            delivery-schedule order.
        ctx:
            The run's :class:`DelayContext`, as for :meth:`propose_delay`.

        Returns
        -------
        list[float]
            One proposed delay per entry of ``sends``, same order.  Advisory
            like :meth:`propose_delay`: the network floors and clamps each.
        """
        propose = self.propose_delay
        return [propose(send, ctx) for send in sends]

    def propose_delays_bulk(
        self, count: int, now: float, after_gst: bool, ctx: DelayContext
    ) -> Optional[list[float]]:
        """Delays for ``count`` recipients of one send, **without** per-send
        descriptions.

        The fastest batched form: models whose decision depends only on the
        clock and the GST flag — not on sender, recipient or payload —
        return ``count`` delays directly, and the network never builds the
        O(recipients) :class:`PendingSend` list at all.  Returning ``None``
        (the default) means the model needs per-send information; the
        network then falls back to building the descriptions and calling
        :meth:`propose_delays`.

        Overrides must draw exactly the random numbers :meth:`propose_delays`
        would — one draw per recipient, in recipient order — so bulk and
        per-recipient runs stay byte-identical (the equivalence property
        tests exercise this).
        """
        return None

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return type(self).__name__

    def constant_delay(self) -> Optional[float]:
        """The delay this model proposes for *every* message, if one exists.

        Models that delay every message identically (the synchronous case)
        return it here; the network then skips building a
        :class:`PendingSend` and calling :meth:`propose_delay` per message —
        a measurable saving on large-``n`` broadcasts.  Default ``None``
        (no constant; the per-message path is used).
        """
        return None


class PendingSend(NamedTuple):
    """The information a :class:`DelayModel` may base its decision on.

    Tuple-backed for the same reason as :class:`Envelope`: one is built per
    recipient on every non-constant-delay send.

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

    def propose_delays(self, sends: Sequence[PendingSend], ctx: DelayContext) -> list[float]:
        return [self.delay] * len(sends)

    def constant_delay(self) -> Optional[float]:
        return self.delay

    def describe(self) -> str:
        return f"FixedDelay({self.delay})"


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]`` using the simulator's RNG.

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

    def propose_delays(self, sends: Sequence[PendingSend], ctx: DelayContext) -> list[float]:
        # Same draws in the same order as the per-message path, without the
        # per-send method dispatch.
        uniform = ctx.rng.uniform
        low, high = self.low, self.high
        return [uniform(low, high) for _ in sends]

    def propose_delays_bulk(
        self, count: int, now: float, after_gst: bool, ctx: DelayContext
    ) -> Optional[list[float]]:
        # The decision ignores everything but the RNG, so the network can
        # skip building PendingSend descriptions entirely.  One draw per
        # recipient in order — the same stream as propose_delays.
        uniform = ctx.rng.uniform
        low, high = self.low, self.high
        return [uniform(low, high) for _ in range(count)]

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

    def propose_delays_bulk(
        self, count: int, now: float, after_gst: bool, ctx: DelayContext
    ) -> Optional[list[float]]:
        # All sends of one batch share a send time, hence one GST side.
        # Pre-GST the chaos draws need no per-send information; post-GST
        # the wrapped model decides whether it can go bulk.
        if after_gst:
            return self.post_model.propose_delays_bulk(count, now, after_gst, ctx)
        uniform = ctx.rng.uniform
        bound = self.pre_gst_max_delay
        return [uniform(0.0, bound) for _ in range(count)]

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


class Network:
    """Delivers messages between registered processes under partial synchrony.

    The network exposes two observation hooks used by the metrics layer:

    * ``send_listeners`` — called with each :class:`Envelope` when it is sent;
    * ``deliver_listeners`` — called with each :class:`Envelope` when it is
      delivered to its recipient.

    Parameters
    ----------
    sim:
        The simulator that schedules deliveries.
    config:
        Timing parameters of the partial-synchrony model.
    delay_model:
        The network adversary; ``None`` means
        ``FixedDelay(config.actual_delay)``.
    crypto_backend:
        Optional :class:`~repro.crypto.backend.CryptoBackend`.  When set,
        every :class:`Envelope` carries a ``payload_digest`` giving messages
        a content identity — the metrics collector aggregates it into
        ``distinct_payloads_sent`` / ``broadcast_amplification``.  The
        digest is computed **once per send call** — :meth:`broadcast` and
        :meth:`multicast` hoist it out of their per-recipient loops, so a
        payload is canonicalised once however many recipients it goes to.
    batch_deliveries:
        Whether :meth:`broadcast` / :meth:`multicast` group recipients by
        identical deliver-time and schedule **one** fire-and-forget event
        per distinct timestamp (the default).  ``False`` selects the
        per-recipient reference path — one scheduled event per envelope —
        kept for the equivalence property tests; both paths produce the
        same envelopes, delivery times and delivery order (see
        :meth:`DelayModel.propose_delays` for the RNG discipline that
        makes this hold for randomised models).
    faults:
        The run's :class:`FaultCounters`, handed to the delay model with
        ``sim.rng`` as its :class:`DelayContext`; a fresh bag when omitted.
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig,
        delay_model: Optional[DelayModel] = None,
        crypto_backend: Optional["CryptoBackend"] = None,
        batch_deliveries: bool = True,
        faults: Optional[FaultCounters] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.batch_deliveries = batch_deliveries
        self._ctx = DelayContext(sim.rng, faults)
        self.delay_model = delay_model or FixedDelay(config.actual_delay)
        self.crypto_backend = crypto_backend
        self._processes: dict[int, Any] = {}
        self._sorted_ids: tuple[int, ...] = ()
        self._msg_ids = itertools.count()
        self.send_listeners: list[Callable[[Envelope], None]] = []
        self.deliver_listeners: list[Callable[[Envelope], None]] = []
        self.messages_sent = 0
        self.messages_delivered = 0

    @property
    def delay_model(self) -> DelayModel:
        """The network adversary deciding each message's delay."""
        return self._delay_model

    @delay_model.setter
    def delay_model(self, model: DelayModel) -> None:
        # Fast path: a model with one constant delay for every message lets
        # the send paths skip the per-message PendingSend + propose_delay
        # call.  Cached here (and kept consistent if a test swaps the model
        # mid-run).
        self._delay_model = model
        self._constant_delay = model.constant_delay()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, process: Any) -> None:
        """Register a process as a message endpoint.

        Parameters
        ----------
        process:
            Anything with a ``pid`` attribute and a
            ``deliver(payload, sender)`` method.  Ids must be unique;
            processes never unregister.

        Raises
        ------
        SimulationError
            If a process with the same ``pid`` is already registered.
        """
        pid = process.pid
        if pid in self._processes:
            raise SimulationError(f"process id {pid} registered twice")
        self._processes[pid] = process
        # The sorted id list is read on every broadcast; re-sorting there was
        # a measurable hot-path cost, so it is cached and only invalidated
        # here (processes never unregister).
        self._sorted_ids = tuple(sorted(self._processes))

    @property
    def process_ids(self) -> list[int]:
        """Sorted ids of all registered processes."""
        return list(self._sorted_ids)

    def process(self, pid: int) -> Any:
        """Return the registered process with id ``pid``."""
        return self._processes[pid]

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, sender: int, recipient: int, payload: Any) -> Envelope:
        """Send ``payload`` from ``sender`` to ``recipient``.

        Returns
        -------
        Envelope
            The in-flight message; its ``deliver_time`` records when it will
            arrive.

        Raises
        ------
        SimulationError
            If ``recipient`` is not a registered process id.
        """
        if recipient not in self._processes:
            raise SimulationError(f"unknown recipient {recipient}")
        return self._send_one(
            sender,
            recipient,
            payload,
            self.sim.now,
            self.send_listeners,
            self._payload_digest(payload),
        )

    def broadcast(
        self, sender: int, payload: Any, include_self: bool = True
    ) -> list[Envelope]:
        """Send ``payload`` from ``sender`` to every registered process.

        Parameters
        ----------
        sender:
            Sending processor id.
        payload:
            Message content, shared (not copied) across all envelopes.
        include_self:
            Whether to include the sender itself (the paper's convention;
            the self-copy is delivered immediately).

        Returns
        -------
        list[Envelope]
            One envelope per recipient, in ascending processor-id order.
        """
        now = self.sim.now
        listeners = self.send_listeners
        # Hoisted out of the loop: the payload is shared by every envelope,
        # so it is canonicalised/digested once per broadcast, not once per
        # recipient (regression-tested with a call-counting backend).
        payload_digest = self._payload_digest(payload)
        if include_self:
            pids: Sequence[int] = self._sorted_ids
        else:
            pids = [pid for pid in self._sorted_ids if pid != sender]
        if self.batch_deliveries:
            return self._send_grouped(sender, pids, payload, now, payload_digest)
        envelopes = []
        for pid in pids:
            envelopes.append(
                self._send_one(sender, pid, payload, now, listeners, payload_digest)
            )
        return envelopes

    def _send_grouped(
        self,
        sender: int,
        pids: Sequence[int],
        payload: Any,
        now: float,
        payload_digest: Optional[str],
    ) -> list[Envelope]:
        """Shared batched send path: one delivery event per distinct timestamp.

        All recipient delays are proposed up front (a constant-delay model
        skips the :class:`PendingSend` construction and the
        :meth:`DelayModel.propose_delays` call entirely), deliveries are
        grouped by identical deliver-time, and each group is scheduled as a
        single handle-free event instead of one event per recipient — heap
        entries, handle allocations and dispatches all drop from
        O(recipients) to O(distinct timestamps).  Within a group, envelopes
        are delivered in ``pids`` order, exactly the order the per-recipient
        events would have fired in (equal time, ascending insertion seq), so
        runs are unchanged — including a self-copy, which joins the ``now``
        group at its ``pids`` position and so keeps both its immediate
        delivery and its place relative to zero-delay peers.  Note
        ``events_processed`` counts each group as one event.
        """
        sim = self.sim
        listeners = self.send_listeners
        config = self.config
        next_id = self._msg_ids
        deliver = self._deliver
        envelopes: list[Envelope] = []
        constant = self._constant_delay
        if constant is not None:
            # Constant-delay fast lane: at most two delivery groups can
            # exist — the self-copy at ``now`` and everyone else at
            # ``constant_time`` — so group membership is a comparison
            # instead of a dict lookup per envelope.  Zero-delay models
            # collapse both into the ``now`` group, preserving ``pids``
            # order exactly as the general grouping would.
            constant_time = config.delivery_time(now, constant)
            now_group: list[Envelope] = []
            late_group: list[Envelope] = []
            for pid in pids:
                deliver_time = now if pid == sender else constant_time
                envelope = Envelope(
                    next(next_id), sender, pid, payload, now, deliver_time, payload_digest
                )
                self.messages_sent += 1
                for listener in listeners:
                    listener(envelope)
                envelopes.append(envelope)
                (now_group if deliver_time == now else late_group).append(envelope)
            for deliver_time, batch in ((now, now_group), (constant_time, late_group)):
                if not batch:
                    continue
                if len(batch) == 1:
                    sim.schedule_fired_at(deliver_time, deliver, batch[0])
                else:
                    sim.schedule_fired_at(deliver_time, self._deliver_batch, batch)
            return envelopes
        after_gst = now >= config.gst
        count = sum(1 for pid in pids if pid != sender)
        # Fastest lane first: models that decide from (now, after_gst)
        # alone hand back the whole delay vector with no per-send
        # descriptions built at all.
        delays = self._delay_model.propose_delays_bulk(count, now, after_gst, self._ctx)
        if delays is None:
            # Positional NamedTuple construction: this list is built per
            # broadcast under every send-inspecting delay model.
            pending = [
                PendingSend(sender, pid, payload, now, after_gst)
                for pid in pids
                if pid != sender
            ]
            delays = self._delay_model.propose_delays(pending, self._ctx)
        if len(delays) != count:
            raise SimulationError(
                f"{self._delay_model.describe()}.propose_delays(_bulk) returned "
                f"{len(delays)} delays for {count} sends"
            )
        delay_iter = iter(delays)
        delivery_time = config.delivery_time
        groups: dict[float, list[Envelope]] = {}
        for pid in pids:
            # Self-messages are received immediately (paper, Section 4).
            deliver_time = now if pid == sender else delivery_time(now, next(delay_iter))
            envelope = Envelope(
                next(next_id), sender, pid, payload, now, deliver_time, payload_digest
            )
            self.messages_sent += 1
            for listener in listeners:
                listener(envelope)
            envelopes.append(envelope)
            group = groups.get(deliver_time)
            if group is None:
                groups[deliver_time] = [envelope]
            else:
                group.append(envelope)
        for deliver_time, batch in groups.items():
            if len(batch) == 1:
                sim.schedule_fired_at(deliver_time, deliver, batch[0])
            else:
                sim.schedule_fired_at(deliver_time, self._deliver_batch, batch)
        return envelopes

    def _deliver_batch(self, envelopes: Sequence[Envelope]) -> None:
        for envelope in envelopes:
            self._deliver(envelope)

    def multicast(self, sender: int, recipients: Sequence[int], payload: Any) -> list[Envelope]:
        """Send ``payload`` from ``sender`` to each processor in ``recipients``.

        Returns
        -------
        list[Envelope]
            One envelope per recipient, in ``recipients`` order.

        Raises
        ------
        SimulationError
            If any recipient is not a registered process id.
        """
        now = self.sim.now
        listeners = self.send_listeners
        processes = self._processes
        for pid in recipients:
            if pid not in processes:
                raise SimulationError(f"unknown recipient {pid}")
        # Hoisted digest, as in broadcast(): one canonicalisation per send.
        payload_digest = self._payload_digest(payload)
        if self.batch_deliveries:
            return self._send_grouped(sender, recipients, payload, now, payload_digest)
        envelopes = []
        for pid in recipients:
            envelopes.append(
                self._send_one(sender, pid, payload, now, listeners, payload_digest)
            )
        return envelopes

    def _payload_digest(self, payload: Any) -> Optional[str]:
        """Digest of ``payload`` under the attached backend (``None`` without one)."""
        if self.crypto_backend is None:
            return None
        return self.crypto_backend.digest(payload)

    def _send_one(
        self,
        sender: int,
        recipient: int,
        payload: Any,
        now: float,
        listeners: Sequence[Callable[[Envelope], None]],
        payload_digest: Optional[str] = None,
    ) -> Envelope:
        """Construct, announce and schedule one envelope; shared send path.

        ``payload_digest`` is computed by the caller (once per send call,
        even for an n-recipient broadcast) and attached verbatim.
        """
        if sender == recipient:
            # Self-messages are received immediately (paper, Section 4).
            deliver_time = now
        else:
            config = self.config
            delay = self._constant_delay
            if delay is None:
                pending = PendingSend(sender, recipient, payload, now, now >= config.gst)
                delay = self._delay_model.propose_delay(pending, self._ctx)
            deliver_time = config.delivery_time(now, delay)
        envelope = Envelope(
            next(self._msg_ids), sender, recipient, payload, now, deliver_time, payload_digest
        )
        self.messages_sent += 1
        for listener in listeners:
            listener(envelope)
        # Deliveries are fire-and-forget: the handle-free lane skips the
        # EventHandle allocation and cancellation bookkeeping entirely.
        self.sim.schedule_fired_at(deliver_time, self._deliver, envelope)
        return envelope

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deliver(self, envelope: Envelope) -> None:
        self.messages_delivered += 1
        for listener in self.deliver_listeners:
            listener(envelope)
        process = self._processes.get(envelope.recipient)
        if process is None:  # pragma: no cover - defensive; processes never unregister
            return
        process.deliver(envelope.payload, envelope.sender)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(n={len(self._processes)}, sent={self.messages_sent}, "
            f"delivered={self.messages_delivered}, model={self.delay_model.describe()})"
        )
