"""The replica: one simulated processor running consensus plus a pacemaker.

A :class:`Replica` composes

* the chained-HotStuff engine (:mod:`repro.consensus.engine`),
* a pluggable pacemaker (any :class:`repro.pacemakers.base.Pacemaker`),
* the replica's signing key and the shared threshold scheme,
* a :class:`~repro.consensus.behaviour.Behaviour` describing deviations
  (honest by default), and
* the metrics collector observing the run — the run's one record, whose
  event table :meth:`Replica.trace` writes.

Message routing is type-based — :class:`~repro.consensus.messages.ConsensusMessage`
instances go to the engine,
:class:`~repro.statemachine.messages.ClientMessage` instances to the
client path (mempool ingest), everything else to the pacemaker — and runs
through a per-replica dispatch table keyed on the concrete payload class:
the ``isinstance`` check happens once per *type*, not once per delivery
(the per-delivery form was a measurable share of large-``n`` runs).

Every frame first passes one admission rule, on its class's ``admission``
bits (:mod:`repro.consensus.messages`), so no handler guards the floor: a
frame below the committed-view floor that its handler would ignore is
dropped, and a share, ``Proposal`` or ``NewView`` more than
:data:`ADMISSION_WINDOW` views ahead is held, one per (class, sender) with
the newest view kept, until a view entered brings it within the window.

A replica is runtime-agnostic: it is built over a
:class:`~repro.runtime.transports.Transport` and reads time from the
kernel that transport is bound to, so the same object runs under the
discrete-event simulator in virtual time or on the wall clock over a real
transport.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from repro.config import ProtocolConfig
from repro.consensus.behaviour import Behaviour, HonestBehaviour
from repro.errors import ConfigurationError
from repro.consensus.blocks import Block, BlockTree
from repro.consensus.engine import ChainedHotStuff, ConsensusEngine
from repro.consensus.ledger import Ledger
from repro.consensus.mempool import Mempool
from repro.consensus.messages import DROPPED_BELOW_FLOOR, HELD_AHEAD, ConsensusMessage
from repro.consensus.quorum import QuorumCertificate
from repro.consensus.safety import SafetyRules
from repro.crypto.backend import PackedDigests
from repro.crypto.signatures import PKI, SigningKey
from repro.crypto.threshold import ThresholdScheme
from repro.metrics.collector import MetricsCollector
from repro.sim.process import Process
from repro.statemachine.messages import ClientMessage, CommandForward


#: How many views above its current view a replica takes a share, ``Proposal``
#: or ``NewView`` in: above every honest lead (frame view less receiver view)
#: measured, 16 over the 115 floor cells, 2 over random-GST runs and the sim
#: ledger workloads, 28 under ``crash_churn`` at n=19.
ADMISSION_WINDOW = 64


class ReplicaResidue(NamedTuple):
    """What one replica leaves behind, picklable: everything a run's
    per-replica queries read, built by :meth:`Replica.residue` — from the
    live replica, or in a worker process and shipped as is."""

    #: Committed block ids, packed.
    ledger: PackedDigests
    #: KV state digest (``None`` without a workload).
    kv_digest: Optional[str]
    #: KV apply chain, packed (empty without a workload).
    kv_chain: PackedDigests
    #: Client-path counts (empty without a workload): the batches the
    #: mempool gave up on, the committed duplicates the exactly-once
    #: filter skipped, the committed commands outside its domain and the
    #: committed batches that did not decode.
    client_counts: dict[str, int]


class Replica(Process):
    """One processor: consensus engine + pacemaker + keys + ledger."""

    def __init__(
        self,
        pid: int,
        transport: Any,
        config: ProtocolConfig,
        pki: PKI,
        signing_key: SigningKey,
        scheme: ThresholdScheme,
        pacemaker_factory: Callable[["Replica"], Any],
        engine_factory: Optional[Callable[["Replica"], ConsensusEngine]] = None,
        metrics: Optional[MetricsCollector] = None,
        behaviour: Optional[Behaviour] = None,
        mempool: Optional[Mempool] = None,
    ) -> None:
        super().__init__(pid, transport)
        self.config = config
        self.pki = pki
        self.signing_key = signing_key
        self.scheme = scheme
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.behaviour = behaviour if behaviour is not None else HonestBehaviour()
        self.byzantine = self.behaviour.is_byzantine
        self.tree = BlockTree()
        self.safety = SafetyRules(self.tree)
        self.ledger = Ledger(pid)
        self.mempool = mempool if mempool is not None else Mempool(pid)
        self.engine = (engine_factory or ChainedHotStuff)(self)
        self.pacemaker = pacemaker_factory(self)
        #: The leader of a view under the pacemaker's schedule: its lookup,
        #: bound once (Lumiere's is its schedule's table index), as the
        #: engine, the gateway and the mempool ask dozens of times a view.
        self.leader_of: Callable[[int], int] = self.pacemaker.leader_of
        #: The committed-view floor, ``min(last committed view, current
        #: view)``: every view below it is decided and left, so the block
        #: tree, engine and pacemaker free its state and its messages are
        #: no-ops — all but the first sight of a QC, which still counts
        #: (``_learn_qc``).
        self.floor = -1
        # Client-workload attachments (set by repro.runner.workload when a
        # ScenarioConfig carries a workload; None for pure-consensus runs).
        self.state_machine = None
        self.clients = None
        self.gateway = None
        # Per-payload-type routing table, filled lazily on first sight of
        # each concrete message class (see on_message): (handler, admission).
        self._routes: dict[type, tuple[Callable[[Any, int], None], int]] = {}
        # Frames held above the admission window, one per (class, sender).
        self._held: dict[tuple[type, int], Any] = {}
        self._arm_downtime()

    @property
    def crypto_backend(self):
        """The :class:`~repro.crypto.backend.CryptoBackend` this replica's
        scheme (and hence all of its signing/verification) digests with."""
        return self.scheme.backend

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the pacemaker (which will drive the engine into views)."""
        self.pacemaker.start()
        if self.clients is not None:
            self.clients.start()

    def _arm_downtime(self) -> None:
        """Schedule every crash/recovery window the behaviour declares.

        A window ``(crash_at, recover_at)`` crashes the replica at its start
        and — when ``recover_at`` is not ``None`` — restarts it at its end,
        so churn behaviours can take a replica down and up repeatedly.  The
        windows must be in order and disjoint, and a permanent crash
        (``recover_at=None``) must be the last.  :meth:`crash` and
        :meth:`recover` count each transition as it happens, into the run's
        counter bag.
        """
        windows = self.behaviour.downtime_windows()
        up_again = float("-inf")  # when the previous window ends
        for crash_at, recover_at in windows:
            if recover_at is not None and recover_at <= crash_at:
                raise ConfigurationError(
                    f"recovery at {recover_at} does not follow crash at {crash_at}"
                )
            if up_again is None or crash_at < up_again:
                raise ConfigurationError(
                    f"downtime windows {windows} are out of order, overlap or "
                    "follow a permanent crash"
                )
            up_again = recover_at
        for crash_at, recover_at in windows:
            self.runtime.set_timer_at(max(crash_at, self.now), self.crash)
            if recover_at is not None:
                self.runtime.set_timer_at(max(recover_at, self.now), self.recover)

    def crash(self) -> None:
        """Stop the replica, counting the kill if it was up."""
        if self.crashed:
            return
        super().crash()
        self.metrics.counters.bump("kills")
        self.trace("crash", self.current_view)

    def recover(self) -> None:
        """Restart the replica, counting the restart if it was down."""
        if not self.crashed:
            return
        super().recover()
        self.metrics.counters.bump("restarts")
        self.trace("recover", self.current_view)

    def trace(self, kind: str, value: int) -> None:
        """Record one protocol event of this replica as a row of the run's
        event table (``value``: the view, or the epoch for epoch-level
        kinds such as ``epoch_sync``)."""
        self.metrics.record_event(self.pid, kind, value, self.runtime.now)

    # ------------------------------------------------------------------
    # Message routing
    # ------------------------------------------------------------------
    def on_message(self, payload: Any, sender: int) -> None:
        """Admit (see the module docstring), then route by payload type.

        The first delivery of each message class pays one ``isinstance``
        check to decide engine vs pacemaker; every later delivery of that
        class is a single dict lookup.
        """
        route = self._routes.get(payload.__class__)
        if route is None:
            if isinstance(payload, ConsensusMessage):
                handler = self.engine.on_message
            elif isinstance(payload, ClientMessage):
                handler = self._on_client_message
            else:
                handler = self.pacemaker.on_message
            route = self._routes[payload.__class__] = (handler, getattr(payload, "admission", 0))
        handler, admission = route
        if admission:
            view = payload.view
            if view < self.floor:
                if admission & DROPPED_BELOW_FLOOR:
                    return
            elif admission & HELD_AHEAD and view > self.current_view + ADMISSION_WINDOW:
                held = self._held.get(key := (payload.__class__, sender))
                if held is None or view > held.view:
                    self._held[key] = payload
                return
        handler(payload, sender)

    def _deliver_held(self) -> None:
        """Deliver the held frames the admission window now reaches, by view
        and then sender."""
        held, ceiling = self._held, self.current_view + ADMISSION_WINDOW
        due = [key for key, payload in held.items() if payload.view <= ceiling]
        for key in sorted(due, key=lambda key: (held[key].view, key[1])):
            self.deliver(held.pop(key), key[1])

    # ------------------------------------------------------------------
    # View bookkeeping
    # ------------------------------------------------------------------
    @property
    def current_view(self) -> int:
        """The view this replica is currently in, as decided by its pacemaker."""
        return self.pacemaker.current_view

    def is_leader(self, view: int) -> bool:
        """Whether this replica leads ``view``."""
        return self.leader_of(view) == self.pid

    def turn_end(self, view: int) -> int:
        """The last view of the *turn* containing ``view``: its leader's
        maximal run of consecutive views (two under the paired schedules,
        four across a Lumiere epoch boundary, one under round-robin)."""
        leader = self.leader_of(view)
        while self.leader_of(view + 1) == leader:
            view += 1
        return view

    def _proposal_coming(self) -> bool:
        """Whether this replica proposes in one of the next two views — the
        reach of a batch queued now: a later turn is a leader rotation away."""
        view = self.current_view
        return self.is_leader(view + 1) or self.is_leader(view + 2)

    def on_view_entered(self, view: int) -> None:
        """Callback from the pacemaker when this replica enters ``view``."""
        self.trace("enter_view", view)
        if (
            self.mempool.pending_commands
            and not self.is_leader(view)
            and not self._proposal_coming()
        ):
            # Our turn ended with batches its proposals could not carry:
            # their gateways re-dispatch them to a leader that proposes next.
            self.mempool.expire()
        if self.gateway is not None:
            # Before the engine may propose: what this replica buffered since
            # the last view rides the proposal of this one when it leads it.
            self.gateway.flush("view")
        self.engine.on_enter_view(view)
        held = self._held
        if held and min(frame.view for frame in held.values()) <= view + ADMISSION_WINDOW:
            # An event of its own: the pacemaker is still entering the view.
            self.runtime.call_after(0.0, self._deliver_held)

    # ------------------------------------------------------------------
    # QC and commit callbacks (from the engine)
    # ------------------------------------------------------------------
    def on_qc_produced(self, qc: QuorumCertificate) -> None:
        """This replica, as leader, formed a QC for its own view."""
        self.metrics.record_decision(self.now, qc.view, self.pid)
        self.pacemaker.on_local_qc(qc)

    def on_qc_observed(self, qc: QuorumCertificate) -> None:
        """This replica learned of a QC (its own or another leader's)."""
        self.metrics.counters.bump("qc_count")
        self.trace("qc_observed", qc.view)
        self.pacemaker.on_qc(qc)

    def commit_block(self, block: Block) -> None:
        """A block became committed under the 3-chain rule."""
        now = self.now
        machine = self.state_machine
        if not self.ledger.commit(block, now, hold=machine is not None):
            return  # committed before: nothing new to record, apply or redispatch
        self.metrics.record_commit(self.pid, block.view, block.block_id, now)
        if machine is not None:
            machine.catch_up(self.ledger, now)
        if self.gateway is not None:
            # This block's view, not safety.state.last_committed_view: that
            # is already the newest block's while a run of ancestors is
            # still being handed over, oldest first.
            self.gateway.redispatch(block.view)
        floor = min(self.safety.state.last_committed_view, self.current_view)
        if floor > self.floor:
            self.floor = floor
            self.tree.release_below(floor)
            self.pacemaker.release_below(floor)
            self.engine.release_below(floor)

    def _on_client_message(self, payload: ClientMessage, sender: int) -> None:
        """Client-path traffic: forwarded batches feed the mempool.

        A forward is accepted only while a proposal of this replica's own is
        coming within the next two views; one that arrives outside that
        window (or finds the mempool full) is dropped and counted.  Neither
        case needs a NACK or a hand-off to the next leader: the gateway that
        submitted the commands stays their single owner and re-dispatches
        them once the commit frontier has passed the turn it aimed at.
        """
        if isinstance(payload, CommandForward):
            if self._proposal_coming():
                self.mempool.ingest(payload.batch)
            else:
                self.mempool.refuse()

    def drain(self) -> ReplicaResidue:
        """The ledger ids and KV apply-chain links this replica gained since
        its last drain, as a residue without KV digest or client counts;
        the replica then drops them and keeps its chain heads.  A worker
        process ships one every status round, so its :meth:`residue` holds
        only the rows since the last."""
        machine = self.state_machine
        links = machine.drain_chain() if machine is not None else b""
        return ReplicaResidue(
            PackedDigests.from_bytes(self.ledger.drain()), None,
            PackedDigests.from_bytes(links), {},
        )

    def residue(self) -> ReplicaResidue:
        """This replica's :class:`ReplicaResidue`, as of now (its ledger ids
        and apply-chain links: those since its last :meth:`drain`)."""
        ledger = self.ledger.packed_ids
        machine = self.state_machine
        if machine is None:
            return ReplicaResidue(ledger, None, PackedDigests(), {})
        return ReplicaResidue(
            ledger,
            machine.digest(),
            machine.apply_chain,
            {
                "mempool.expired": self.mempool.expired,
                "store.duplicates_skipped": machine.store.duplicates_skipped,
                "store.commands_rejected": machine.store.commands_rejected,
                "kv_batches_malformed": machine.batches_malformed,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Replica(pid={self.pid}, view={self.current_view}, "
            f"pacemaker={type(self.pacemaker).__name__}, byzantine={self.byzantine})"
        )
