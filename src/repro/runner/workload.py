"""Client load generators and the request gateway.

This module turns a cluster of replicas into a system that serves
traffic: a picklable :class:`WorkloadConfig` rides on
``ScenarioConfig.workload`` through every execution lane (sim, in-memory
live, TCP, multi-process), and :func:`attach_workload` wires each replica
with

* a :class:`~repro.statemachine.kvstore.ReplicatedKV` applying committed
  blocks (every replica, client-hosting or not), and
* on the client-hosting replicas, a :class:`RequestGateway` plus an open-
  or closed-loop load generator.

**Clients are co-located** with replicas rather than registered as extra
network processes: ``Runtime.broadcast`` targets every registered pid, so
standalone client processes would receive (and distort the accounting of)
all consensus traffic.  A generator is therefore plain timer-driven state
on its replica, submitting into the local gateway.

The gateway batches by the **view**, the one clock a batch can be used on:
a batch is "what arrived since the last proposal opportunity".  Submissions
buffer until one of three triggers flushes them, and the flush encodes the
buffer **once** into a :class:`~repro.statemachine.messages.CommandBatch`
blob and routes it by the leader schedule:

* ``view`` — the replica enters a view (``Replica.on_view_entered``, after
  the turn-end mempool expiry and *before* the engine may propose), under
  every pacemaker on every lane, because view entry is the one event they all
  share.  This is the trigger that serves a healthy run: a request waits for
  a proposal, not for a timer;
* ``size`` — ``forward_batch`` commands are waiting: the cap on one forward,
  for a burst inside one view;
* ``deadline`` — the oldest buffered command is ``forward_deadline`` seconds
  old, unless the flush at the next view entry would be forwarded to the
  same proposer turn (Nagle's rule on the leader schedule): then the buffer
  waits for that view flush, or for the size trigger, and arms no timer
  until the view changes.  So while a silent leader's view times out, a
  gateway sends the proposer after it one forward per ``forward_batch``
  commands and the rest at the next view entry, not one per deadline; a batch
  the replica proposes itself never waits, and under one-view turns (the
  round-robin pacemakers) the next view's route always moves, so nothing
  waits.  There is at most one armed timer per gateway; it re-checks the
  age of the oldest buffered command when it fires instead of being
  cancelled and re-armed by every flush.

``counts["flushes.view"]`` (and ``.size`` / ``.deadline``) on the run's
:class:`~repro.metrics.collector.MetricsCollector` counts which trigger
served a run.  Three rules
share one notion, a leader's *turn* (its run of consecutive views under
``replica.leader_of``, any pacemaker):

* **route** — the batch goes to the first proposer it can still reach: the
  local mempool when this replica leads the view it is in and has not
  proposed in it yet (so what a leader buffered rides the proposal it is
  about to make) or leads ``current_view + 1``, else the leader of
  ``current_view + 2`` (a forward takes up to a message delay, a view lasts
  two), and every command is filed under the last view of that turn;
* **retry on the commit frontier** — when the replica applies a block of
  that view or later and the command is still outstanding, no block of the
  turn can commit it any more, so it is re-dispatched then; the
  ``retry_interval`` timer only covers the lossy regime, where the
  frontier does not follow (drops, crashed leaders);
* **expire** — a replica accepts forwards, and keeps batches queued, only
  while a proposal of its own is coming within two views
  (``Replica._on_client_message`` / ``on_view_entered``), so the gateway
  that submitted a command stays its single owner and committed duplicates
  are the lossy-regime exception, not the steady state.

Backpressure is two-level and bounded at both: a gateway refuses new
submissions past ``max_pending`` outstanding, and a full mempool refuses
forwarded batches (their owner re-dispatches them to a later leader).

Everything here is deterministic by construction — keys, values and ops
are derived from ``(client, seq)``, timers fire on a fixed grid, and no
randomness is consumed — so two virtual-time runs of one config produce
identical ledgers *and* identical KV state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.consensus.mempool import Mempool
from repro.metrics.counters import FLUSH_COUNTS
from repro.statemachine.commands import OP_DELETE, OP_PUT, Command, encode_commands
from repro.statemachine.kvstore import ReplicatedKV
from repro.statemachine.messages import CommandBatch, CommandForward


@dataclass(frozen=True)
class WorkloadConfig:
    """Declarative client workload, picklable across process boundaries.

    ``mode`` selects the generator: ``"open"`` submits at a fixed offered
    rate regardless of completions (the overload-probing shape);
    ``"closed"`` keeps ``clients`` requests in flight per replica, each
    client submitting its next command ``think_time`` after the previous
    one applied (the latency-probing shape).
    """

    mode: str = "open"
    #: Open loop: offered commands/sec per client-hosting replica.
    rate: float = 50.0
    #: Client streams per hosting replica (closed loop: concurrent clients).
    clients: int = 2
    #: Closed loop: seconds between a completion and the next submission.
    think_time: float = 0.0
    #: Submission window, relative to replica start.
    start: float = 0.0
    stop: Optional[float] = None
    #: Keys per client stream (cycled by sequence number).
    key_space: int = 64
    #: Share one key range across clients instead of per-client ranges.
    #: (Per-client ranges keep the end state order-independent.)
    shared_keys: bool = False
    #: Size trigger: flush the gateway buffer at this many commands.
    forward_batch: int = 8
    #: Deadline trigger: flush this many seconds after the first buffered
    #: command even if the size trigger never fires.
    forward_deadline: float = 0.05
    #: Fallback retry cadence.  The primary retry is the commit frontier; this
    #: timer re-dispatches only commands whose leader's turn is
    #: ``FALLBACK_VIEW_LAG`` views behind with nothing committed past it
    #: (lost forwards, crashed leaders).  A retry that races a commit is
    #: correct (the exactly-once filter eats it) but orders the command twice.
    retry_interval: float = 5.0
    #: Gateway bound: refuse submissions past this many outstanding.
    max_pending: int = 2048
    #: Mempool bounds (commands per proposal / queued before refusing).
    max_batch: int = 256
    max_mempool: int = 4096
    #: Replicas that host client generators (``None`` = all replicas).
    client_pids: Optional[tuple[int, ...]] = None

    def hosts_clients(self, pid: int, n: int) -> bool:
        """Whether the replica ``pid`` of an ``n``-cluster runs generators."""
        if self.client_pids is not None:
            return pid in self.client_pids
        return pid < n


def make_command(
    workload: WorkloadConfig, client: int, seq: int
) -> Command:
    """The deterministic command of stream ``client`` at position ``seq``.

    Mostly puts with a sprinkling of deletes; key and value are pure
    functions of ``(client, seq)`` so every run offers the identical
    command sequence — the chaos-vs-fault-free state equality the
    exactly-once test asserts depends on it.
    """
    op = OP_DELETE if seq % 16 == 15 else OP_PUT
    if workload.shared_keys:
        key = f"k{(client * 7 + seq * 13) % workload.key_space}"
    else:
        key = f"c{client}:{seq % workload.key_space}"
    return Command(client, seq, op, key, f"v{client}:{seq}")


#: The ``retry_interval`` fallback re-dispatches an entry only once its
#: leader's turn is this many views behind the replica's current view.  It
#: must not beat the commit frontier through one failed turn: the blocks
#: certified just before a silent leader commit only with the first
#: three-chain after it, which a replica sees as it enters the fourth view
#: past the failed turn — and a turn is at most four views long (a Lumiere
#: epoch boundary).  Until then a re-dispatch would order the command twice.
FALLBACK_VIEW_LAG = 8


class RequestGateway:
    """Per-replica client ingress: buffer, batch, route, retry, complete.

    Buffers submissions until a view entry, ``forward_batch`` commands or
    the ``forward_deadline`` flushes them; a deadline flush waits for the
    next view entry when that flush reaches the same proposer turn.  Owns
    the outstanding-request table keyed ``(client, seq)``; the state
    machine's ``on_apply`` callback completes entries and records
    end-to-end latency into the replica's
    :class:`~repro.metrics.collector.MetricsCollector`.
    """

    def __init__(self, replica, workload: WorkloadConfig) -> None:
        self.replica = replica
        self.workload = workload
        self.metrics = replica.metrics
        # Submitted, not yet flushed: (command, submit_time), oldest first.
        self._buffer: list[tuple[Command, float]] = []
        # When the one deadline timer fires (None = not armed).  Flushes never
        # cancel it: it looks at the oldest buffered command when it fires.
        self._deadline_due: Optional[float] = None
        # The view in which a deadline flush was held for the next view's
        # flush: no deadline timer is armed again until the view changes.
        self._held_in: Optional[int] = None
        # (client, seq) -> (command, submit_time, last view of the turn it
        # was dispatched to), in dispatch order — so the turn views ascend
        # and a retry only ever inspects the head.
        self._outstanding: dict[tuple[int, int], tuple[Command, float, int]] = {}
        #: Completion callback for closed-loop generators.
        self.on_complete = None

    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet applied."""
        return len(self._outstanding) + len(self._buffer)

    def submit(self, command: Command) -> bool:
        """Accept one client command; ``False`` = backpressure, try later."""
        if self.replica.crashed:
            return False
        if self.outstanding >= self.workload.max_pending:
            self.metrics.counters.bump("requests_rejected")
            return False
        self.metrics.counters.bump("requests_submitted")
        now = self.replica.now
        self._buffer.append((command, now))
        if len(self._buffer) >= self.workload.forward_batch:
            self.flush("size")
        elif self._deadline_due is None and self._held_in != self.replica.current_view:
            self._arm_deadline(now + self.workload.forward_deadline)
        return True

    def _arm_deadline(self, due: float) -> None:
        self._deadline_due = due
        self.replica.runtime.set_timer_at(due, self._on_deadline)

    def _on_deadline(self) -> None:
        """The deadline timer fired: flush if the oldest buffered command is
        the one it was armed for (or as old), else wait out the remainder of
        that command's deadline — the flush times of a timer armed per
        command, at one timer per ``forward_deadline`` instead of one armed
        and one cancelled per flush.  A due flush that the next view entry
        would send to the same proposer turn is held for it instead."""
        armed_for, self._deadline_due = self._deadline_due, None
        if not self._buffer:
            return
        due = self._buffer[0][1] + self.workload.forward_deadline
        if due > armed_for:
            self._arm_deadline(due)
        elif self._next_view_reaches_the_same_turn():
            self._held_in = self.replica.current_view
        else:
            self.flush("deadline")

    def _next_view_reaches_the_same_turn(self) -> bool:
        """Whether a flush on entering ``current_view + 1`` would be
        forwarded to the proposer turn a flush now would: then the buffer
        waits for the next view entry's flush (routed from the view entered,
        which may lie past a timed-out turn), and a stalled view costs a
        gateway one forward per ``forward_batch`` commands, not one per
        ``forward_deadline``.  In a healthy view of two message delays the
        held forward can tie with the turn's first proposal and ride its
        second.  A batch this replica proposes itself costs no message and
        never waits; under one-view turns the next view's route always
        moves."""
        replica = self.replica
        view = replica.current_view
        now = self._route(view, replica.engine.proposal_pending(view))
        return now[0] != replica.pid and now == self._route(
            view + 1, replica.is_leader(view + 1)
        )

    def flush(self, trigger: str) -> None:
        """Encode the buffer once and dispatch it to the next proposer;
        ``trigger`` (a key of ``FLUSH_COUNTS``) is counted.  An empty
        buffer — most view entries of a lightly loaded replica — costs this
        one check."""
        if not self._buffer:
            return
        self.metrics.counters.bump(FLUSH_COUNTS[trigger])
        self._dispatch(self._buffer)
        self._buffer.clear()

    def _route(self, view: int, pending: bool) -> tuple[int, int]:
        """``(proposer, last view of its turn)`` for a batch dispatched in
        ``view``; ``pending`` = this replica leads ``view`` and has yet to
        propose in it (at a view's entry: whether it leads the view).

        The first proposer the batch can still reach: this replica when it
        has a proposal pending in ``view``, or leads the next view; else
        whoever leads the view after — a forward takes up to a message delay
        and a view lasts two, so the next view's leader may have proposed
        before the batch arrives.
        """
        replica = self.replica
        if not pending:
            view += 1
            if not replica.is_leader(view):
                view += 1
        return replica.leader_of(view), replica.turn_end(view)

    def _dispatch(self, entries: list[tuple]) -> None:
        """Send the commands of ``entries`` (``(command, submit_time, ...)``)
        as one batch and file them, at the tail of the outstanding table,
        under the turn they were sent to."""
        replica = self.replica
        batch = CommandBatch(
            count=len(entries), data=encode_commands([entry[0] for entry in entries])
        )
        view = replica.current_view
        proposer, turn_end = self._route(view, replica.engine.proposal_pending(view))
        if proposer == replica.pid:
            replica.mempool.ingest(batch)
        else:
            self.metrics.counters.bump("forwards_sent")
            replica.send(proposer, CommandForward(batch=batch))
        outstanding = self._outstanding
        for entry in entries:
            command = entry[0]
            outstanding[(command.client, command.seq)] = (command, entry[1], turn_end)

    def redispatch(self, frontier: int) -> None:
        """Re-dispatch, oldest first, the entries whose turn ended at or
        before view ``frontier``.  O(1) when the head's has not.

        The primary retry: the replica calls this with the view of each
        block it has just applied.  An entry still outstanding then can no
        longer be committed by any block of its turn (blocks commit in view
        order), so it goes to a proposer that is still to come.
        """
        outstanding = self._outstanding
        stale = []
        for entry in outstanding.values():
            if entry[2] > frontier:
                break
            stale.append(entry)
        if not stale:
            return
        self.metrics.counters.bump("requests_redispatched", len(stale))
        for command, _, _ in stale:
            del outstanding[(command.client, command.seq)]
        # As few batches as proposals can carry them in: every frame more is
        # one more that a lossy link can drop.
        size = self.workload.max_batch
        for lo in range(0, len(stale), size):
            self._dispatch(stale[lo : lo + size])

    def retry_outstanding(self) -> None:
        """Timer fallback for the lossy regime: re-dispatch entries whose
        turn is ``FALLBACK_VIEW_LAG`` views behind while the commit frontier
        has not followed (forwards or proposals lost, leaders crashed)."""
        self.redispatch(self.replica.current_view - FALLBACK_VIEW_LAG)

    def on_applied(self, command: Command, time: float) -> None:
        """State-machine callback: complete the request if it is ours."""
        entry = self._outstanding.pop((command.client, command.seq), None)
        if entry is None:
            return  # another replica's client, or a late duplicate
        self.metrics.record_request_applied(self.replica.pid, entry[1], time)
        if self.on_complete is not None:
            self.on_complete(command)


class OpenLoopLoad:
    """Offered-rate generator: submits on a fixed time grid, rain or shine.

    ``rate`` commands/sec per hosting replica, round-robin over
    ``clients`` independent streams.  A refused submission never slows the
    grid — the stream simply re-offers the same identity at its next tick
    (the refusal is counted), which is what makes it the overload probe.
    """

    def __init__(
        self, replica, gateway: RequestGateway, workload: WorkloadConfig
    ) -> None:
        self.replica = replica
        self.gateway = gateway
        self.workload = workload
        n = replica.config.n
        self._client_ids = [
            replica.pid + n * k for k in range(workload.clients)
        ]
        self._seqs = [0] * workload.clients
        self._stream = 0
        self._tick = 0
        self._origin = 0.0
        self._interval = 1.0 / workload.rate

    def start(self) -> None:
        self._origin = self.replica.now + self.workload.start
        self.replica.runtime.set_timer_at(self._origin, self._submit_tick)
        self.replica.runtime.set_timer_at(
            self._origin + self.workload.retry_interval, self._retry_tick
        )

    def _within_window(self, time: float) -> bool:
        stop = self.workload.stop
        return stop is None or time < self._origin - self.workload.start + stop

    def _submit_tick(self) -> None:
        now = self.replica.now
        if not self._within_window(now):
            return
        stream = self._stream
        self._stream = (stream + 1) % len(self._client_ids)
        command = make_command(
            self.workload, self._client_ids[stream], self._seqs[stream]
        )
        if self.gateway.submit(command):
            self._seqs[stream] += 1
        self._tick += 1
        # Fixed grid (not now + interval): no drift.
        self.replica.runtime.set_timer_at(
            self._origin + self._tick * self._interval, self._submit_tick
        )

    def _retry_tick(self) -> None:
        self.gateway.retry_outstanding()
        if self.gateway.outstanding or self._within_window(self.replica.now):
            self.replica.runtime.set_timer(
                self.workload.retry_interval, self._retry_tick
            )


class ClosedLoopLoad:
    """Fixed-concurrency generator: each client waits for its previous
    command to apply (plus ``think_time``) before submitting the next."""

    def __init__(
        self, replica, gateway: RequestGateway, workload: WorkloadConfig
    ) -> None:
        self.replica = replica
        self.gateway = gateway
        self.workload = workload
        gateway.on_complete = self._on_complete
        n = replica.config.n
        self._clients = {
            replica.pid + n * k: 0 for k in range(workload.clients)
        }
        self._origin = 0.0

    def start(self) -> None:
        self._origin = self.replica.now + self.workload.start
        for client in self._clients:
            self.replica.runtime.set_timer_at(
                self._origin, self._submit_next, client
            )
        self.replica.runtime.set_timer_at(
            self._origin + self.workload.retry_interval, self._retry_tick
        )

    def _within_window(self, time: float) -> bool:
        stop = self.workload.stop
        return stop is None or time < self._origin - self.workload.start + stop

    def _submit_next(self, client: int) -> None:
        if not self._within_window(self.replica.now):
            return
        seq = self._clients[client]
        command = make_command(self.workload, client, seq)
        if self.gateway.submit(command):
            self._clients[client] = seq + 1
        else:
            # Closed-loop sources back off on refusal instead of dropping.
            self.replica.runtime.set_timer(
                self.workload.retry_interval, self._submit_next, client
            )

    def _on_complete(self, command: Command) -> None:
        if command.client not in self._clients:
            return
        if self.workload.think_time > 0.0:
            self.replica.runtime.set_timer(
                self.workload.think_time, self._submit_next, command.client
            )
        else:
            self.replica.runtime.spawn(self._submit_next, command.client)

    def _retry_tick(self) -> None:
        self.gateway.retry_outstanding()
        if self.gateway.outstanding or self._within_window(self.replica.now):
            self.replica.runtime.set_timer(
                self.workload.retry_interval, self._retry_tick
            )


_LOADS = {"open": OpenLoopLoad, "closed": ClosedLoopLoad}


def attach_workload(replica, workload: WorkloadConfig) -> None:
    """Wire one replica for the client workload (no-op if ``workload`` is None).

    Called from :func:`repro.experiments.scenario.make_replica`, the one
    place any lane constructs a replica, so all four execution lanes run
    the same client path.  Every replica gets the state machine; only the replicas
    ``workload.client_pids`` selects also get a gateway and generator.
    """
    if workload is None:
        return
    replica.mempool = Mempool(
        replica.pid,
        batch_size=replica.mempool.batch_size,
        max_batch=workload.max_batch,
        max_pending=workload.max_mempool,
    )
    state_machine = ReplicatedKV()
    replica.state_machine = state_machine
    if not workload.hosts_clients(replica.pid, replica.config.n):
        return
    gateway = RequestGateway(replica, workload)
    state_machine.on_apply = gateway.on_applied
    load_factory = _LOADS.get(workload.mode)
    if load_factory is None:
        raise ValueError(
            f"unknown workload mode {workload.mode!r} (expected 'open' or 'closed')"
        )
    replica.clients = load_factory(replica, gateway, workload)
    replica.gateway = gateway
