"""Run-time metrics collection: the run's one record.

The collector is attached to the transport (to observe sends) and is called by
replicas when QCs form, blocks commit and protocol events happen (views
entered, heavy epoch synchronisations, pauses, ...).  It never influences
the protocols — it only observes.

The paper's complexity measures (Section 2):

* ``W_T`` — the number of messages sent by correct processors between time
  ``T >= GST`` and ``t*_T``, the first time after ``T`` at which an honest
  leader produces a QC for its view.
* worst-case communication complexity — ``W_{GST + Delta}``,
* eventual worst-case communication complexity — ``limsup_{T -> inf} W_T``,
* worst-case latency — ``t*_GST - GST``,
* eventual worst-case latency — ``limsup_{T -> inf} (t*_T - T)``.

In a finite run we approximate the limsup by the maximum over all decision
gaps after a configurable warm-up.

Storage is **columnar**: the paper's measures only need message *counts and
times*, so :meth:`MetricsCollector.on_send` appends to parallel primitive
columns (``array('d')`` times, integer id columns, interned kind tokens)
instead of allocating a record object per envelope — the dominant
observation-layer cost of large-``n`` runs.  Protocol events are one more
such table — time, pid, interned kind, one int value (the view, or the
epoch for epoch-level kinds) — written by :meth:`Replica.trace
<repro.consensus.replica.Replica.trace>` on every lane, always on.  The
record dataclasses (:class:`MessageRecord`, :class:`DecisionRecord`,
:class:`CommitRecord`, :class:`EventRecord`) are materialised lazily by the
query methods.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.crypto.backend import PackedDigests
from repro.metrics.counters import BASE_COUNTS, SOURCE_COUNTS, Counters

if TYPE_CHECKING:  # pragma: no cover - types only: the runtime package loads transports
    from repro.runtime.transports import Envelope


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One QC produced by a leader for its own view."""

    time: float
    view: int
    leader: int
    leader_honest: bool


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """One message sent by an honest processor (self-deliveries excluded)."""

    time: float
    sender: int
    recipient: int
    kind: str


@dataclass(frozen=True, slots=True)
class CommitRecord:
    """One block commit observed at one replica."""

    time: float
    pid: int
    view: int
    block_id: str


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One protocol event at one replica; ``str()`` renders it as a row."""

    time: float
    pid: int
    kind: str
    #: The view, or the epoch for epoch-level kinds (``epoch_sync``,
    #: ``lumiere_success_criterion``).
    value: int

    def __str__(self) -> str:
        return f"[t={self.time:9.3f}] p{self.pid:<3} {self.kind:<28} {self.value}"


class MetricsCollector:
    """Collects message, decision, commit, request and protocol-event records.

    Messages, decisions, commits and events are stored as parallel
    primitive columns and materialised into their record dataclasses only
    when queried (the :attr:`messages`, :attr:`decisions` and
    :attr:`commits` properties and :meth:`events` build fresh lists on each
    access — iterate, don't mutate).  Interval queries
    (``messages_between``, ``message_kinds_between``, the ``*_after``
    family) bisect sorted time columns instead of scanning every record.
    """

    def __init__(self) -> None:
        self.honest_ids: set[int] = set()
        # Message columns, appended in send order (send times are the
        # simulator clock, so the time column is sorted and bisectable).
        # (2-byte id columns: these rows are most of what a collector holds.)
        self._message_times = array("d")
        self._message_senders = array("h")
        self._message_recipients = array("h")
        self._message_kind_ids = array("h")
        # Event columns, appended in recording (= time) order.
        self._event_times = array("d")
        self._event_pids = array("h")
        self._event_kind_ids = array("h")
        self._event_values = array("q")
        # Kind interning, shared by both tables: kind id <-> name (payload
        # type names and event kinds, a few dozen entries).
        self._kind_names: list[str] = []
        self._kind_ids: dict[str, int] = {}
        # {pid: its latest enter_view row's view}: a replica's views only
        # rise, so this is the highest view it entered.
        self._views_entered: dict[int, int] = {}
        # Decision columns, plus the honest-decision index: sorted times of
        # honest-leader decisions and their positions in the full columns.
        self._decision_times = array("d")
        self._decision_views = array("q")
        self._decision_leaders = array("q")
        self._decision_honest = array("b")
        self._honest_decision_times = array("d")
        self._honest_decision_indices = array("q")
        # Commit columns.
        self._commit_times = array("d")
        self._commit_pids = array("q")
        self._commit_views = array("q")
        self._commit_block_ids: list[str] = []
        # Distinct commit ids handed over by earlier drains.
        self._ids_drained = 0
        # Client-request columns: one row per *applied* request, appended at
        # apply time (the apply-time column is sorted and bisectable, like
        # the message and commit columns).  Submissions, rejections and the
        # rest of the client path are names in the counter bag.
        self._request_submit_times = array("d")
        self._request_apply_times = array("d")
        self._request_pids = array("q")
        #: The run's one named-counter bag: faults (delay schedules,
        #: drop/duplicate injectors, replica crash/recovery), the client
        #: path (``requests_*``, ``flushes.<trigger>``, ``forwards_sent``)
        #: and ``qc_count`` are counted into it where they happen, on every
        #: lane.  :attr:`counts` is its snapshot plus the sources' totals.
        self.counters = Counters()
        # Objects whose SOURCE_COUNTS totals :attr:`counts` reads: the
        # transports and runtimes attach_transport registered.
        self._sources: list = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_honest(self, honest_ids: Iterable[int]) -> None:
        """Declare which processor ids are honest (never corrupted)."""
        self.honest_ids = set(honest_ids)

    def attach_transport(self, transport) -> None:
        """Subscribe to a transport's send events and read its totals.

        Every lane records through this one hot path, with times being
        whatever the run's clock reports (virtual seconds on the simulator
        kernel, monotonic seconds since cluster start for live clusters).

        The transport (the inner one, under a fault wrapper) and the runtime
        it is bound to become *sources* of :attr:`counts`: their
        ``messages_sent`` / ``messages_delivered`` / ``frames_decoded`` /
        ``frames_dropped`` / ``frames_rejected`` / ``events_processed``
        attributes are read when a snapshot is taken, so their hot paths
        stay plain increments and a writer that died holding unsent frames,
        or a frame that failed to decode, always leaves a trace in the
        run's :class:`~repro.metrics.summary.RunMetrics`.  A runtime the
        transports of a shard share is a source once.
        """
        transport.send_listeners.append(self.on_send)
        self._sources.append(getattr(transport, "inner", transport))
        if transport.runtime not in self._sources:
            self._sources.append(transport.runtime)

    @property
    def counts(self) -> dict[str, int]:
        """Every run total by name (the base names always present): a
        snapshot of :attr:`counters` plus the attached sources' totals
        (which only a merged run's bag holds itself)."""
        counts = self.counters.as_dict()
        for name in SOURCE_COUNTS:
            counts[name] = counts.get(name, 0) + sum(
                getattr(source, name, 0) for source in self._sources
            )
        return counts

    # The two client totals the benchmark harness under benchmarks/ledger/
    # reads by attribute; everything else reads counts.
    @property
    def requests_submitted(self) -> int:
        """Client requests accepted by a gateway: ``counts["requests_submitted"]``."""
        return self.counters.as_dict()["requests_submitted"]

    @property
    def requests_rejected(self) -> int:
        """Client requests refused by backpressure: ``counts["requests_rejected"]``."""
        return self.counters.as_dict()["requests_rejected"]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def on_send(self, envelope: Envelope) -> None:
        """Record a sent message if the sender is honest and it is not a self-message.

        The hot path of the observation layer: a few primitive column
        appends, no record-object allocation.
        """
        sender = envelope.sender
        if sender not in self.honest_ids or sender == envelope.recipient:
            return
        kind = type(envelope.payload).__name__
        kind_id = self._kind_ids.get(kind)
        if kind_id is None:
            kind_id = self._intern_kind(kind)
        self._message_times.append(envelope.send_time)
        self._message_senders.append(sender)
        self._message_recipients.append(envelope.recipient)
        self._message_kind_ids.append(kind_id)

    def _intern_kind(self, kind: str) -> int:
        """The id of kind name ``kind``, minted on first sight."""
        if kind not in self._kind_ids:
            self._kind_ids[kind] = len(self._kind_names)
            self._kind_names.append(kind)
        return self._kind_ids[kind]

    def record_decision(self, time: float, view: int, leader: int) -> None:
        """Record that ``leader`` produced a QC for its own view ``view``."""
        honest = leader in self.honest_ids
        index = len(self._decision_times)
        self._decision_times.append(time)
        self._decision_views.append(view)
        self._decision_leaders.append(leader)
        self._decision_honest.append(honest)
        if honest:
            times = self._honest_decision_times
            if times and time < times[-1]:
                # Out-of-order insertion only happens for hand-fed
                # collectors; simulator-driven decisions arrive in time
                # order and take the append path.
                position = bisect.bisect_right(times, time)
                times.insert(position, time)
                self._honest_decision_indices.insert(position, index)
            else:
                times.append(time)
                self._honest_decision_indices.append(index)

    def record_event(self, pid: int, kind: str, value: int, time: float) -> None:
        """Record one protocol event of processor ``pid``: a row of the
        event table (``value`` is the view, or the epoch for epoch-level
        kinds)."""
        kind_id = self._kind_ids.get(kind)
        if kind_id is None:
            kind_id = self._intern_kind(kind)
        self._event_times.append(time)
        self._event_pids.append(pid)
        self._event_kind_ids.append(kind_id)
        self._event_values.append(value)
        if kind == "enter_view":
            self._views_entered[pid] = value

    def record_commit(self, pid: int, view: int, block_id: str, time: float) -> None:
        """Record a block commit at one replica."""
        self._commit_times.append(time)
        self._commit_pids.append(pid)
        self._commit_views.append(view)
        self._commit_block_ids.append(block_id)

    def record_request_submitted(self, pid: int) -> None:
        """Count one client request accepted by a gateway at ``pid`` (the
        benchmark harness's entry point; gateways bump the bag directly)."""
        self.counters.bump("requests_submitted")

    def record_request_applied(
        self, pid: int, submit_time: float, apply_time: float
    ) -> None:
        """Record the end-to-end completion of one client request.

        ``pid`` is the replica whose gateway owned the request; the latency
        is ``apply_time - submit_time`` — submission at the client to first
        application on the owner's copy of the state machine.
        """
        self._request_submit_times.append(submit_time)
        self._request_apply_times.append(apply_time)
        self._request_pids.append(pid)

    # ------------------------------------------------------------------
    # Lazy record materialisation (the pre-columnar public attributes)
    # ------------------------------------------------------------------
    @property
    def messages(self) -> list[MessageRecord]:
        """All honest-sender message records, in send order (fresh list)."""
        kind_names = self._kind_names
        return [
            MessageRecord(time=time, sender=sender, recipient=recipient,
                          kind=kind_names[kind_id])
            for time, sender, recipient, kind_id in zip(
                self._message_times,
                self._message_senders,
                self._message_recipients,
                self._message_kind_ids,
            )
        ]

    def _decision_record(self, index: int) -> DecisionRecord:
        return DecisionRecord(
            time=self._decision_times[index],
            view=self._decision_views[index],
            leader=self._decision_leaders[index],
            leader_honest=bool(self._decision_honest[index]),
        )

    @property
    def decisions(self) -> list[DecisionRecord]:
        """All decision records, in recording order (fresh list)."""
        return [self._decision_record(i) for i in range(len(self._decision_times))]

    @property
    def commits(self) -> Iterator[CommitRecord]:
        """All commit records, in recording order: a fresh iterator that
        builds each record as it is read, never a list of every row."""
        return map(
            CommitRecord,
            self._commit_times, self._commit_pids, self._commit_views, self._commit_block_ids,
        )

    # ------------------------------------------------------------------
    # Queries: messages
    # ------------------------------------------------------------------
    def messages_between(self, start: float, end: float) -> int:
        """Number of honest messages sent in the half-open interval ``[start, end)``.

        ``end`` may be ``float('inf')``.
        """
        lo = bisect.bisect_left(self._message_times, start)
        hi = bisect.bisect_left(self._message_times, end)
        return hi - lo

    def message_kinds_between(self, start: float, end: float) -> dict[str, int]:
        """Honest message counts per payload type in ``[start, end)``.

        Bisects the sorted send-time column to the interval and counts kind
        tokens only inside it, instead of scanning every record per call.
        """
        lo = bisect.bisect_left(self._message_times, start)
        hi = bisect.bisect_left(self._message_times, end)
        id_counts = [0] * len(self._kind_names)
        for kind_id in self._message_kind_ids[lo:hi]:
            id_counts[kind_id] += 1
        return {
            name: count
            for name, count in zip(self._kind_names, id_counts)
            if count
        }

    @property
    def total_honest_messages(self) -> int:
        """Total messages sent by honest processors during the run."""
        return len(self._message_times)

    # ------------------------------------------------------------------
    # Queries: decisions
    # ------------------------------------------------------------------
    def honest_decisions(self) -> list[DecisionRecord]:
        """QCs produced by honest leaders, in time order."""
        return [self._decision_record(i) for i in self._honest_decision_indices]

    def first_honest_decision_after(self, time: float) -> Optional[DecisionRecord]:
        """The paper's ``t*_T``: the first honest-leader QC strictly after ``time``.

        One bisect on the sorted honest-decision-times column (the
        pre-columnar collector scanned every decision per call).
        """
        position = bisect.bisect_right(self._honest_decision_times, time)
        if position == len(self._honest_decision_times):
            return None
        return self._decision_record(self._honest_decision_indices[position])

    def communication_after(self, time: float) -> Optional[int]:
        """The paper's ``W_T``: honest messages between ``time`` and ``t*_time``.

        Returns ``None`` when no honest-leader decision follows ``time`` in
        the run (``t*_T`` would be infinite).
        """
        position = bisect.bisect_right(self._honest_decision_times, time)
        if position == len(self._honest_decision_times):
            return None
        return self.messages_between(time, self._honest_decision_times[position])

    def latency_after(self, time: float) -> Optional[float]:
        """``t*_T - T``, or ``None`` if no honest-leader decision follows ``time``."""
        position = bisect.bisect_right(self._honest_decision_times, time)
        if position == len(self._honest_decision_times):
            return None
        return self._honest_decision_times[position] - time

    def honest_decision_times_after(self, after: float) -> array:
        """Sorted honest-leader decision times at or after ``after`` (an
        ``array("d")`` slice: no float object per row)."""
        position = bisect.bisect_left(self._honest_decision_times, after)
        return self._honest_decision_times[position:]

    def decision_gaps(self, after: float = 0.0) -> list[float]:
        """Gaps between consecutive honest-leader decisions occurring after ``after``."""
        times = self.honest_decision_times_after(after)
        return [later - earlier for earlier, later in zip(times, times[1:])]

    def messages_per_gap(self, after: float = 0.0) -> list[int]:
        """Honest message counts between consecutive honest-leader decisions after ``after``.

        One bisect per decision boundary on the sorted send-time column; the
        pre-columnar implementation paid O(decisions × messages).
        """
        times = self.honest_decision_times_after(after)
        message_times = self._message_times
        boundaries = [bisect.bisect_left(message_times, time) for time in times]
        return [later - earlier for earlier, later in zip(boundaries, boundaries[1:])]

    # ------------------------------------------------------------------
    # Queries: client requests
    # ------------------------------------------------------------------
    @property
    def requests_applied(self) -> int:
        """Client requests completed (applied on their owner's replica)."""
        return len(self._request_apply_times)

    def request_latencies(self, after: float = 0.0) -> array:
        """End-to-end latencies of requests applied at or after ``after``, in
        apply order, as an ``array("d")`` (no float object per row).

        Bisects the sorted apply-time column (mirroring
        :meth:`latency_after`'s columnar style), so warm-up exclusion costs
        one bisect, not a scan.
        """
        lo = bisect.bisect_left(self._request_apply_times, after)
        return array("d", map(
            operator.sub, self._request_apply_times[lo:], self._request_submit_times[lo:]
        ))

    def request_latency_percentile(
        self, quantile: float, after: float = 0.0
    ) -> Optional[float]:
        """The ``quantile``-th request latency (0.5 = p50), or ``None`` if empty."""
        latencies = sorted(self.request_latencies(after))
        if not latencies:
            return None
        index = min(len(latencies) - 1, int(quantile * len(latencies)))
        return latencies[index]

    def requests_applied_between(self, start: float, end: float) -> int:
        """Requests applied in ``[start, end)`` — the throughput numerator."""
        lo = bisect.bisect_left(self._request_apply_times, start)
        hi = bisect.bisect_left(self._request_apply_times, end)
        return hi - lo

    # ------------------------------------------------------------------
    # Queries: protocol events
    # ------------------------------------------------------------------
    def events(self, kind: Optional[str] = None, pid: Optional[int] = None) -> list[EventRecord]:
        """Protocol events in time order, optionally of one ``kind`` and/or
        one ``pid`` (fresh list; ``str()`` of a row renders it)."""
        names = self._kind_names
        rows = zip(self._event_times, self._event_pids, self._event_kind_ids, self._event_values)
        if kind is not None:
            kind_id = self._kind_ids.get(kind, -1)
            rows = itertools.compress(rows, map(kind_id.__eq__, self._event_kind_ids))
        return [
            EventRecord(time, row_pid, names[kind_id], value)
            for time, row_pid, kind_id, value in rows
            if pid is None or row_pid == pid
        ]

    def max_view_entered(self, pid: int) -> int:
        """The highest view ``pid`` has entered (-1 if none recorded)."""
        return self._views_entered.get(pid, -1)

    @property
    def view_entries(self) -> dict[int, "ViewEntries"]:
        """``{pid: [(time, view), ...]}`` of the ``enter_view`` rows, per read:
        each pid's rows a :class:`ViewEntries`, which keeps their row numbers
        and builds a ``(time, view)`` pair only when one is read (the
        benchmark harness under ``benchmarks/ledger/`` reads it; everything
        else reads :meth:`events`)."""
        kind_id = self._kind_ids.get("enter_view", -1)
        pids = self._event_pids
        rows: dict[int, array] = {}
        for row in itertools.compress(
            itertools.count(), map(kind_id.__eq__, self._event_kind_ids)
        ):
            pid = pids[row]
            if pid not in rows:
                rows[pid] = array("I")
            rows[pid].append(row)
        times, views = self._event_times, self._event_values
        return {pid: ViewEntries(times, views, numbers) for pid, numbers in rows.items()}

    def epoch_syncs_after(self, time: float) -> int:
        """Number of distinct epochs for which any honest processor did a heavy sync after ``time``."""
        return len({
            event.value for event in self.events("epoch_sync")
            if event.time >= time and event.pid in self.honest_ids
        })

    def commits_for(self, pid: int) -> list[CommitRecord]:
        """All commits observed at processor ``pid``."""
        return [
            CommitRecord(
                time=self._commit_times[i],
                pid=pid,
                view=self._commit_views[i],
                block_id=self._commit_block_ids[i],
            )
            for i in range(len(self._commit_times))
            if self._commit_pids[i] == pid
        ]

    # ------------------------------------------------------------------
    # Cross-process snapshot / merge
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Picklable snapshot of the rows this collector holds (every row it
        recorded, unless :meth:`drain` handed some over) and its totals.

        The shard half of the multi-process metrics story: each node process
        of a :class:`~repro.runner.process_cluster.LiveCluster` ships its
        collector's rows over the control channel, and the coordinator
        rebuilds one cluster-wide collector with
        :func:`merge_metrics_states`.  ``array`` columns ship as they are
        (a worker sends their raw bytes), commit ids as one packed copy of
        each distinct id (``commit_ids``) and an ``array("I")`` column of
        row → id index (``commit_block_ids``, counting on from the ids of
        earlier drains); the counter bag and its sources ship as one
        :attr:`counts` snapshot (its nonzero names, and any name beyond the
        base ones) plus the keys of the names counted once per key
        (``epoch_keys``), which the merge unites.
        """
        ids: dict[str, int] = {}
        first = self._ids_drained
        rows = array("I", [ids.setdefault(b, first + len(ids)) for b in self._commit_block_ids])
        return {
            "honest_ids": sorted(self.honest_ids),
            **{
                f"{table}_{name}": getattr(self, f"_{table}_{name}")
                for table, names in _TABLES.items()
                for name in names
            },
            "commit_block_ids": rows,
            "commit_ids": PackedDigests(ids),
            "kind_names": list(self._kind_names),
            "views_entered": dict(self._views_entered),
            # The merged bag starts every base name at 0; other names are
            # reported even at zero.
            "counts": {
                name: count for name, count in self.counts.items()
                if count or name not in BASE_COUNTS
            },
            "epoch_keys": self.counters.epoch_keys,
        }

    def drain(self) -> dict:
        """The :meth:`state` of the rows recorded since the last drain; the
        collector then drops them.

        A worker process answers every status round with one, so its tables
        hold one round of rows, and the coordinator appends each drained
        state's columns to the ones before (their commit-id indices count
        on across drains).  Every query reads only the rows still held, so
        only a collector whose rows are appended elsewhere is drained.
        """
        state = self.state()
        self._ids_drained += len(state["commit_ids"])
        for table, names in _TABLES.items():
            for name in names:
                attr = f"_{table}_{name}"
                column = getattr(self, attr)
                setattr(self, attr, array(column.typecode) if isinstance(column, array) else [])
        self._decision_honest = array("b")
        self._honest_decision_times = array("d")
        self._honest_decision_indices = array("q")
        return state


class ViewEntries(Sequence):
    """One pid's ``enter_view`` rows as ``(time, view)`` pairs, read off the
    event columns by row number: a pair is built when it is read, and equals
    a list or tuple of the same pairs."""

    __slots__ = ("_times", "_views", "_rows")

    def __init__(self, times: array, views: array, rows: array) -> None:
        self._times, self._views, self._rows = times, views, rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._rows)))]
        row = self._rows[index]
        return (self._times[row], self._views[row])

    def __iter__(self) -> Iterator[tuple[float, int]]:
        rows = self._rows
        return zip(map(self._times.__getitem__, rows), map(self._views.__getitem__, rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ViewEntries, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


#: The tables merged as columns, by name: their columns, the time column
#: first (``_<table>_<column>`` on a collector, ``<table>_<column>`` in its
#: state).  The message and event tables end in interned kind ids, the
#: commit table in block ids.
_TABLES = {
    "message": ("times", "senders", "recipients", "kind_ids"),
    "event": ("times", "pids", "values", "kind_ids"),
    "decision": ("times", "views", "leaders"),
    "commit": ("times", "pids", "views", "block_ids"),
    "request": ("apply_times", "submit_times", "pids"),
}


def _merge_columns(merged: "MetricsCollector", table: str, shards: list[list]) -> None:
    """Put the shards' ``table`` columns on ``merged`` in time order: one
    shard's are adopted as they are; several are concatenated and, only if
    their rows interleave, stably sorted by time."""
    columns = [functools.reduce(operator.add, parts) for parts in zip(*shards)]
    times = columns[0]
    if any(map(operator.gt, times, itertools.islice(times, 1, None))):
        order = sorted(range(len(times)), key=times.__getitem__)
        columns = [
            array(c.typecode, map(c.__getitem__, order)) if isinstance(c, array)
            else list(map(c.__getitem__, order))
            for c in columns
        ]
    for name, column in zip(_TABLES[table], columns):
        setattr(merged, f"_{table}_{name}", column)


def merge_metrics_states(states: Iterable[dict]) -> "MetricsCollector":
    """Rebuild one :class:`MetricsCollector` from shard :meth:`~MetricsCollector.state` snapshots.

    Every time-keyed table (messages, events, decisions, commits, requests)
    is merged as columns onto one timeline — the shards of a multi-process
    cluster share a monotonic clock origin, so their timestamps are
    directly comparable.  Kind ids are renumbered into the merged
    collector's, commit ids become one ``str`` per block however many
    replicas committed it (read once per distinct id a shard packed, never
    once per commit row), and the honest-decision index is rebuilt in one
    pass.  The sorted-column invariants (bisectable times, the
    honest-decision index) therefore hold on the merged collector exactly as
    they do on a single-process one, and every query answers cluster-wide.
    """
    states = list(states)
    merged = MetricsCollector()
    merged.set_honest(set().union(*(s["honest_ids"] for s in states)))
    if states:
        renumber = [[merged._intern_kind(kind) for kind in s["kind_names"]] for s in states]
        block_ids: dict[str, str] = {}
        for table, names in _TABLES.items():
            shards = []
            for s, kind_ids in zip(states, renumber):
                columns = [s[f"{table}_{name}"] for name in names]
                if names[-1] == "kind_ids" and kind_ids != list(range(len(kind_ids))):
                    columns[-1] = array("h", map(kind_ids.__getitem__, columns[-1]))
                elif names[-1] == "block_ids":
                    ids = [block_ids.setdefault(b, b) for b in s["commit_ids"]]
                    columns[-1] = list(map(ids.__getitem__, columns[-1]))
                shards.append(columns)
            _merge_columns(merged, table, shards)
        honest = merged.honest_ids
        merged._decision_honest = array(
            "b", [leader in honest for leader in merged._decision_leaders]
        )
        merged._honest_decision_indices = array(
            "q", itertools.compress(itertools.count(), merged._decision_honest)
        )
        merged._honest_decision_times = array(
            "d", map(merged._decision_times.__getitem__, merged._honest_decision_indices)
        )

    for s in states:
        # Each pid's rows come from the one shard that hosts it; a fault
        # window two shards saw (the same epoch key) counts once.
        merged._views_entered.update(s["views_entered"])
        merged.counters.add(s["counts"], s["epoch_keys"])
    return merged
