"""``LiveCluster``: n replicas on the wall clock, inline or one process per shard.

Every wall-clock lane is the same :class:`~repro.runner.shard.Shard`
lifecycle (``bind`` → ``connect`` → ``go`` → ``commits`` → ``stop``) driven
by one cluster class in one of two placements:

* ``"inline"`` — one shard holding every pid, called directly in the
  caller's loop: real sockets, but one GIL, so n nodes' crypto, codec and
  protocol work serialise onto one core.
* ``"process"`` — the multicore lane: one **forked OS process** per shard,
  each with its own asyncio loop and crypto backend, the same calls
  stretched over a control pipe while the parent acts purely as coordinator:

  1. the parent forks one worker per shard (``fork`` is the only start
     method: a worker inherits the coordinator's imports and its
     :class:`~repro.runner.shard.ShardSpec` as live objects, so nothing is
     re-imported or pickled on the way in) with a duplex
     :func:`multiprocessing.Pipe` each; the worker first closes every
     coordinator-side pipe end it inherited (its own and each earlier
     worker's), so that control-pipe EOF stays every worker's signal that
     its coordinator is gone;
  2. each worker builds its stack — the key ceremony is a pure function of
     the config's pids, so every worker mints the same keys — binds and
     reports ``("addresses", {pid: (host, port)})``;
  3. the parent assembles the full address map and broadcasts it back;
     workers connect and report ``("ready",)``;
  4. the parent broadcasts ``("go",)`` and every worker starts its
     replicas — the barrier keeps cross-process start skew at pipe latency
     rather than fork-and-bind latency;
  5. during the run the parent polls ``("status",)`` every
     :data:`STATUS_INTERVAL`; each worker answers with a
     :class:`~repro.runner.shard.ShardReport` of the rows its histories
     gained since the round before (metrics tables, ledger ids, KV
     apply-chain links), which it then drops, with its ledger lengths and
     run totals.  A report crosses as a pickled head, then the raw bytes
     of each bulk value — every metrics column and every packed digest
     sequence — which the parent appends onto that worker's columns.  At
     shutdown it sends ``("stop",)`` and each worker answers with its last
     report (the rows since the last round, plus KV digests, client counts
     and teardown errors) the same way.  A worker therefore holds one
     round of history, and the parent holds the run's columns once.

Both sides wait on the control pipe's file descriptor (the parent also on
the worker's process sentinel), never on a polling sleep.

The coordinator must be single-threaded when it forks: a thread of the
parent does not exist in the child, and a lock it held stays held there
forever.  Nothing under ``repro`` starts a thread; :meth:`LiveCluster.start`
refuses with a configuration error when another :mod:`threading` thread
is alive (a caller's thread pool, say), and CI runs the process-cluster
tests on Python 3.12 with its fork-while-threaded ``DeprecationWarning``
as an error.

Either way the run reduces to one
:class:`~repro.experiments.scenario.RunResult` (:meth:`LiveCluster.result`).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import multiprocessing
import signal
import threading
import time
import traceback
import uuid
from array import array
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.consensus.replica import ReplicaResidue
from repro.crypto.backend import PackedDigests
from repro.experiments.scenario import RunResult, ScenarioConfig, resolve_adversary
from repro.metrics.collector import MetricsCollector, merge_metrics_states
from repro.runner.shard import Node, Shard, ShardReport, ShardSpec
from repro.runtime import (
    DEFAULT_RING_BYTES,
    MonotonicClock,
    create_cluster_rings,
    default_codec,
    destroy_cluster_rings,
)

#: Extra wall-clock seconds a worker outlives its configured duration before
#: self-destructing — the orphan guard for a coordinator that died without
#: sending ``("stop",)``.
WORKER_LIFETIME_MARGIN = 120.0
#: Minimum spacing of the coordinator's status rounds during a run.
STATUS_INTERVAL = 0.05
#: Wall seconds a worker may take to answer each bootstrap step.
BOOTSTRAP_TIMEOUT = 120.0


async def _readable(fds: Sequence[int], timeout: float) -> None:
    """Return once any of ``fds`` is readable (a control pipe with a
    message or at EOF, a process sentinel of a worker that exited), or
    after ``timeout`` seconds, without blocking the event loop."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()

    def wake() -> None:
        if not ready.done():
            ready.set_result(None)

    for fd in fds:
        loop.add_reader(fd, wake)
    try:
        await asyncio.wait((ready,), timeout=max(timeout, 0.0))
    finally:
        for fd in fds:
            loop.remove_reader(fd)


class _Column(NamedTuple):
    """A bulk value of a report head — an ``array`` column, or packed
    digests (typecode :data:`_DIGESTS`) — whose raw bytes follow the head."""

    typecode: str
    #: Items of an ``array``; bytes of packed digests.
    length: int


#: The :class:`_Column` typecode of a :class:`~repro.crypto.backend.PackedDigests`.
_DIGESTS = "digests"


def _send_report(conn, report: ShardReport, kind: str = "result") -> None:
    """Send ``report`` as the message ``(kind, head)`` — the report with
    every bulk value (each ``array`` column of its metrics state, each
    ``PackedDigests`` there and in its replicas' residues) swapped for a
    :class:`_Column` — and then every bulk value's raw bytes, in order, so
    no pickled copy of them is built."""
    bulk: list = []

    def head(value):
        if isinstance(value, array):
            bulk.append(value)
            return _Column(value.typecode, len(value))
        if isinstance(value, PackedDigests):
            bulk.append(value.data)
            return _Column(_DIGESTS, len(value.data))
        return value

    conn.send((kind, dataclasses.replace(
        report,
        metrics_state={name: head(value) for name, value in report.metrics_state.items()},
        replicas={pid: type(r)(*map(head, r)) for pid, r in report.replicas.items()},
    )))
    for data in bulk:
        conn.send_bytes(data)


class _LostRows(EOFError):
    """A bulk value of a report that did not arrive whole."""


def _recv_onto(conn, buffer, nbytes: int) -> Optional[int]:
    """Receive the next message onto the end of ``buffer`` (an ``array`` or
    a ``bytearray``), grown by ``nbytes`` for it first; the bytes received
    (``None`` at end of file)."""
    start = len(buffer) * getattr(buffer, "itemsize", 1)
    if isinstance(buffer, array):
        buffer.frombytes(bytes(nbytes))
    else:
        buffer.extend(bytes(nbytes))
    try:
        return conn.recv_bytes_into(buffer, start)
    except multiprocessing.BufferTooShort as error:
        return len(error.args[0])
    except (EOFError, OSError):
        return None


def _receive_columns(
    conn, head: ShardReport, into: Optional[ShardReport] = None
) -> ShardReport:
    """The report ``head`` announces, its bulk values read off ``conn`` in
    the order :func:`_send_report` sent them, appended onto the columns of
    ``into`` (the reports before it, appended in place; fresh columns
    without it).  Every other value of ``head`` replaces the one in
    ``into`` (totals are as of the newest report); teardown errors add up.

    A bulk value that arrives short, too long or not at all raises
    :class:`_LostRows` naming it, with the bytes expected and received,
    after every column is cut back to its rows before this report.
    """
    grown: list = []

    def fill(where: str, value, column):
        if not isinstance(value, _Column):
            return value
        if value.typecode == _DIGESTS:
            if column is None:
                column = PackedDigests.from_bytes(bytearray())
            buffer, nbytes = column.data, value.length
        else:
            if column is None:
                column = array(value.typecode)
            buffer, nbytes = column, value.length * column.itemsize
        grown.append((buffer, len(buffer)))
        received = _recv_onto(conn, buffer, nbytes)
        if received != nbytes:
            got = "end of file" if received is None else f"{received} bytes"
            raise _LostRows(f"{where}: expected {nbytes} bytes, received {got}")
        return column

    state = into.metrics_state if into is not None else {}
    residues = into.replicas if into is not None else {}
    try:
        state = {
            **state,
            **{
                name: fill(f"table {name.split('_')[0]} column {name}", value, state.get(name))
                for name, value in head.metrics_state.items()
            },
        }
        residues = dict(residues)
        for pid, residue in head.replicas.items():
            held = residues.get(pid)
            residues[pid] = type(residue)(*(
                fill(f"replica {pid} {name}", value, None if held is None else getattr(held, name))
                for name, value in zip(residue._fields, residue)
            ))
    except _LostRows:
        for buffer, length in grown:
            del buffer[length:]
        raise
    return ShardReport(
        metrics_state=state,
        replicas=residues,
        teardown_errors=(into.teardown_errors if into is not None else ()) + head.teardown_errors,
        commits=head.commits,
    )


def _share_prefixes(residues: dict[int, ReplicaResidue]) -> dict[int, ReplicaResidue]:
    """``residues`` with each ledger and KV apply chain that is a prefix of
    the longest one among them read off that one's buffer (its own let go):
    co-located replicas commit one chain, so a worker's are mostly one."""
    shared = dict(residues)
    for field in ("ledger", "kv_chain"):
        longest = max((getattr(r, field).data for r in shared.values()), key=len, default=b"")
        for pid, residue in shared.items():
            data = getattr(residue, field).data
            if data is not longest and longest.startswith(data):
                shared[pid] = residue._replace(
                    **{field: PackedDigests.from_bytes(longest, len(data))}
                )
    return shared


@contextlib.contextmanager
def _full_gc_counted(counters):
    """While open, count every full (generation 2) collection and its
    microseconds into ``counters`` as ``gc_full_passes`` / ``gc_full_us``
    (both reported, even at zero)."""
    started = 0.0

    def hook(phase: str, info: dict) -> None:
        nonlocal started
        if info["generation"] != 2:
            return
        if phase == "start":
            started = time.perf_counter()
        else:
            counters.bump("gc_full_passes")
            counters.bump("gc_full_us", round((time.perf_counter() - started) * 1e6))

    counters.bump("gc_full_passes", 0)
    counters.bump("gc_full_us", 0)
    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)


# ----------------------------------------------------------------------
# Worker side (runs in the forked process)
# ----------------------------------------------------------------------
async def _pipe_recv(conn, timeout: float):
    """Await the next control message without blocking the event loop."""
    if not conn.poll():
        await _readable((conn.fileno(),), timeout)
        if not conn.poll():
            raise TimeoutError("control-channel message timed out")
    return conn.recv()


async def _serve_shard(spec: ShardSpec, conn) -> None:
    """Drive one :class:`Shard` from the coordinator's control messages."""
    lifetime = spec.config.duration + WORKER_LIFETIME_MARGIN
    shard = Shard(spec)
    conn.send(("addresses", await shard.bind()))
    kind, peers = await _pipe_recv(conn, timeout=lifetime)
    assert kind == "peers", f"unexpected bootstrap message {kind!r}"
    await shard.connect(peers)
    conn.send(("ready",))
    kind, = await _pipe_recv(conn, timeout=lifetime)
    assert kind == "go", f"unexpected bootstrap message {kind!r}"
    shard.go()

    # Serve the control channel until told to stop (or until the orphan
    # guard fires).  Replicas run entirely on the shard's kernel and its
    # transports' I/O callbacks; this coroutine only answers status probes.
    loop = asyncio.get_running_loop()
    deadline = loop.time() + lifetime
    stopping = False
    with _full_gc_counted(shard.stack.metrics.counters):
        while not stopping and loop.time() < deadline:
            await _readable((conn.fileno(),), deadline - loop.time())
            try:
                while conn.poll():
                    message = conn.recv()
                    if message[0] == "status":
                        _send_report(conn, shard.report(), "status")
                    elif message[0] == "stop":
                        stopping = True
                        break
            except (EOFError, OSError):
                stopping = True  # coordinator went away: tear down and exit

    report = await shard.stop()
    try:
        _send_report(conn, report)
    except (BrokenPipeError, OSError):
        pass  # coordinator already gone; nothing left to report to


def _shard_worker(spec: ShardSpec, conn, inherited: Sequence) -> None:
    """Fork target: run the shard, ship errors instead of dying silently.

    ``inherited`` are the coordinator-side pipe ends the fork copied into
    this process (this worker's own and every earlier worker's).  They are
    closed first: while any copy stays open, a coordinator that dies or
    closes its end leaves that worker's pipe without EOF.  SIGINT goes back
    to the interpreter's default handler: the inherited one may be bound to
    the coordinator's event loop (``asyncio.run`` installs such a handler).
    """
    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        asyncio.run(_serve_shard(spec, conn))
    except Exception:  # noqa: BLE001 - crossing a process boundary
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Worker:
    """Coordinator-side handle for one forked shard."""

    index: int
    pids: tuple[int, ...]
    process: Any
    conn: Any
    alive: bool = True
    #: Every report taken so far, appended into one (None before the first).
    history: Optional[ShardReport] = None
    #: Reports taken (status rounds, then the stop report).
    rounds: int = 0
    #: Whether the stop report arrived.
    reported: bool = False
    commits: dict[int, int] = dataclasses.field(default_factory=dict)

    def __str__(self) -> str:
        return f"worker {self.index} (pids {self.pids})"


def partition(pids: Sequence[int], shards: int) -> list[list[int]]:
    """Contiguous near-equal shards of ``pids``, every shard non-empty."""
    base, extra = divmod(len(pids), shards)
    out, cursor = [], 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(list(pids[cursor:cursor + size]))
        cursor += size
    return out


class LiveCluster:
    """An n-replica cluster on the wall clock, inline or one process per shard.

    Build one with :func:`repro.runner.live.make_live_cluster`, which
    validates the lane and documents the options.  Both placements expose
    ``start`` / ``run`` / ``run_until_commits`` / ``stop`` /
    ``min_committed`` / ``result`` and the safety queries; the differences
    are inherent to the process boundary:

    * inline, ``nodes`` / ``replicas`` / ``metrics`` are the live objects
      from :meth:`start` on, and the queries answer at any time.  Under
      process placement ``nodes`` stays empty, ``metrics`` holds the
      *merged* cluster-wide collector only after :meth:`stop` (the workers'
      rows arrive every status round and are merged onto one timeline
      there), and the queries need :meth:`stop` first;
    * under process placement :meth:`min_committed` refreshes at the
      status-poll cadence.

    ``config.n``, ``pacemaker``, ``delta``, ``seed``, ``crypto_backend`` and
    a named ``scenario``/``delay_model`` are honoured (``actual_delay`` is
    real network latency now, so it is ignored).
    """

    def __init__(
        self,
        config: ScenarioConfig,
        placement: str = "inline",
        host: str = "127.0.0.1",
        processes: Optional[int] = None,
        transport: str = "tcp",
        teardown_timeout: float = 30.0,
    ) -> None:
        self.config = config
        self.placement = placement
        self.processes = min(processes, config.n) if processes is not None else config.n
        self.teardown_timeout = teardown_timeout
        #: The spec of a shard holding every pid; workers get a slice of it.
        self.spec = ShardSpec(
            config=config, pids=tuple(range(config.n)), clock_origin=time.monotonic(),
            host=host, transport=transport,
        )
        # Every node speaks frames.  The wire tables, and the message modules
        # they import, are built once here, before start(): forked workers
        # inherit them and compile nothing after the fork.
        default_codec()
        #: The cluster's timeline (every shard's clock shares its origin).
        self.clock = MonotonicClock(origin=self.spec.clock_origin)
        #: The inline shard's nodes by pid (empty under process placement).
        self.nodes: dict[int, Node] = {}
        #: Inline: the live collector.  Process: the merged cluster-wide
        #: collector, populated by :meth:`stop`.  Every run total is a name
        #: in its ``counts``.
        self.metrics = MetricsCollector()
        #: Errors surfaced during teardown: transport ``last_errors`` from
        #: every node, plus coordinator-observed worker failures (crashes,
        #: missing reports, non-zero exit codes).
        self.teardown_errors: list[str] = []
        #: Per-pid residues the workers shipped (assembled at :meth:`stop`).
        self._shipped: dict[int, ReplicaResidue] = {}
        self._corruption = None  # resolved by the coordinator at start()
        self._local: Optional[Shard] = None  # the inline shard
        self._workers: list[_Worker] = []
        self._segments: list = []  # parent-owned shm ring segments
        self._started = False
        self._stopped = False
        self._status_due = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind servers, exchange addresses, build and start all replicas."""
        if self._started:
            return
        if self.placement == "inline":
            shard = Shard(self.spec)
            addresses = await shard.bind()
            await shard.connect(addresses)
            self._local = shard
            self.nodes = shard.nodes
            self.metrics = shard.stack.metrics
            shard.go()
        else:
            # The coordinator holds no replicas, so it resolves the config
            # (for summaries and the honest set) without building a stack.
            _, _, self._corruption = resolve_adversary(self.config)
            await self._fork_workers(self.spec.pids)
        self._started = True

    async def _fork_workers(self, pids: Sequence[int]) -> None:
        """Fork one worker per shard and run the address/ready/go dance."""
        if threading.active_count() > 1:
            raise ConfigurationError(
                "process placement forks its workers, but this process runs "
                f"{threading.active_count() - 1} other thread(s): a fork copies "
                "only the calling thread, so a lock another thread holds would "
                "stay held in every worker — start the cluster from a "
                "single-threaded process"
            )
        ctx = multiprocessing.get_context("fork")
        shm_token = None
        shards = tuple(tuple(shard) for shard in partition(pids, self.processes))
        if self.spec.transport == "shm":
            # The parent creates every (sender, reading worker) ring segment
            # before the first worker exists and remains their sole owner;
            # workers only attach by the deterministic names the token implies.
            shm_token = uuid.uuid4().hex[:12]
            self._segments = create_cluster_rings(shm_token, shards, DEFAULT_RING_BYTES)
        try:
            for index, shard in enumerate(shards):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                spec = dataclasses.replace(
                    self.spec, pids=shard, shm_token=shm_token, shards=shards
                )
                inherited = (parent_conn, *(worker.conn for worker in self._workers))
                process = ctx.Process(
                    target=_shard_worker, args=(spec, child_conn, inherited), daemon=True,
                    name=f"repro-shard-{index}",
                )
                process.start()
                child_conn.close()
                self._workers.append(
                    _Worker(index=index, pids=shard, process=process, conn=parent_conn)
                )
            addresses: dict[int, tuple[str, int]] = {}
            for worker in self._workers:
                addresses.update((await self._expect(worker, "addresses", "during bootstrap"))[1])
            for worker in self._workers:
                worker.conn.send(("peers", addresses))
            for worker in self._workers:
                await self._expect(worker, "ready", "before start")
            for worker in self._workers:
                worker.conn.send(("go",))
        except Exception:
            self._terminate_all()
            self._release_segments()
            raise

    async def _expect(self, worker: _Worker, kind: str, phase: str) -> tuple:
        """The worker's next bootstrap message, which must be a ``kind``."""
        message = await self._recv(worker, timeout=BOOTSTRAP_TIMEOUT)
        if message is not None and message[0] == kind:
            return message
        if message is not None and message[0] == "error":
            reason = f"worker raised:\n{message[1]}"
        elif not worker.process.is_alive():
            reason = f"process died (exit code {worker.process.exitcode})"
        else:
            reason = "bootstrap timed out"
        raise SimulationError(f"{worker} failed {phase}: {reason}")

    async def run(
        self,
        duration: float,
        stop_when: Optional[Callable[["LiveCluster"], bool]] = None,
        poll: float = 0.02,
    ) -> None:
        """Run for ``duration`` wall seconds (or until ``stop_when(cluster)``).

        Replicas run on their shards' kernels and transport I/O; this
        coroutine only waits.  Under process placement the predicate sees
        the freshest per-node ledger lengths the workers reported.
        """
        await self.start()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + duration
        while True:
            await self._refresh_status()
            if stop_when is not None and stop_when(self):
                return
            remaining = deadline - loop.time()
            if remaining <= 0:
                return
            if self._workers and not any(worker.alive for worker in self._workers):
                return  # every worker died; nothing left to wait for
            await asyncio.sleep(min(poll, remaining))

    async def run_until_commits(
        self, blocks: int, timeout: float, poll: float = 0.02
    ) -> int:
        """Run until every ledger holds ``blocks`` commits (or ``timeout``
        wall seconds); returns the final minimum ledger length."""
        await self.run(
            timeout, stop_when=lambda c: c.min_committed() >= blocks, poll=poll
        )
        return self.min_committed()

    async def stop(self) -> None:
        """Stop every shard and fold the reports into the result surface.

        Never hangs on a crashed worker: reports are awaited under
        ``teardown_timeout`` and stragglers are terminated, with the
        failure recorded in :attr:`teardown_errors` rather than raised —
        a dead node is data, not an excuse to lose the others' results.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._local is not None:
            self.teardown_errors.extend((await self._local.stop()).teardown_errors)
            return
        await self._stop_workers()
        # A worker lost before its stop report still leaves the rows of the
        # rounds it answered.  Its history is let go as it is read: the
        # residues share their prefixes first, so the merge has that room.
        states = []
        for worker in self._workers:
            if worker.history is not None:
                self._shipped.update(_share_prefixes(worker.history.replicas))
                self.teardown_errors.extend(worker.history.teardown_errors)
                states.append(worker.history.metrics_state)
            worker.history = None
        self.metrics = merge_metrics_states(states)

    async def _stop_workers(self) -> None:
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    worker.alive = False
        for worker in self._workers:
            worker.reported = await self._await_report(worker)
        for worker in self._workers:
            worker.process.join(timeout=self.teardown_timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
                self.teardown_errors.append(f"{worker}: did not exit; terminated")
            elif not worker.reported:
                self.teardown_errors.append(
                    f"{worker}: exited with code {worker.process.exitcode} "
                    f"without its stop report (rows of {worker.rounds} rounds kept)"
                )
            worker.conn.close()
        self._release_segments()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> dict[int, Any]:
        """All local replicas by pid (empty under process placement)."""
        return self._local.replicas if self._local is not None else {}

    # Cluster totals the benchmark harness under benchmarks/ledger/ reads by
    # attribute; everything else reads metrics.counts.
    @property
    def frames_dropped(self) -> int:
        """Frames lost to exhausted connect windows or full rings,
        cluster-wide: ``metrics.counts["frames_dropped"]``."""
        return self.metrics.counts["frames_dropped"]

    @property
    def events_processed(self) -> int:
        """Every shard kernel's events, summed:
        ``metrics.counts["events_processed"]``."""
        return self.metrics.counts["events_processed"]

    def min_committed(self) -> int:
        """Shortest known ledger across the cluster.

        Under process placement this has status-poll freshness: nodes whose
        worker died report their last known length, and a cluster that has
        not completed its first status round reports 0.
        """
        if self._local is not None:
            commits = self._local.commits()
        else:
            commits = {}
            for worker in self._workers:
                commits.update(worker.commits)
        if len(commits) < self.config.n:
            return 0
        return min(commits.values())

    def result(self) -> RunResult:
        """The run as a :class:`~repro.experiments.scenario.RunResult`.

        Inline it wraps the live replicas and is available from
        :meth:`start` on; under process placement it wraps what the workers
        shipped and needs :meth:`stop` first.
        """
        if self._local is not None:
            stack = self._local.stack
            return RunResult(
                config=self.config,
                protocol_config=stack.protocol_config,
                metrics=stack.metrics,
                replicas=self.replicas,
                corruption=stack.corruption,
                crypto_backend=stack.crypto_backend,
            )
        if not self._stopped or self._corruption is None:
            raise SimulationError(
                "no result yet: an inline cluster has one from start() on, a "
                "process cluster once stop() has collected the workers' "
                "ledgers and KV state (use min_committed() for live progress)"
            )
        return RunResult(
            config=self.config,
            protocol_config=self.config.protocol_config(),
            metrics=self.metrics,
            replicas={},
            corruption=self._corruption,
            shipped=dict(self._shipped),
        )

    def ledgers_are_consistent(self) -> bool:
        """Safety: honest ledgers are pairwise prefix-consistent."""
        return self.result().ledgers_are_consistent()

    def kv_consistent(self) -> bool:
        """State-machine safety: honest apply chains are prefix-consistent."""
        return self.result().kv_consistent()

    def kv_digests(self) -> dict[int, str]:
        """Per-pid KV state digests (empty without a client workload)."""
        return self.result().kv_digests()

    # ------------------------------------------------------------------
    # Coordinator internals
    # ------------------------------------------------------------------
    async def _recv(self, worker: _Worker, timeout: float):
        """Next message from a worker, or ``None`` if it died/timed out."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while worker.alive:
            try:
                if worker.conn.poll():
                    return worker.conn.recv()
                if not worker.process.is_alive():
                    # Dead and the pipe is drained: nothing more will come.
                    worker.alive = False
                    return None
            except (EOFError, OSError):
                worker.alive = False
                return None
            remaining = deadline - loop.time()
            if remaining <= 0:
                return None
            await _readable((worker.conn.fileno(), worker.process.sentinel), remaining)
        return None

    async def _refresh_status(self) -> None:
        """One status round across the alive workers, rate-limited."""
        loop = asyncio.get_running_loop()
        if not self._workers or loop.time() < self._status_due:
            return
        self._status_due = loop.time() + STATUS_INTERVAL
        polled = []
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("status",))
                polled.append(worker)
            except (BrokenPipeError, OSError):
                worker.alive = False
                self.teardown_errors.append(
                    f"{worker}: control channel broke mid-run after round "
                    f"{worker.rounds} (exit code {worker.process.exitcode}); "
                    "the rows of earlier rounds are kept"
                )
        for worker in polled:
            # Workers answer within one of their poll cycles; a short wait
            # keeps a wedged worker from stalling the coordinator's run loop
            # (a late answer is taken, in order, by a later round or stop).
            message = await self._recv(worker, timeout=1.0)
            if message is None:
                if not worker.alive:
                    self.teardown_errors.append(
                        f"{worker}: died mid-run after round {worker.rounds} (exit code "
                        f"{worker.process.exitcode}); the rows of earlier rounds are kept"
                    )
            elif message[0] == "status":
                self._take(worker, message[1])
            elif message[0] == "error":
                worker.alive = False
                self.teardown_errors.append(f"{worker}: {message[1]}")

    def _take(self, worker: _Worker, head: ShardReport) -> bool:
        """Append the report ``head`` announces onto ``worker``'s history;
        ``False``, with a teardown error naming what was lost, when its rows
        did not arrive whole (the worker then counts as lost: its pipe is
        out of step)."""
        worker.rounds += 1
        try:
            worker.history = _receive_columns(worker.conn, head, worker.history)
        except _LostRows as lost:
            worker.alive = False
            self.teardown_errors.append(
                f"{worker}: round {worker.rounds} lost ({lost}); "
                "the rows of earlier rounds are kept"
            )
            return False
        worker.commits.update(head.commits)
        return True

    async def _await_report(self, worker: _Worker) -> bool:
        """Take a worker's reports up to its ``("result", ...)``; whether
        that arrived whole."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.teardown_timeout
        while loop.time() < deadline:
            message = await self._recv(worker, timeout=max(deadline - loop.time(), 0.01))
            if message is None:
                break
            if message[0] in ("status", "result"):
                # A late status answer carries rows too.
                if not self._take(worker, message[1]):
                    return False
                if message[0] == "result":
                    return True
            elif message[0] == "error":
                self.teardown_errors.append(f"{worker}: {message[1]}")
                return False
        return False

    def _terminate_all(self) -> None:
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()

    def _release_segments(self) -> None:
        """Unlink the parent-owned shm ring segments (idempotent).

        Safe while workers are still attached — unlinking removes the name,
        existing mappings stay valid until each worker closes its own.
        """
        if self._segments:
            destroy_cluster_rings(self._segments)
            self._segments = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopped else ("running" if self._started else "new")
        return (
            f"LiveCluster(n={self.config.n}, {self.placement}, {state}, "
            f"min_committed={self.min_committed()}, "
            f"frames_dropped={self.frames_dropped}, "
            f"teardown_errors={len(self.teardown_errors)})"
        )
