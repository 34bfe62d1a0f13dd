"""Outside-in timing spans around the public entry points of each layer.

Nothing in ``src/`` knows about tracing.  A traced run calls
:meth:`Tracer.install` *before* the cluster or scenario is built; it swaps
the layer entry points for wrappers that record one span per call —
``name, start, end, parent`` plus an optional request id and an optional
boundary count — into in-memory primitive columns.  Everything is
single-threaded (one asyncio loop or one simulator), so "the span that was
open when this one started" is the span that caused it: call nesting is the
cause.

A layer's **self time** is its spans' duration minus the part their child
spans cover, so self times are disjoint and their shares of the run sum to
at most 100 %; the remainder is code no wrapper reaches (consensus engine
and pacemaker bodies, the event loop or simulator kernel, asyncio itself).

End-to-end numbers always come from untraced runs; the traced run exists
for the per-layer numbers, and ``trace.overhead_ratio`` says what the
wrappers cost.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Any, Callable, Optional, Sequence

_NO_REQUEST = -1


def request_id(client: int, seq: int) -> int:
    """One integer per ``(client, seq)`` identity, shared by a request's spans."""
    return (client << 32) | seq


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> list[int]:
    """Per-span self time: duration minus the children's durations.

    ``parents[i]`` is the index of the span open when span ``i`` started
    (``-1`` for a root).  Children never outlive their parent — wrappers
    close in ``finally`` — so a child's whole duration lies inside it.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    return [duration - child for duration, child in zip(durations, covered)]


class Tracer:
    """Span columns, boundary counters and the install/uninstall machinery."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.request = array("q")
        #: Boundary count of the call (bytes framed, commands flushed, …).
        self.value = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        #: The lane's own clock (virtual seconds in a simulation, seconds
        #: since cluster start when live).  Queue waits are stamped with it
        #: so they mean the same thing a request latency does.
        self.lane_now: Callable[[], float] = time.perf_counter
        #: ``Mempool.ingest`` -> ``next_batch`` of the same batch, lane seconds.
        self.mempool_waits = array("d")
        self._mempool_ingested: dict[int, float] = {}
        #: ``RequestGateway.submit`` -> the flush that forwarded it, lane seconds.
        self.gateway_waits = array("d")
        self._gateway_buffered: dict[int, list[float]] = {}
        #: Commands re-offered by ``retry_outstanding`` (wasted work).
        self.gateway_reoffered = 0
        self._flushed = 0
        self._accepted_before = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name(self, label: str) -> int:
        name_id = self._name_ids.get(label)
        if name_id is None:
            name_id = self._name_ids[label] = len(self.names)
            self.names.append(label)
        return name_id

    def wrap(
        self,
        fn: Callable,
        label: str,
        request_of: Optional[Callable[[tuple], int]] = None,
        value_of: Optional[Callable[[Any, tuple], int]] = None,
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable:
        """A wrapper around ``fn`` recording one span per call.

        ``before``/``after`` are bookkeeping hooks (queue-wait stamps); they
        run inside the span so their cost is charged to the traced layer,
        never to its caller.
        """
        name_id = self._name(label)
        names, starts, ends = self.name_id, self.start_ns, self.end_ns
        parents, requests, values = self.parent, self.request, self.value
        stack = self._stack
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(_NO_REQUEST if request_of is None else request_of(args))
            values.append(0)
            ends.append(0)
            stack.append(index)
            starts.append(now())
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if value_of is not None:
                    values[index] = value_of(result, args)
                if after is not None:
                    after(result, args)
                return result
            finally:
                ends[index] = now()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch_method(self, cls: type, attr: str, label: str, **hooks) -> None:
        if attr not in vars(cls):
            return  # inherited: the defining class is patched instead
        original = vars(cls)[attr]
        if getattr(original, "__isabstractmethod__", False):
            return
        setattr(cls, attr, self.wrap(original, label, **hooks))
        self._restore.append((cls, attr, original))

    def _patch_function(self, original: Callable, label: str, **hooks) -> None:
        """Swap a module-level function everywhere ``repro`` bound it by name."""
        wrapper = self.wrap(original, label, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self) -> "Tracer":
        """Wrap every layer entry point.  Call before building the system:
        bound methods captured at wiring time (``send_listeners``,
        ``on_apply``) must already resolve to the wrappers."""
        from repro.consensus.mempool import Mempool
        from repro.core.certificates import CertificateCollector, EpochMessageCollector
        from repro.crypto.threshold import ThresholdScheme
        from repro.metrics.collector import MetricsCollector
        from repro.runner.workload import RequestGateway
        from repro.runtime.codec import BinaryWireCodec, WireCodec
        from repro.runtime.shm import ShmTransport
        from repro.runtime.tcp import TcpTransport
        from repro.runtime.transports import LocalTransport, Transport
        from repro.statemachine import commands
        from repro.statemachine.kvstore import ReplicatedKV

        for cls in (WireCodec, BinaryWireCodec):
            self._patch_method(cls, "encode_frame", "codec.encode_frame")
            self._patch_method(
                cls, "encode_into", "codec.encode_into",
                value_of=lambda result, args: result,
            )
            self._patch_method(
                cls, "decode_body", "codec.decode_body",
                value_of=lambda result, args: len(args[1]),
            )
        for cls, layer in (
            (TcpTransport, "tcp"), (ShmTransport, "shm"),
            (LocalTransport, "local"), (Transport, "transport"),
        ):
            self._patch_method(cls, "send", f"{layer}.send")
            self._patch_method(cls, "broadcast", f"{layer}.broadcast")
        for attr in ("partial_sign", "combine", "verify"):
            self._patch_method(ThresholdScheme, attr, f"crypto.{attr}")
        self._patch_method(CertificateCollector, "add", "core.certificate_add")
        self._patch_method(EpochMessageCollector, "add", "core.epoch_message_add")
        self._patch_method(
            Mempool, "ingest", "consensus.mempool_ingest",
            value_of=lambda result, args: args[1].count if result else 0,
            before=self._before_ingest, after=self._after_ingest,
        )
        self._patch_method(
            Mempool, "next_batch", "consensus.mempool_next_batch",
            value_of=_batch_commands, after=self._after_next_batch,
        )
        self._patch_function(
            commands.encode_commands, "statemachine.encode_commands",
            value_of=lambda result, args: len(args[0]),
        )
        self._patch_function(
            commands.decode_commands, "statemachine.decode_commands",
            value_of=lambda result, args: len(result),
        )
        self._patch_method(
            ReplicatedKV, "catch_up", "statemachine.catch_up",
            value_of=lambda result, args: result,
        )
        self._patch_method(
            RequestGateway, "submit", "gateway.submit",
            request_of=lambda args: request_id(args[1].client, args[1].seq),
            value_of=lambda result, args: 1 if result else 0,
            before=self._before_submit, after=self._after_submit,
        )
        self._patch_method(
            RequestGateway, "flush", "gateway.flush",
            value_of=self._flush_count, before=self._before_flush,
        )
        self._patch_method(
            RequestGateway, "retry_outstanding", "gateway.retry_outstanding",
            after=self._after_retry,
        )
        self._patch_method(
            RequestGateway, "on_applied", "gateway.on_applied",
            request_of=lambda args: request_id(args[1].client, args[1].seq),
        )
        self._patch_method(MetricsCollector, "on_send", "metrics.on_send")
        return self

    def uninstall(self) -> None:
        """Put every original back (reverse order, so double patches unwind)."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Queue-wait hooks
    # ------------------------------------------------------------------
    def _before_ingest(self, args: tuple) -> None:
        self._accepted_before = args[0].accepted

    def _after_ingest(self, result: bool, args: tuple) -> None:
        # ``ingest`` also returns True for a blob that is already queued and
        # is then dropped; only a bump of ``accepted`` means "queued".  The
        # queue holds this very object until next_batch pops it, so its id
        # is a stable key for exactly that long.
        if args[0].accepted > self._accepted_before:
            self._mempool_ingested[id(args[1])] = self.lane_now()

    def _after_next_batch(self, batches: tuple, args: tuple) -> None:
        if not self._mempool_ingested:
            return
        now = self.lane_now()
        for batch in batches:
            ingested = self._mempool_ingested.pop(id(batch), None)
            if ingested is not None:
                self.mempool_waits.append(now - ingested)

    def _before_submit(self, args: tuple) -> None:
        # Stamped before the call: a submit that fills the buffer flushes
        # from inside, and that flush must already see this command.
        self._gateway_buffered.setdefault(id(args[0]), []).append(self.lane_now())

    def _after_submit(self, accepted: bool, args: tuple) -> None:
        if not accepted:
            buffered = self._gateway_buffered.get(id(args[0]))
            if buffered:
                buffered.pop()  # refused: never entered the buffer

    def _before_flush(self, args: tuple) -> None:
        buffered = self._gateway_buffered.get(id(args[0]))
        if buffered:
            now = self.lane_now()
            self.gateway_waits.extend(now - stamped for stamped in buffered)
            self._flushed = len(buffered)
            buffered.clear()
        else:
            self._flushed = 0

    def _flush_count(self, result: Any, args: tuple) -> int:
        return self._flushed

    def _after_retry(self, result: Any, args: tuple) -> None:
        self.gateway_reoffered += args[0].outstanding

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, dict[str, int]]:
        """Per span name: ``count``, ``total_ns``, ``self_ns`` and ``value``
        (the boundary counts summed).  Spans still open are skipped."""
        selfs = self_times(self.start_ns, self.end_ns, self.parent)
        table = {
            name: {"count": 0, "total_ns": 0, "self_ns": 0, "value": 0}
            for name in self.names
        }
        rows = [table[name] for name in self.names]
        for index, name_id in enumerate(self.name_id):
            end = self.end_ns[index]
            if not end:
                continue
            row = rows[name_id]
            row["count"] += 1
            row["total_ns"] += end - self.start_ns[index]
            row["self_ns"] += selfs[index]
            row["value"] += self.value[index]
        return table

    def child_value_by_parent(self, child: str) -> dict[str, int]:
        """Sum of ``child`` spans' boundary counts, keyed by the name of the
        span that caused them (``""`` for roots) — e.g. bytes framed under
        ``tcp.broadcast`` versus under ``tcp.send``."""
        child_id = self._name_ids.get(child)
        totals: dict[str, int] = {}
        if child_id is None:
            return totals
        for index, name_id in enumerate(self.name_id):
            if name_id != child_id:
                continue
            parent = self.parent[index]
            key = self.names[self.name_id[parent]] if parent >= 0 else ""
            totals[key] = totals.get(key, 0) + self.value[index]
        return totals

    def write(self, path: str, meta: dict) -> None:
        """Dump the columns as one JSON document (see README, "Reading a trace")."""
        document = {
            "meta": meta,
            "names": self.names,
            "columns": {
                "name_id": self.name_id.tolist(),
                "start_ns": self.start_ns.tolist(),
                "end_ns": self.end_ns.tolist(),
                "parent": self.parent.tolist(),
                "request": self.request.tolist(),
                "value": self.value.tolist(),
            },
            "stats": self.stats(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _batch_commands(batches: tuple, args: tuple) -> int:
    """Client commands in a ``next_batch`` result (0 for synthetic filler)."""
    # Synthetic filler items are ``(owner, seq)`` tuples, not batches.
    return sum(batch.count for batch in batches if not isinstance(batch, tuple))


def layer_of(name: str) -> str:
    """``"codec.encode_into"`` -> ``"codec"``."""
    return name.split(".", 1)[0]


def layer_self_ns(stats: dict[str, dict[str, int]]) -> dict[str, int]:
    """Self time per layer, summed over the layer's span names."""
    totals: dict[str, int] = {}
    for name, row in stats.items():
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0) + row["self_ns"]
    return totals
