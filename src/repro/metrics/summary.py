"""Summaries of a run in the units the paper reports.

:func:`summarize_run` turns a :class:`~repro.metrics.collector.MetricsCollector`
into a :class:`ComplexitySummary` holding the four Table-1 measures, plus a
few practical extras (decision throughput, heavy-sync count) used by the
examples and benchmarks.

:class:`RunMetrics` is the *serializable* residue of a run: the derived
time-series (honest decision times, per-gap message counts, heavy-sync
events) that every experiment module needs, without the live simulator,
replicas or per-message rows.  It is what crosses process boundaries when a
campaign runs on the process-pool executor, and what the on-disk result
cache stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.collector import MetricsCollector


@dataclass(frozen=True)
class ComplexitySummary:
    """The measured analogue of one Table-1 column for one run."""

    protocol: str
    n: int
    f_actual: int
    gst: float
    delta: float
    #: W_{GST+Delta}: honest messages from GST+Delta to the first honest-leader QC after it.
    worst_case_communication: Optional[int]
    #: t*_GST - GST.
    worst_case_latency: Optional[float]
    #: max over post-warmup decision gaps of honest messages per gap.
    eventual_communication: Optional[int]
    #: max over post-warmup decision gaps of elapsed time per gap.
    eventual_latency: Optional[float]
    #: number of honest-leader decisions in the run.
    decisions: int
    #: distinct epochs heavy-synced after the warm-up point.
    heavy_syncs_after_warmup: int
    #: total honest messages in the run.
    total_messages: int

    def as_row(self) -> dict[str, object]:
        """Flat dict form, convenient for tabular reports."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "f_actual": self.f_actual,
            "worst_comm": self.worst_case_communication,
            "worst_latency": self.worst_case_latency,
            "eventual_comm": self.eventual_communication,
            "eventual_latency": self.eventual_latency,
            "decisions": self.decisions,
            "heavy_syncs": self.heavy_syncs_after_warmup,
            "total_messages": self.total_messages,
        }


@dataclass(frozen=True)
class RunMetrics:
    """Picklable derived metrics of one run, detached from the live system.

    The fields are exactly what the experiment modules (table1, figure1,
    responsiveness, steady_state) compute from a
    :class:`~repro.metrics.collector.MetricsCollector`; keeping them here —
    rather than the collector's raw per-message records — makes the object
    small enough to pickle across a process pool and to store in the result
    cache, while still supporting arbitrary warm-up cutoffs after the fact.
    """

    #: Honest-leader decision times, ascending.
    decision_times: tuple[float, ...]
    #: Honest messages sent between consecutive honest-leader decisions
    #: (``len == len(decision_times) - 1``; entry ``i`` covers the half-open
    #: interval ``[decision_times[i], decision_times[i+1])``).
    gap_message_counts: tuple[int, ...]
    #: Honest heavy epoch synchronisations as ``(time, epoch)`` pairs.
    epoch_sync_events: tuple[tuple[float, int], ...]
    #: Total messages sent by honest processors.
    total_honest_messages: int
    #: Every run total by name, as
    #: :attr:`~repro.metrics.collector.MetricsCollector.counts` reported it
    #: (faults, client path, transport and runtime totals; the same names
    #: on every lane).
    counts: dict[str, int]
    #: End-to-end client-request latencies in apply order (empty without a
    #: workload; requests applied == their number).
    request_latencies: tuple[float, ...]

    # ------------------------------------------------------------------
    # The same queries MetricsCollector answers, evaluated on the residue
    # ------------------------------------------------------------------
    def decision_times_after(self, after: float) -> list[float]:
        """Honest-leader decision times at or after ``after``."""
        return [t for t in self.decision_times if t >= after]

    def decision_gaps(self, after: float = 0.0) -> list[float]:
        """Gaps between consecutive honest-leader decisions after ``after``."""
        times = self.decision_times_after(after)
        return [later - earlier for earlier, later in zip(times, times[1:])]

    def messages_per_gap(self, after: float = 0.0) -> list[int]:
        """Honest message counts between consecutive decisions after ``after``.

        Decision times are ascending, so filtering by ``after`` removes a
        prefix and the surviving consecutive pairs match the precomputed
        per-gap counts.
        """
        skipped = len(self.decision_times) - len(self.decision_times_after(after))
        return list(self.gap_message_counts[skipped:])

    def epoch_syncs_after(self, time: float) -> int:
        """Distinct epochs any honest processor heavy-synced at or after ``time``."""
        return len({epoch for t, epoch in self.epoch_sync_events if t >= time})

    def max_gap(self, after: float = 0.0) -> Optional[float]:
        """Largest decision gap after ``after`` (``None`` with < 2 decisions)."""
        gaps = self.decision_gaps(after)
        return max(gaps) if gaps else None

    def median_gap(self, after: float = 0.0) -> Optional[float]:
        """Median decision gap after ``after`` (``None`` with < 2 decisions)."""
        gaps = sorted(self.decision_gaps(after))
        return gaps[len(gaps) // 2] if gaps else None

    def count(self, name: str) -> int:
        """One run total by name (0 when absent)."""
        return self.counts.get(name, 0)

    @property
    def requests_applied(self) -> int:
        """Client requests completed during the run."""
        return len(self.request_latencies)

    def request_latency_percentile(self, quantile: float) -> Optional[float]:
        """The ``quantile``-th request latency (0.5 = p50), or ``None``."""
        latencies = sorted(self.request_latencies)
        if not latencies:
            return None
        index = min(len(latencies) - 1, int(quantile * len(latencies)))
        return latencies[index]


def extract_run_metrics(metrics: MetricsCollector) -> RunMetrics:
    """Reduce a live collector to its picklable :class:`RunMetrics` residue."""
    times = metrics.honest_decision_times_after(0.0)
    # messages_per_gap bisects each decision boundary once on the sorted
    # send-time column; its consecutive differences are exactly the per-gap
    # counts messages_between would return pairwise.
    return RunMetrics(
        decision_times=tuple(times),
        gap_message_counts=tuple(metrics.messages_per_gap(after=0.0)),
        epoch_sync_events=tuple(
            (event.time, event.value)
            for event in metrics.events("epoch_sync")
            if event.pid in metrics.honest_ids
        ),
        total_honest_messages=metrics.total_honest_messages,
        counts=metrics.counts,
        request_latencies=tuple(metrics.request_latencies()),
    )


def summarize_run(
    metrics: MetricsCollector,
    protocol: str,
    n: int,
    f_actual: int,
    gst: float,
    delta: float,
    warmup_decisions: int = 5,
) -> ComplexitySummary:
    """Compute the Table-1 measures for one finished run.

    ``warmup_decisions`` controls where "eventually" starts: the eventual
    measures are maxima over the decision gaps that begin at or after the
    ``warmup_decisions``-th honest-leader decision following GST.  The paper
    shows Lumiere reaches its steady state within expected O(n*Delta) of GST,
    i.e. within a small constant number of decisions.
    """
    honest_decisions = [d for d in metrics.honest_decisions() if d.time >= gst]
    if len(honest_decisions) > warmup_decisions:
        warmup_time = honest_decisions[warmup_decisions].time
    elif honest_decisions:
        warmup_time = honest_decisions[-1].time
    else:
        warmup_time = gst

    gaps = metrics.decision_gaps(after=warmup_time)
    per_gap_messages = metrics.messages_per_gap(after=warmup_time)

    return ComplexitySummary(
        protocol=protocol,
        n=n,
        f_actual=f_actual,
        gst=gst,
        delta=delta,
        worst_case_communication=metrics.communication_after(gst + delta),
        worst_case_latency=metrics.latency_after(gst),
        eventual_communication=max(per_gap_messages) if per_gap_messages else None,
        eventual_latency=max(gaps) if gaps else None,
        decisions=len(honest_decisions),
        heavy_syncs_after_warmup=metrics.epoch_syncs_after(warmup_time),
        total_messages=metrics.total_honest_messages,
    )
