"""The picklable outcome of one campaign cell.

A :class:`RunRecord` is everything a campaign keeps from a finished run
(:meth:`RunRecord.from_result`, on any lane): the swept parameter
values, the Table-1 :class:`~repro.metrics.summary.ComplexitySummary`, the
derived :class:`~repro.metrics.summary.RunMetrics` time-series, and a few
safety/accounting scalars.  It contains no live objects — no simulator,
replicas or collector — so it crosses process-pool boundaries cheaply and
round-trips through JSON for the on-disk result cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from repro.metrics.summary import ComplexitySummary, RunMetrics


@dataclass(frozen=True)
class RunRecord:
    """One executed (or cache-recovered) campaign cell."""

    #: Stable human-readable id: ``campaign-name[field=value,...]``.
    run_id: str
    #: Content hash of the expanded configuration + code version (cache key).
    key: str
    #: The parameter point this cell was expanded from (swept + fixed values).
    params: dict[str, Any]
    #: The four Table-1 measures at the standard warm-up.
    summary: ComplexitySummary
    #: Derived time-series supporting arbitrary warm-up cutoffs.
    metrics: RunMetrics
    #: Length of the longest honest ledger at the end of the run.
    committed_blocks: int
    #: Highest view any honest replica entered.
    max_honest_view: int
    #: Safety check: honest ledgers pairwise prefix-consistent.
    ledgers_consistent: bool
    #: Simulator (or live-runtime) events executed during the run.
    events_processed: int
    #: Wall-clock seconds spent building and running the scenario.  Cached records keep
    #: the wall time of the execution that originally produced them.
    wall_time: float
    #: Whether this record was recovered from the result cache.
    cached: bool = False

    @classmethod
    def from_result(
        cls, result: Any, run_id: str, key: str, params: dict[str, Any], wall_time: float
    ) -> "RunRecord":
        """Reduce a finished run on any lane (a
        :class:`~repro.experiments.scenario.RunResult`) to its record."""
        return cls(
            run_id=run_id,
            key=key,
            params=params,
            summary=result.summary(),
            metrics=result.run_metrics(),
            committed_blocks=result.committed_blocks(),
            max_honest_view=result.max_honest_view(),
            ledgers_consistent=result.ledgers_are_consistent(),
            events_processed=result.events_processed,
            wall_time=wall_time,
        )

    @property
    def decisions(self) -> int:
        """Honest-leader decisions over the whole run."""
        return len(self.metrics.decision_times)

    # ------------------------------------------------------------------
    # JSON round trip (used by the on-disk result cache)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """A JSON-serializable dict capturing the full record."""
        return {
            "run_id": self.run_id,
            "key": self.key,
            "params": self.params,
            "summary": dataclasses.asdict(self.summary),
            "metrics": {
                "decision_times": list(self.metrics.decision_times),
                "gap_message_counts": list(self.metrics.gap_message_counts),
                "epoch_sync_events": [list(pair) for pair in self.metrics.epoch_sync_events],
                "total_honest_messages": self.metrics.total_honest_messages,
                "counts": self.metrics.counts,
                "request_latencies": list(self.metrics.request_latencies),
            },
            "committed_blocks": self.committed_blocks,
            "max_honest_view": self.max_honest_view,
            "ledgers_consistent": self.ledgers_consistent,
            "events_processed": self.events_processed,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record previously produced by :meth:`to_json_dict`."""
        metrics_data = data["metrics"]
        return cls(
            run_id=data["run_id"],
            key=data["key"],
            params=dict(data["params"]),
            summary=ComplexitySummary(**data["summary"]),
            metrics=RunMetrics(
                decision_times=tuple(metrics_data["decision_times"]),
                gap_message_counts=tuple(metrics_data["gap_message_counts"]),
                epoch_sync_events=tuple(
                    (time, epoch) for time, epoch in metrics_data["epoch_sync_events"]
                ),
                total_honest_messages=metrics_data["total_honest_messages"],
                counts=dict(metrics_data["counts"]),
                request_latencies=tuple(metrics_data["request_latencies"]),
            ),
            committed_blocks=data["committed_blocks"],
            max_honest_view=data["max_honest_view"],
            ledgers_consistent=data["ledgers_consistent"],
            events_processed=data["events_processed"],
            wall_time=data["wall_time"],
            cached=True,
        )

    def rebound(self, run_id: str, params: dict[str, Any]) -> "RunRecord":
        """A copy bound to another campaign cell with the same content key."""
        return dataclasses.replace(self, run_id=run_id, params=params)
