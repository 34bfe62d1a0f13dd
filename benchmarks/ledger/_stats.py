"""Small order-statistics helpers shared by the ledger's runners and tests."""

from __future__ import annotations

import statistics
from typing import Iterable, Optional, Sequence


def percentile(sorted_values: Sequence[float], quantile: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending sequence (``None`` if empty).

    Same rank rule as ``MetricsCollector.request_latency_percentile``, so a
    number printed here matches one read off the collector.
    """
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, int(quantile * len(sorted_values)))
    return sorted_values[index]


def median(values: Iterable[float]) -> float:
    """Median, 0.0 for an empty input (a layer that did no work)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them.

    One sample has no spread; it is returned three times.
    """
    if len(values) < 2:
        only = values[0] if values else 0.0
        return (only, only, only)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's measure)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def failed_ratio(submitted: int, rejected: int, applied: int) -> float:
    """Share of attempted requests that never applied.

    A refused submission counts as attempted and failed: an open-loop client
    that was turned away missed its latency limit just as surely as one
    whose request was lost.
    """
    attempted = submitted + rejected
    if attempted <= 0:
        return 0.0
    return max(0, attempted - applied) / attempted
