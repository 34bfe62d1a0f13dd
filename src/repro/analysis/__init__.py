"""Analytical companions to the measurements.

:mod:`repro.analysis.table1` provides the closed-form asymptotic bounds of
Table 1 (as Python callables) so that the benchmarks can
place measured values next to the bound they are supposed to track, and
:mod:`repro.analysis.fitting` provides small curve-fitting helpers used to
check that measured scaling matches the predicted exponent.
"""

from repro.analysis.table1 import (
    PAPER_TABLE1,
    AsymptoticBound,
    ProtocolBounds,
    bound_for,
)
from repro.analysis.fitting import estimate_exponent, growth_ratio

__all__ = [
    "AsymptoticBound",
    "PAPER_TABLE1",
    "ProtocolBounds",
    "bound_for",
    "estimate_exponent",
    "growth_ratio",
]
