"""Table 1 of the paper as data.

Each protocol's four asymptotic bounds are expressed as callables of
``(n, f_a, delta_big, delta_small)`` returning the dominant term (without
constants).  The benchmarks use them to sanity-check the
*shape* of measured curves — e.g. that Lumiere's eventual communication per
decision grows linearly in ``f_a`` while LP22's stays quadratic in ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

BoundFn = Callable[[int, int, float, float], float]


@dataclass(frozen=True)
class AsymptoticBound:
    """One asymptotic bound: a human-readable formula plus its dominant term."""

    formula: str
    dominant_term: BoundFn

    def __call__(self, n: int, f_a: int, delta_big: float = 1.0, delta_small: float = 0.1) -> float:
        return self.dominant_term(n, f_a, delta_big, delta_small)


@dataclass(frozen=True)
class ProtocolBounds:
    """The four Table-1 rows for one protocol."""

    protocol: str
    model: str
    worst_case_communication: AsymptoticBound
    eventual_communication: AsymptoticBound
    worst_case_latency: AsymptoticBound
    eventual_latency: AsymptoticBound


PAPER_TABLE1: dict[str, ProtocolBounds] = {
    "cogsworth": ProtocolBounds(
        protocol="cogsworth",
        model="partial synchrony",
        worst_case_communication=AsymptoticBound("O(n^3)", lambda n, f, D, d: n**3),
        eventual_communication=AsymptoticBound(
            "O(n + n * f_a^2)", lambda n, f, D, d: n + n * f**2
        ),
        worst_case_latency=AsymptoticBound("O(n^2 * Delta)", lambda n, f, D, d: n**2 * D),
        eventual_latency=AsymptoticBound(
            "O(f_a^2 * Delta + delta)", lambda n, f, D, d: f**2 * D + d
        ),
    ),
    "lp22": ProtocolBounds(
        protocol="lp22",
        model="partial synchrony",
        worst_case_communication=AsymptoticBound("O(n^2)", lambda n, f, D, d: n**2),
        eventual_communication=AsymptoticBound("O(n^2)", lambda n, f, D, d: n**2),
        worst_case_latency=AsymptoticBound("O(n * Delta)", lambda n, f, D, d: n * D),
        eventual_latency=AsymptoticBound("O(n * Delta)", lambda n, f, D, d: n * D),
    ),
    "fever": ProtocolBounds(
        protocol="fever",
        model="bounded clocks",
        worst_case_communication=AsymptoticBound("O(n^2)", lambda n, f, D, d: n**2),
        eventual_communication=AsymptoticBound(
            "O(n * f_a + n)", lambda n, f, D, d: n * f + n
        ),
        worst_case_latency=AsymptoticBound(
            "O(f_a * Delta + delta)", lambda n, f, D, d: f * D + d
        ),
        eventual_latency=AsymptoticBound(
            "O(f_a * Delta + delta)", lambda n, f, D, d: f * D + d
        ),
    ),
    "lumiere": ProtocolBounds(
        protocol="lumiere",
        model="partial synchrony",
        worst_case_communication=AsymptoticBound("O(n^2)", lambda n, f, D, d: n**2),
        eventual_communication=AsymptoticBound(
            "O(n * f_a + n)", lambda n, f, D, d: n * f + n
        ),
        worst_case_latency=AsymptoticBound("O(n * Delta)", lambda n, f, D, d: n * D),
        eventual_latency=AsymptoticBound(
            "O(f_a * Delta + delta)", lambda n, f, D, d: f * D + d
        ),
    ),
}


def bound_for(protocol: str, measure: str) -> AsymptoticBound:
    """Look up the paper's bound for ``protocol`` and ``measure``.

    ``measure`` is one of ``worst_case_communication``, ``eventual_communication``,
    ``worst_case_latency``, ``eventual_latency``.  Protocol aliases used by the
    registry (``naor-keidar``, ``basic-lumiere``, ``raresync``, ``backoff``) map
    onto the nearest column of the paper's table.
    """
    aliases = {
        "naor-keidar": "cogsworth",
        "naor_keidar": "cogsworth",
        "basic-lumiere": "lp22",
        "basic_lumiere": "lp22",
        "raresync": "lp22",
        "backoff": "cogsworth",
    }
    key = aliases.get(protocol, protocol)
    bounds = PAPER_TABLE1[key]
    return getattr(bounds, measure)
