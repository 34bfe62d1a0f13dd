"""A re-export of :class:`~repro.runtime.transports.Envelope`, kept for the
benchmark harness under ``benchmarks/ledger/``, which imports it from here.
The network model lives in :mod:`repro.faults.delays`."""

from repro.runtime.transports import Envelope

__all__ = ["Envelope"]
