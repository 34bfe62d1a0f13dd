"""Lumiere's view-synchronisation messages.

Three wire messages exist:

* ``ViewMessage`` — "view ``v`` message": the value ``v`` signed by the
  sender, sent to ``lead(v)`` when a processor's local clock reaches the
  initial view ``v`` (O(1) messages per processor per view).
* ``ViewCertificate`` — a threshold signature of ``f+1`` view messages,
  formed and broadcast by the leader (linear per view).
* ``EpochViewMessage`` — "epoch view ``v`` message", broadcast to all
  processors during a heavy epoch synchronisation (quadratic per epoch
  synchronisation, which is the cost Lumiere eliminates in the steady
  state).

Timeout Certificates (``f+1`` epoch-view messages) and Epoch Certificates
(``2f+1`` epoch-view messages) are not separate wire messages: every
processor assembles them locally from the broadcast epoch-view messages it
receives (:class:`repro.consensus.quorum.ShareCollector` counts them).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.threshold import PartialSignature, ThresholdSignature
from repro.pacemakers.base import PacemakerMessage


def view_message_payload(view: int) -> tuple:
    """The signed payload of a view message."""
    return ("lumiere-view", view)


def epoch_view_message_payload(view: int) -> tuple:
    """The signed payload of an epoch-view message."""
    return ("lumiere-epoch-view", view)


@dataclass(frozen=True, slots=True)
class ViewMessage(PacemakerMessage):
    """A processor's signed wish to run initial view ``view``, sent to its leader."""

    view: int
    partial: PartialSignature


@dataclass(frozen=True, slots=True)
class ViewCertificate(PacemakerMessage):
    """A threshold signature of ``f+1`` view messages, broadcast by ``lead(view)``."""

    view: int
    aggregate: ThresholdSignature


@dataclass(frozen=True, slots=True)
class EpochViewMessage(PacemakerMessage):
    """A processor's signed wish to start the epoch beginning at ``view``, broadcast to all."""

    view: int
    partial: PartialSignature
