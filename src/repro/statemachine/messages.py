"""Client-path wire messages.

These ride the same transports and wire codec as consensus traffic, but
the replica routes them to the client path (mempool ingest), never to the
consensus engine or pacemaker — see ``Replica.on_message``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ClientMessage:
    """Base class for client-path traffic (dispatch marker, like
    ``ConsensusMessage`` / ``PacemakerMessage``)."""


@dataclass(frozen=True, slots=True)
class CommandBatch:
    """A batch of client commands, encoded once into a compact blob.

    ``data`` is the :func:`repro.statemachine.commands.encode_commands`
    encoding of ``count`` commands.  The batch travels as an opaque byte
    string through forwards, proposals and QC announces — the leader never
    re-encodes it and replicas decode it exactly once, at apply time.
    ``canonical_bytes`` passes ``bytes`` through untouched, so batches
    inside a block payload digest without any special-casing.
    """

    count: int
    data: bytes


@dataclass(frozen=True, slots=True)
class CommandForward(ClientMessage):
    """A batch forwarded from a request gateway to the replica that proposes
    next but one (the leader of the sender's ``current_view + 2``).  The
    recipient queues it only while a proposal of its own is still coming;
    the sender stays the owner and re-dispatches what does not commit."""

    batch: CommandBatch
