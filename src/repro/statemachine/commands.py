"""Client commands and their compact batch encoding.

A command is the unit of client work the replicated state machine applies:
``(client, seq, op, key, value)``.  ``(client, seq)`` is the exactly-once
identity — clients number their commands from 0 and never reuse a number,
so any two occurrences of the same pair (a batch re-forwarded to a new
leader after a failed view, a retry racing an in-flight proposal) are the
*same* request and must mutate the store once.

Batches cross the wire many times (proposal broadcast, QC announce,
forward, re-forward), so commands are encoded **once**, at batch-build
time, into a single varint-packed blob; every later hop memcpys the blob
(the wire codec's bytes tag), and decoding happens exactly once per
replica — at apply time.  The format is LEB128 uvarints for ``client``,
``seq`` and string lengths, one op byte, and UTF-8 key/value bytes:

``uvarint count || (uvarint client, uvarint seq, op byte,
uvarint len || key, uvarint len || value)*``

The blob is deliberately independent of the wire codec: the same bytes
ride inside wire frames (bytes tag) and block digests
(``canonical_bytes`` passes ``bytes`` through untouched).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

#: Operation codes.  The vocabulary is intentionally tiny: a replicated KV
#: only needs writes to be interesting (reads never enter the ledger).
OP_PUT = 0
OP_DELETE = 1

_OPS = (OP_PUT, OP_DELETE)


class Command(NamedTuple):
    """One client request: a write against the replicated key-value store."""

    #: Globally unique client id (load generators mint ``pid + n * k``).
    client: int
    #: Per-client sequence number, from 0, never reused.
    seq: int
    #: :data:`OP_PUT` or :data:`OP_DELETE`.
    op: int
    #: Key to mutate.
    key: str
    #: Value to store (ignored by deletes).
    value: str


def _pack_uvarint(value: int, out: bytearray) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _unpack_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_commands(commands: Iterable[Command]) -> bytes:
    """Encode a sequence of commands into one compact blob (done once)."""
    commands = list(commands)
    out = bytearray()
    _pack_uvarint(len(commands), out)
    for command in commands:
        _pack_uvarint(command.client, out)
        _pack_uvarint(command.seq, out)
        out.append(command.op)
        key = command.key.encode("utf-8")
        _pack_uvarint(len(key), out)
        out += key
        value = command.value.encode("utf-8")
        _pack_uvarint(len(value), out)
        out += value
    return bytes(out)


def decode_commands(blob: bytes) -> tuple[Command, ...]:
    """Decode a blob back into commands (done once per replica, at apply)."""
    count, pos = _unpack_uvarint(blob, 0)
    commands = []
    for _ in range(count):
        client, pos = _unpack_uvarint(blob, pos)
        seq, pos = _unpack_uvarint(blob, pos)
        op = blob[pos]
        pos += 1
        if op not in _OPS:
            raise ValueError(f"unknown command op {op}")
        length, pos = _unpack_uvarint(blob, pos)
        key = blob[pos : pos + length].decode("utf-8")
        pos += length
        length, pos = _unpack_uvarint(blob, pos)
        value = blob[pos : pos + length].decode("utf-8")
        pos += length
        commands.append(Command(client, seq, op, key, value))
    if pos != len(blob):
        raise ValueError(f"command blob has {len(blob) - pos} trailing bytes")
    return tuple(commands)
