"""The wire format: protocol payloads <-> length-prefixed frames.

Every wire message in the library is a frozen dataclass tree over a small
closed vocabulary of value shapes — primitives, tuples, frozensets and
nested registered dataclasses — so the codec is a structural walk, not
pickle: only classes explicitly registered (or auto-registered from the
message modules) can cross a socket, and a frame naming an unknown class is
rejected.  Tuples and frozensets survive the round trip as themselves,
which matters because block payloads are tuples and threshold-signature
signer sets are frozensets whose cached hash the verification fast path
relies on.

A frame is ``4-byte big-endian length || body`` and the body is
``svarint sender || packed payload``, a compact tag-byte encoding in the
``struct``/msgpack idiom: one tag byte per value, varint lengths and
integers, 8-byte IEEE floats, and registered dataclasses as a numeric class
id followed by their field values *positionally* (no field names on the
wire).  The class id is the registration ordinal, so both ends must
register the same classes in the same order — which holds by construction
for :func:`default_codec`.  Each registered class has a *plan*: a packer
and an unpacker generated for that class, fields unrolled, built
positionally, the common field shapes inline (:func:`_compile_class`).  A
plan is compiled on its class's first frame, so importing this module or
building a codec compiles nothing, and a class never sent (a pacemaker the
run does not use) is never compiled.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
import types
from typing import Any, Callable, Iterable, Optional

from repro.errors import ConfigurationError

#: Frame length prefix: 4 bytes, big-endian, body length only.
LENGTH_PREFIX_BYTES = 4

#: Upper bound on a single frame body (64 MiB); a peer announcing more is
#: malformed or hostile and the connection is dropped instead of buffering.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WireCodecError(ConfigurationError):
    """A payload (or frame) could not be encoded or decoded."""


class FrameMemo:
    """Decoded frame bodies by their exact bytes, for the transports of one
    process that decode with one codec.

    A codec never consults it — :meth:`WireCodec.decode_body` always
    decodes.  The TCP transports do
    (:meth:`~repro.runtime.transports.FramedTransport._decode`; a shm
    worker's drain decodes each frame once for all its recipients), and only
    while :attr:`sharers` says more than one of them is running on this
    codec in this process: then the frame of a broadcast arrives once per
    co-located recipient and all of them can be handed one decoded,
    immutable payload.  Keys are whole bodies (sender included), so two
    frames share an entry only if they are the same frame — an equivocating
    sender's two proposals never do.  Values only ever come out of
    ``decode_body``: a sender's own object is never filed under its frame,
    so what co-located recipients share is what the bytes say and nothing a
    co-located (possibly Byzantine) sender attached to its copy.

    Bounded as two generations of :attr:`BOUND` ``// 2`` entries: a full
    young generation retires the old one wholesale, so remembering a frame
    is O(1) and a frame stays findable for at least ``BOUND // 2`` later
    ones — recipients of one broadcast drain it within a few dozen frames of
    each other.  The last sharer to leave empties it: a payload caches what
    was derived from it under one run's crypto backend (``Block.block_id``)
    and must not be served to the next run.
    """

    #: Most frames remembered at once.
    BOUND = 512

    __slots__ = ("sharers", "lookups", "_young", "_old")

    def __init__(self) -> None:
        #: Running transports of this process that decode with the codec.
        self.sharers = 0
        #: Times a transport asked (hits and misses alike).
        self.lookups = 0
        self._young: dict[bytes, tuple[int, Any]] = {}
        self._old: dict[bytes, tuple[int, Any]] = {}

    def attach(self) -> None:
        """A transport started on the codec."""
        self.sharers += 1

    def detach(self) -> None:
        """A transport stopped; the last one out clears the memo."""
        self.sharers -= 1
        if self.sharers <= 0:
            self.sharers = 0
            self._young, self._old = {}, {}

    def get(self, body: bytes) -> Optional[tuple[int, Any]]:
        """The remembered ``(sender, payload)`` of ``body``, or ``None``."""
        self.lookups += 1
        decoded = self._young.get(body)
        if decoded is None:
            decoded = self._old.get(body)
        return decoded

    def put(self, body: bytes, decoded: tuple[int, Any]) -> None:
        """Remember ``decoded`` as the value of ``body``."""
        if len(self._young) >= self.BOUND // 2:
            self._old, self._young = self._young, {}
        self._young[body] = decoded

    def __len__(self) -> int:
        return len(self._young) + len(self._old)


# ----------------------------------------------------------------------
# Value tags
# ----------------------------------------------------------------------
# One tag byte per value.  Varints are unsigned LEB128; signed integers are
# zigzag-mapped first so small negatives stay one byte.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_FSET = 0x09
_T_DICT = 0x0A
_T_CLASS = 0x0B

_FLOAT_STRUCT = struct.Struct(">d")
_PREFIX_STRUCT = struct.Struct(">I")


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


def _zigzag(value: int) -> int:
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return value >> 1 if not value & 1 else -(value + 1) >> 1


class WireCodec:
    """Encode/decode registered dataclass trees as length-prefixed frames.

    The registry is the ordered list of registered classes: a class's index
    in it is its numeric wire id, and its plan — one packer and one
    unpacker with the fields unrolled (:func:`_compile_class`), compiled
    when the class is first packed or unpacked — encodes a dataclass as
    ``CLASS tag || varint id || field values``.  **Registration order is
    part of the wire format**: peers decode ids against their own
    registration sequence, so every node of a cluster must register the
    same classes in the same order (:func:`default_codec` guarantees this
    for the library's own messages; custom messages must be registered
    identically on every node, after the defaults).
    """

    def __init__(self) -> None:
        #: What co-located transports share of this codec's decoding.
        self.frames = FrameMemo()
        # wire id -> registered class, and -> its compiled unpacker.
        self._classes: list[type] = []
        self._by_id: list[Callable[[Any, int], tuple[Any, int]]] = []
        # Per-instance exact-type dispatch: primitives from the shared table
        # plus one compiled packer per registered class, so the hottest shape
        # (a registered message) packs without an isinstance ladder.
        self._packers: dict[type, Callable[["WireCodec", Any, bytearray], None]] = dict(
            _PACKERS
        )

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, cls: type) -> type:
        """Allow ``cls`` (a dataclass) on the wire under the next wire id.

        Returns ``cls`` (decorator-friendly); registering a class twice
        keeps its first id.
        """
        if not dataclasses.is_dataclass(cls):
            raise WireCodecError(f"{cls!r} is not a dataclass; cannot register")
        if cls not in self._packers:
            wire_id = len(self._by_id)

            # Placeholders in the dispatch tables: the first call compiles
            # the plan into the tables (the plans look entries up at call
            # time, so every later frame goes straight to the compiled one).
            def pack_first(codec: WireCodec, value: Any, out: bytearray) -> None:
                self._compile(cls, wire_id)
                self._packers[cls](codec, value, out)

            def unpack_first(buf: Any, pos: int) -> tuple[Any, int]:
                self._compile(cls, wire_id)
                return self._by_id[wire_id](buf, pos)

            self._packers[cls] = pack_first
            self._by_id.append(unpack_first)
            self._classes.append(cls)
        return cls

    def _compile(self, cls: type, wire_id: int) -> None:
        """Put ``cls``'s compiled plan in the dispatch tables."""
        self._packers[cls], self._by_id[wire_id] = _compile_class(self, cls, wire_id)

    def register_all(self, classes: Iterable[type]) -> None:
        """Register every class in ``classes``, in order."""
        for cls in classes:
            self.register(cls)

    @property
    def registered_classes(self) -> tuple[type, ...]:
        """Every registered class in wire-id order."""
        return tuple(self._classes)

    @property
    def registered_names(self) -> list[str]:
        """Sorted names of all registered classes."""
        return sorted(cls.__name__ for cls in self._classes)

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def encode_frame(self, sender: int, payload: Any) -> bytes:
        """One wire frame: length prefix plus body."""
        out = bytearray()
        self.encode_into(sender, payload, out)
        return bytes(out)

    def encode_into(self, sender: int, payload: Any, out: bytearray) -> int:
        """Append one frame to ``out``; return its length.

        The zero-copy twin of :meth:`encode_frame`: the frame lands directly
        in the caller's buffer — a TCP writer's coalesced batch or a
        shared-memory ring staging area — with no intermediate body buffer.
        Reserves the 4-byte length prefix, packs sender and payload straight
        into ``out``, then patches the prefix in place — the body bytes are
        written exactly once.  Appended bytes are identical to
        :meth:`encode_frame`'s return value.
        """
        start = len(out)
        out += b"\x00\x00\x00\x00"
        _pack_uvarint(_zigzag(sender), out)
        packer = self._packers.get(payload.__class__)
        if packer is not None:
            packer(self, payload, out)  # a message: its class plan
        else:
            self._pack_other(payload, out)
        body_len = len(out) - start - LENGTH_PREFIX_BYTES
        if body_len > MAX_FRAME_BYTES:
            del out[start:]
            raise WireCodecError(f"frame of {body_len} bytes exceeds MAX_FRAME_BYTES")
        _PREFIX_STRUCT.pack_into(out, start, body_len)
        return LENGTH_PREFIX_BYTES + body_len

    def decode_body(self, body: bytes) -> tuple[int, Any]:
        """Decode a frame body (without prefix) into ``(sender, payload)``.

        ``body`` may be any bytes-like object — in particular a
        ``memoryview`` over a shared-memory ring, so frames decode in place
        without being copied out first.  Anything but exactly one sender and
        one value raises :class:`WireCodecError`.
        """
        try:
            raw_sender = body[0]
            pos = 1
            if raw_sender > 0x7F:
                raw_sender, pos = _unpack_uvarint(body, 0)
            if body[pos] == _T_CLASS and (wire_id := body[pos + 1]) < 0x80 and (
                wire_id < len(self._by_id)
            ):
                # A message: straight into its class plan.
                payload, pos = self._by_id[wire_id](body, pos + 2)
            else:
                payload, pos = self._unpack_value(body, pos)
        except WireCodecError:
            raise
        except Exception as exc:
            raise WireCodecError(f"malformed frame body: {exc}") from exc
        if pos != len(body):
            raise WireCodecError(
                f"malformed frame body: {len(body) - pos} trailing bytes"
            )
        return _unzigzag(raw_sender), payload

    # ------------------------------------------------------------------
    # Value packing
    # ------------------------------------------------------------------
    def _pack_value(self, value: Any, out: bytearray) -> None:
        packer = self._packers.get(type(value))
        if packer is not None:
            packer(self, value, out)
            return
        self._pack_other(value, out)

    def _pack_other(self, value: Any, out: bytearray) -> None:
        """Generic path: builtin subclasses; anything else cannot cross a wire."""
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            # A registered class has a compiled packer in the dispatch table.
            raise WireCodecError(
                f"{type(value)!r} is not registered with this codec; "
                "register it before sending it over a wire transport"
            )
        elif isinstance(value, bool):
            out.append(_T_TRUE if value else _T_FALSE)
        elif isinstance(value, int):
            out.append(_T_INT)
            _pack_uvarint(_zigzag(value), out)
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out += _FLOAT_STRUCT.pack(value)
        elif isinstance(value, str):
            _pack_str(self, value, out)
        elif isinstance(value, bytes):
            _pack_bytes(self, value, out)
        elif isinstance(value, tuple):
            _pack_tuple(self, value, out)
        elif isinstance(value, list):
            _pack_list(self, value, out)
        elif isinstance(value, frozenset):
            _pack_fset(self, value, out)
        elif isinstance(value, dict):
            _pack_dict(self, value, out)
        else:
            raise WireCodecError(
                f"cannot encode value of type {type(value)!r} for the wire"
            )

    # ------------------------------------------------------------------
    # Value unpacking
    # ------------------------------------------------------------------
    def _unpack_value(self, buf: bytes, pos: int) -> tuple[Any, int]:
        tag = buf[pos]
        pos += 1
        if tag == _T_STR:
            length, pos = _unpack_uvarint(buf, pos)
            end = pos + length
            if end > len(buf):
                raise WireCodecError("malformed frame body: truncated string")
            # str(..., "utf-8") decodes bytes and memoryview slices alike.
            return str(buf[pos:end], "utf-8"), end
        if tag == _T_INT:
            raw, pos = _unpack_uvarint(buf, pos)
            return _unzigzag(raw), pos
        if tag == _T_CLASS:
            wire_id, pos = _unpack_uvarint(buf, pos)
            if wire_id >= len(self._by_id):
                raise WireCodecError(f"unknown wire class id {wire_id}")
            return self._by_id[wire_id](buf, pos)
        if tag == _T_TUPLE:
            return self._unpack_tuple(buf, pos)
        if tag == _T_LIST or tag == _T_FSET:
            count, pos = _unpack_uvarint(buf, pos)
            unpack = self._unpack_value
            items = []
            for _ in range(count):
                item, pos = unpack(buf, pos)
                items.append(item)
            if tag == _T_LIST:
                return items, pos
            return frozenset(items), pos
        if tag == _T_DICT:
            count, pos = _unpack_uvarint(buf, pos)
            unpack = self._unpack_value
            result = {}
            for _ in range(count):
                key, pos = unpack(buf, pos)
                value, pos = unpack(buf, pos)
                result[key] = value
            return result, pos
        if tag == _T_NONE:
            return None, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_FLOAT:
            end = pos + 8
            if end > len(buf):
                raise WireCodecError("malformed frame body: truncated float")
            return _FLOAT_STRUCT.unpack_from(buf, pos)[0], end
        if tag == _T_BYTES:
            length, pos = _unpack_uvarint(buf, pos)
            end = pos + length
            if end > len(buf):
                raise WireCodecError("malformed frame body: truncated bytes")
            return bytes(buf[pos:end]), end
        raise WireCodecError(f"malformed frame body: unknown tag 0x{tag:02x}")

    def _unpack_tuple(self, buf: bytes, pos: int) -> tuple[tuple, int]:
        """A tuple, ``pos`` just past its tag: registered classes through
        their plans, integers and nested tuples (a block's filler) inline,
        any other item through :meth:`_unpack_value`."""
        count, pos = _unpack_uvarint(buf, pos)
        unpackers = self._by_id
        items = []
        for _ in range(count):
            tag = buf[pos]
            if tag == _T_CLASS and (wire_id := buf[pos + 1]) < 0x80 and (
                wire_id < len(unpackers)
            ):
                item, pos = unpackers[wire_id](buf, pos + 2)
            elif tag == _T_INT:
                item, pos = _unpack_uvarint(buf, pos + 1)
                item = item >> 1 if not item & 1 else -(item + 1) >> 1
            elif tag == _T_TUPLE:
                item, pos = self._unpack_tuple(buf, pos + 1)
            else:
                item, pos = self._unpack_value(buf, pos)
            items.append(item)
        return tuple(items), pos


def _pack_str(codec: WireCodec, value: str, out: bytearray) -> None:
    encoded = value.encode("utf-8")
    out.append(_T_STR)
    _pack_uvarint(len(encoded), out)
    out += encoded


def _pack_bytes(codec: WireCodec, value: bytes, out: bytearray) -> None:
    out.append(_T_BYTES)
    _pack_uvarint(len(value), out)
    out += value


def _pack_items(codec: WireCodec, items: Iterable[Any], out: bytearray) -> None:
    """Pack each item by its exact type's packer (the walker's own
    dispatch, without a call through it per item)."""
    packers = codec._packers
    for item in items:
        packer = packers.get(item.__class__)
        if packer is not None:
            packer(codec, item, out)
        else:
            codec._pack_other(item, out)


def _pack_tuple(codec: WireCodec, value: tuple, out: bytearray) -> None:
    out.append(_T_TUPLE)
    _pack_uvarint(len(value), out)
    _pack_items(codec, value, out)


def _pack_list(codec: WireCodec, value: list, out: bytearray) -> None:
    out.append(_T_LIST)
    _pack_uvarint(len(value), out)
    _pack_items(codec, value, out)


def _pack_fset(codec: WireCodec, value: frozenset, out: bytearray) -> None:
    # Sorted where possible so identical sets encode identically; decode
    # order is irrelevant to equality.
    try:
        items = sorted(value)
    except TypeError:
        items = list(value)
    out.append(_T_FSET)
    _pack_uvarint(len(items), out)
    _pack_items(codec, items, out)


def _pack_dict(codec: WireCodec, value: dict, out: bytearray) -> None:
    out.append(_T_DICT)
    _pack_uvarint(len(value), out)
    pack = codec._pack_value
    for key, item in value.items():
        pack(key, out)
        pack(item, out)


# Exact-type dispatch for the hot shapes; subclasses fall through to the
# isinstance ladder in ``_pack_other`` (same trick as the canonicaliser in
# ``repro.crypto.backend``).
_PACKERS: dict[type, Callable[[WireCodec, Any, bytearray], None]] = {
    type(None): lambda codec, value, out: out.append(_T_NONE),
    bool: lambda codec, value, out: out.append(_T_TRUE if value else _T_FALSE),
    int: lambda codec, value, out: (
        out.append(_T_INT),
        _pack_uvarint(_zigzag(value), out),
    )[0],
    float: lambda codec, value, out: (
        out.append(_T_FLOAT),
        out.__iadd__(_FLOAT_STRUCT.pack(value)),
    )[0],
    str: _pack_str,
    bytes: _pack_bytes,
    tuple: _pack_tuple,
    list: _pack_list,
    frozenset: _pack_fset,
    dict: _pack_dict,
}


# ----------------------------------------------------------------------
# Compiled class plans
# ----------------------------------------------------------------------
# ``WireCodec.register`` turns each class into one packer and one
# unpacker with its fields unrolled, generated from the templates below the
# way ``dataclasses`` generates ``__init__``.  Each field gets the inline
# fast path its annotation suggests.  Packing inlines an exact ``int``
# (views, signer ids) or ``str`` (digests) and hands any other value to its
# exact type's packer: a registered class's plan, or a container packer
# that dispatches its items the same way.  Unpacking inlines those two plus
# ``bytes`` (command blobs), ``tuple`` (block payloads: items through their
# class plans), ``frozenset`` of small ints (signer sets) and a nested
# registered class or ``None``.  Anything else — another value, a
# multi-byte length, a class id past 127 — takes the generic walker.  The
# annotation only picks which test comes first, so the templates add no
# format rule of their own: same bytes out, same values and rejections in.
_PACK_FIELD = {
    "int": """\
    v = value.{name}
    if v.__class__ is int:
        v = v * 2 if v >= 0 else -v * 2 - 1
        out.append({INT})
        if v < 128:
            out.append(v)
        else:
            put_uvarint(v, out)
    else:
        codec._pack_value(v, out)
""",
    "str": """\
    v = value.{name}
    if v.__class__ is str:
        v = v.encode("utf-8")
        out.append({STR})
        if len(v) < 128:
            out.append(len(v))
        else:
            put_uvarint(len(v), out)
        out += v
    else:
        codec._pack_value(v, out)
""",
    "class": """\
    v = value.{name}
    p = packers.get(v.__class__)
    if p is not None:
        p(codec, v, out)
    else:
        codec._pack_other(v, out)
""",
}

_UNPACK_FIELD = {
    "int": """\
    if buf[pos] == {INT}:
        v{i} = buf[pos + 1]
        if v{i} < 128:
            pos += 2
        else:
            v{i}, pos = get_uvarint(buf, pos + 1)
        v{i} = v{i} >> 1 if not v{i} & 1 else -(v{i} + 1) >> 1
    else:
        v{i}, pos = unpack(buf, pos)
""",
    "str": """\
    if buf[pos] == {STR} and buf[pos + 1] < 128:
        pos += 2
        end = pos + buf[pos - 1]
        if end > len(buf):
            raise WireCodecError("malformed frame body: truncated string")
        v{i} = str(buf[pos:end], "utf-8")
        pos = end
    else:
        v{i}, pos = unpack(buf, pos)
""",
    "bytes": """\
    if buf[pos] == {BYTES}:
        end, pos = get_uvarint(buf, pos + 1)
        end += pos
        if end > len(buf):
            raise WireCodecError("malformed frame body: truncated bytes")
        v{i} = bytes(buf[pos:end])
        pos = end
    else:
        v{i}, pos = unpack(buf, pos)
""",
    "tuple": """\
    if buf[pos] == {TUPLE}:
        v{i}, pos = unpack_tuple(buf, pos + 1)
    else:
        v{i}, pos = unpack(buf, pos)
""",
    "frozenset": """\
    if buf[pos] == {FSET}:
        count, pos = get_uvarint(buf, pos + 1)
        items = []
        for _ in range(count):
            if buf[pos] == {INT} and (item := buf[pos + 1]) < 128:
                pos += 2
                items.append(item >> 1 if not item & 1 else -(item + 1) >> 1)
            else:
                item, pos = unpack(buf, pos)
                items.append(item)
        v{i} = frozenset(items)
    else:
        v{i}, pos = unpack(buf, pos)
""",
    "class": """\
    if buf[pos] == {CLASS} and (k := buf[pos + 1]) < 128 and k < len(unpackers):
        v{i}, pos = unpackers[k](buf, pos + 2)
    elif buf[pos] == {NONE}:
        v{i} = None
        pos += 1
    else:
        v{i}, pos = unpack(buf, pos)
""",
}

_TAGS = {
    "INT": _T_INT, "STR": _T_STR, "BYTES": _T_BYTES, "TUPLE": _T_TUPLE,
    "FSET": _T_FSET, "CLASS": _T_CLASS, "NONE": _T_NONE,
}


def _field_shape(annotation: Any) -> str:
    """The template a field's annotation picks (``"class"`` for anything
    that is not one of the inline shapes)."""
    name = getattr(annotation, "__name__", annotation)
    if name in ("int", "str", "bytes", "tuple"):
        return name
    if isinstance(name, str) and name.startswith("frozenset"):
        return "frozenset"
    return "class"


@functools.lru_cache(maxsize=None)
def _plan_code(source: str) -> Any:
    """Compiled plan source; classes of one shape (``view`` + ``partial``:
    six of the library's 24) and every further codec instance share it."""
    return compile(source, "<wire plan>", "exec")


def _compile_class(
    codec: WireCodec, cls: type, wire_id: int
) -> tuple[
    Callable[[WireCodec, Any, bytearray], None],
    Callable[[Any, int], tuple[Any, int]],
]:
    """The ``(packer, unpacker)`` pair of ``cls`` under ``codec``.

    The packer appends ``CLASS tag || varint wire_id || field values`` to
    its buffer; the unpacker starts past the id and returns ``(instance,
    next position)``, building the instance positionally.
    """
    header = bytearray([_T_CLASS])
    _pack_uvarint(wire_id, header)
    fields = dataclasses.fields(cls)
    # Annotations are source text under ``from __future__ import annotations``.
    hints = [_field_shape(field.type) for field in fields]
    # A slotted class without a __post_init__ (every library message but
    # Block) is filled through its slot descriptors: the frozen __init__'s
    # guarded object.__setattr__ per field costs twice as much.
    setters = {
        f"set{i}": getattr(cls, field.name, None).__set__
        for i, field in enumerate(fields)
        if isinstance(getattr(cls, field.name, None), types.MemberDescriptorType)
    }
    if len(setters) == len(fields) and not hasattr(cls, "__post_init__"):
        build = "    o = new(cls)\n" + "".join(
            f"    set{i}(o, v{i})\n" for i in range(len(fields))
        ) + "    return o, pos\n"
    else:
        arguments = ", ".join(
            f"{field.name}=v{i}" if field.kw_only else f"v{i}"
            for i, field in enumerate(fields)
        )
        build = f"    return cls({arguments}), pos\n"
    source = (
        "def pack(codec, value, out):\n"
        "    out += header\n"
        + "".join(
            _PACK_FIELD.get(hint, _PACK_FIELD["class"]).format(name=field.name, **_TAGS)
            for hint, field in zip(hints, fields)
        )
        + "def unpack_class(buf, pos):\n"
        + "".join(_UNPACK_FIELD[hint].format(i=i, **_TAGS) for i, hint in enumerate(hints))
        + build
    )
    namespace = {
        "cls": cls,
        "new": object.__new__,
        **setters,
        "header": bytes(header),
        "packers": codec._packers,
        "unpackers": codec._by_id,
        "unpack": codec._unpack_value,
        "unpack_tuple": codec._unpack_tuple,
        "put_uvarint": _pack_uvarint,
        "get_uvarint": _unpack_uvarint,
        "WireCodecError": WireCodecError,
    }
    exec(_plan_code(source), namespace)
    return namespace["pack"], namespace["unpack_class"]


def _message_subclasses(base: type) -> set[type]:
    """``base`` and every (transitive) subclass that is a live dataclass.

    ``@dataclass(slots=True)`` replaces the decorated class with a new one,
    leaving the original (slots-less) class in ``__subclasses__`` forever;
    only the class currently bound to its name in its defining module is
    the real wire type, so phantoms are filtered out here.
    """
    import sys

    found: set[type] = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in found:
            continue
        found.add(cls)
        pending.extend(cls.__subclasses__())
    return {
        cls
        for cls in found
        if dataclasses.is_dataclass(cls)
        and getattr(sys.modules.get(cls.__module__), cls.__name__, None) is cls
    }


def _register_library_messages(codec: WireCodec) -> WireCodec:
    """Register every message type the library defines, in canonical order.

    Imports the consensus and pacemaker message modules (so their
    dataclasses exist), then registers the crypto/block value types followed
    by every dataclass reachable from the two message roots, sorted by name.
    The order is deterministic across processes — which is what lets
    :class:`WireCodec` use registration ordinals as wire ids.
    """
    # The message modules: importing them defines every wire dataclass.
    import repro.consensus.messages  # noqa: F401
    import repro.core.messages  # noqa: F401
    import repro.pacemakers.backoff  # noqa: F401
    import repro.pacemakers.cogsworth  # noqa: F401
    import repro.pacemakers.fever  # noqa: F401
    import repro.pacemakers.lp22  # noqa: F401
    import repro.pacemakers.naor_keidar  # noqa: F401
    import repro.pacemakers.raresync  # noqa: F401
    from repro.consensus.blocks import Block
    from repro.consensus.messages import ConsensusMessage
    from repro.consensus.quorum import QuorumCertificate
    from repro.crypto.signatures import Signature
    from repro.crypto.threshold import PartialSignature, ThresholdSignature
    from repro.pacemakers.base import PacemakerMessage
    from repro.statemachine.messages import ClientMessage, CommandBatch

    codec.register_all(
        [
            Block,
            QuorumCertificate,
            Signature,
            PartialSignature,
            ThresholdSignature,
            CommandBatch,
        ]
    )
    for base in (ConsensusMessage, PacemakerMessage, ClientMessage):
        codec.register_all(sorted(_message_subclasses(base), key=lambda c: c.__name__))
    return codec


_default: Optional[WireCodec] = None


def default_codec() -> WireCodec:
    """The shared codec knowing every message type the library defines.

    Built once per process.  The canonical registration order of
    :func:`_register_library_messages` assigns every message class the same
    wire id in every process, so any two nodes using ``default_codec()``
    interoperate.  Custom messages must be registered on top, *after* the
    defaults, identically on every node (``default_codec()`` returns the
    shared instance, so registering on it works too).
    """
    global _default
    if _default is None:
        _default = _register_library_messages(WireCodec())
    return _default


# The benchmark harness under ``benchmarks/ledger/`` still names the format
# (``make_codec("binary")``) and patches the codec's methods per class,
# ``BinaryWireCodec`` included; an alias would have them wrapped twice.
class BinaryWireCodec(WireCodec):
    """:class:`WireCodec` under its former name, adding nothing."""


def make_codec(name: str) -> WireCodec:
    """:func:`default_codec`, by the name of the one wire format, ``"binary"``.

    Raises :class:`WireCodecError` for any other name.
    """
    if name != "binary":
        raise WireCodecError(
            f"unknown wire codec {name!r}; the wire has one format, \"binary\""
        )
    return default_codec()
