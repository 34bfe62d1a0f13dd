"""Wire format suite: every registered message, byte for byte.

``tests/test_runtime.py`` covers the codec's behaviour on a handful of
representative messages; this module is the systematic counterpart:

* a message *zoo* with one instance of **every** registered wire class —
  with a guard test that fails when a new message type is registered without
  being added to the zoo — round-tripped through the codec;
* edge values (negative/huge ints, unicode, empty containers, bytes) and
  the format's error paths (unknown class id, unknown tag, trailing bytes,
  truncated values);
* the wire itself: ``tests/data/wire_frames.json`` holds the hex of every
  zoo frame as the commit *before* the compiled class plans produced it
  (``python tests/test_wire_codecs.py --capture`` with that commit's
  ``src`` on the path), and every frame must come out byte for byte; random
  trees that leave the plans' inline paths must match a reference packer
  written out here; and every zoo frame cut short at every offset must be
  rejected with :class:`WireCodecError`, from ``bytes`` and from a
  ``memoryview``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.blocks import Block
from repro.consensus.messages import (
    ConsensusMessage,
    NewView,
    Proposal,
    QCAnnounce,
    Vote,
)
from repro.consensus.quorum import QuorumCertificate
from repro.core.messages import EpochViewMessage, ViewCertificate, ViewMessage
from repro.crypto.signatures import Signature
from repro.crypto.threshold import PartialSignature, ThresholdSignature
from repro.pacemakers.backoff import ViewChangeMessage
from repro.pacemakers.base import PacemakerMessage
from repro.pacemakers.cogsworth import RelayCertificate, WishMessage
from repro.pacemakers.fever import FeverViewCertificate, FeverViewMessage
from repro.pacemakers.lp22 import LP22EpochCertificate, LP22EpochViewMessage
from repro.statemachine.commands import Command, encode_commands
from repro.statemachine.messages import ClientMessage, CommandBatch, CommandForward
from repro.runtime.codec import (
    WireCodec,
    WireCodecError,
    _register_library_messages,
    default_codec,
    make_codec,
)


def message_zoo() -> list:
    """One instance of every registered wire class (nested where natural)."""
    signature = Signature(signer=3, message_digest="md-vote-7", proof="proof-3")
    partial = PartialSignature(signer=3, message_digest="md-vote-7", signature=signature)
    aggregate = ThresholdSignature(
        message_digest="md-vote-7",
        threshold=3,
        signers=frozenset({1, 3, 5, 9}),
        proof="agg-proof",
    )
    block = Block(
        view=7,
        parent_id="block-6-beef",
        proposer=2,
        payload=("payload", 7, "tx"),
        justify_view=6,
    )
    qc = QuorumCertificate(view=6, block_id="block-6-beef", aggregate=aggregate)
    batch = CommandBatch(
        count=2,
        data=encode_commands(
            [
                Command(1, 0, 0, "c1:0", "v1:0"),
                Command(1, 1, 1, "c1:1", ""),
            ]
        ),
    )
    return [
        signature,
        partial,
        aggregate,
        block,
        qc,
        ConsensusMessage(view=4),
        PacemakerMessage(),
        NewView(view=8, high_qc=qc),
        Proposal(view=7, block=block, justify=qc),
        QCAnnounce(view=7, qc=qc, block=block),
        Vote(view=7, block_id="block-7-cafe", partial=partial),
        EpochViewMessage(view=9, partial=partial),
        ViewMessage(view=9, partial=partial),
        ViewCertificate(view=9, aggregate=aggregate),
        ViewChangeMessage(view=10, partial=partial),
        WishMessage(view=11, partial=partial),
        RelayCertificate(view=11, aggregate=aggregate),
        FeverViewMessage(view=12, partial=partial),
        FeverViewCertificate(view=12, aggregate=aggregate),
        LP22EpochViewMessage(view=13, partial=partial),
        LP22EpochCertificate(view=13, aggregate=aggregate),
        ClientMessage(),
        batch,
        CommandForward(batch=batch),
    ]


EDGE_VALUES = [
    None,
    True,
    False,
    0,
    -1,
    127,
    128,
    -300,
    2**40,
    -(2**40),
    0.0,
    -2.5,
    1e300,
    "",
    "plain",
    "unicode: ✓ λ ∀ 🛰",
    (),
    (1, ("nested", -2), None),
    [],
    [1, "two", 3.0],
    frozenset(),
    frozenset({-5, 0, 7}),
    frozenset({"b", "a"}),
    {},
    {"k": 1, "nested": {"x": (1, 2)}},
    {3: "int-key", (1, 2): "tuple-key"},
]


@pytest.fixture(params=["binary"])  # the format's name, in each test id
def codec(request):
    return default_codec()


def roundtrip(codec, sender, payload):
    frame = codec.encode_frame(sender, payload)
    body = frame[4:]
    assert len(body) == int.from_bytes(frame[:4], "big")
    return codec.decode_body(body)


class TestMessageZoo:
    def test_zoo_covers_every_registered_class(self):
        # The comparison set is the registry filtered to classes the library
        # itself defines: other tests legitimately register their own fake
        # message types (from tests.* modules) on the shared codec, and a
        # fresh registration sweep would pick those subclasses up too.
        zoo_names = {type(message).__name__ for message in message_zoo()}
        for codec in (_register_library_messages(WireCodec()), default_codec()):
            library_names = {
                cls.__name__
                for cls in codec.registered_classes
                if cls.__module__.startswith("repro.")
            }
            assert zoo_names == library_names

    def test_every_message_roundtrips(self, codec):
        for message in message_zoo():
            sender, decoded = roundtrip(codec, 5, message)
            assert sender == 5
            assert decoded == message
            assert type(decoded) is type(message)

    def test_nested_field_types_survive(self, codec):
        proposal = next(m for m in message_zoo() if isinstance(m, Proposal))
        _, decoded = roundtrip(codec, 0, proposal)
        assert type(decoded.block.payload) is tuple
        assert type(decoded.justify.aggregate.signers) is frozenset
        assert decoded.justify.aggregate.signers == frozenset({1, 3, 5, 9})


class TestEdgeValues:
    def test_edge_values_roundtrip(self, codec):
        for value in EDGE_VALUES:
            sender, decoded = roundtrip(codec, 1, value)
            assert decoded == value
            assert type(decoded) is type(value)

    def test_bytes_roundtrip_binary_only(self):
        binary_codec = default_codec()
        for blob in (b"", b"\x00\xff" * 40):
            _, decoded = roundtrip(binary_codec, 1, blob)
            assert decoded == blob
            assert type(decoded) is bytes

    def test_extreme_senders_roundtrip(self, codec):
        for sender in (0, 1, -1, 2**31, -(2**31)):
            got_sender, decoded = roundtrip(codec, sender, "ping")
            assert got_sender == sender
            assert decoded == "ping"


class TestErrorPaths:
    def test_make_codec_rejects_unknown_name(self):
        for name in ("msgpack", "json"):
            with pytest.raises(WireCodecError, match="unknown wire codec"):
                make_codec(name)

    def test_make_codec_returns_shared_instances(self):
        assert make_codec("binary") is default_codec()

    def test_unregistered_dataclass_rejected(self, codec):
        @dataclasses.dataclass(frozen=True)
        class Rogue:
            x: int

        with pytest.raises(WireCodecError, match="not registered"):
            codec.encode_frame(0, Rogue(x=1))

    def test_unencodable_value_rejected(self, codec):
        with pytest.raises(WireCodecError, match="cannot encode"):
            codec.encode_frame(0, object())

    def test_binary_rejects_unknown_class_id(self):
        binary_codec = default_codec()
        bogus_id = len(binary_codec._by_id) + 5
        body = bytes([0, 0x0B]) + bytes([bogus_id])  # sender 0, CLASS tag
        with pytest.raises(WireCodecError, match="unknown wire class id"):
            binary_codec.decode_body(body)

    def test_binary_rejects_unknown_tag(self):
        with pytest.raises(WireCodecError, match="unknown tag"):
            default_codec().decode_body(bytes([0, 0xFF]))

    def test_binary_rejects_trailing_bytes(self):
        binary_codec = default_codec()
        body = binary_codec.encode_frame(1, "ok")[4:] + b"\x00"
        with pytest.raises(WireCodecError, match="trailing bytes"):
            binary_codec.decode_body(body)

    def test_binary_rejects_truncated_values(self):
        binary_codec = default_codec()
        for payload in ("a long enough string", 3.14, b"some bytes"):
            body = binary_codec.encode_frame(1, payload)[4:]
            with pytest.raises(WireCodecError, match="malformed frame body"):
                binary_codec.decode_body(body[:-3])

    def test_binary_rejects_empty_body(self):
        with pytest.raises(WireCodecError, match="malformed frame body"):
            default_codec().decode_body(b"")


class TestZeroCopyPaths:
    """``encode_into`` / decode-from-``memoryview``: the shm and coalesced-TCP
    fast paths must be byte-for-byte and value-for-value identical to the
    original ``encode_frame``/``decode_body(bytes)`` pair."""

    def test_encode_into_matches_encode_frame_for_every_message(self, codec):
        for message in message_zoo():
            frame = codec.encode_frame(7, message)
            buf = bytearray()
            appended = codec.encode_into(7, message, buf)
            assert bytes(buf) == frame
            assert appended == len(frame)

    def test_encode_into_appends_after_existing_content(self, codec):
        # A coalesced writer batches many frames into one buffer; each
        # append must leave earlier frames untouched.
        buf = bytearray()
        frames = []
        for message in message_zoo():
            frames.append(codec.encode_frame(9, message))
            codec.encode_into(9, message, buf)
        assert bytes(buf) == b"".join(frames)

    def test_decode_from_memoryview_for_every_message(self, codec):
        # Frames decode in place from a memoryview over a larger buffer —
        # exactly how the shm ring hands bodies to the codec.
        for message in message_zoo():
            frame = codec.encode_frame(4, message)
            backing = bytearray(b"\xaa" * 11 + frame + b"\xbb" * 7)
            body = memoryview(backing)[11 + 4 : 11 + len(frame)]
            sender, decoded = codec.decode_body(body)
            assert sender == 4
            assert decoded == message
            assert type(decoded) is type(message)

    def test_memoryview_and_bytes_decode_agree(self, codec):
        for message in message_zoo():
            body = codec.encode_frame(2, message)[4:]
            assert codec.decode_body(memoryview(body)) == codec.decode_body(body)


# ----------------------------------------------------------------------
# The wire, byte for byte
# ----------------------------------------------------------------------
GOLDEN_FRAMES = Path(__file__).parent / "data" / "wire_frames.json"
GOLDEN_SENDER = 5


def _library_classes() -> list[type]:
    """The library's own wire classes in canonical registration order.  A
    registration sweep in a test process also finds the fake messages other
    test modules define (and a shared codec may hold them already), which
    would shift every later wire id."""
    swept = _register_library_messages(WireCodec()).registered_classes
    return [cls for cls in swept if cls.__module__.startswith("repro.")]


def _zoo_frames() -> dict[str, str]:
    """``{class name: frame hex}`` for the whole zoo."""
    codec = WireCodec()
    codec.register_all(_library_classes())
    return {
        type(message).__name__: codec.encode_frame(GOLDEN_SENDER, message).hex()
        for message in message_zoo()
    }


def test_every_zoo_frame_is_byte_identical_to_the_captured_wire():
    golden = json.loads(GOLDEN_FRAMES.read_text())
    assert sorted(golden) == ["binary"]
    frames = _zoo_frames()
    assert sorted(frames) == sorted(golden["binary"]) and len(frames) == 24
    for kind, frame in frames.items():
        assert frame == golden["binary"][kind], f"frame of {kind} changed on the wire"


def test_wire_ids_do_not_depend_on_import_order():
    # Baseline pacemaker modules load on demand: an interpreter that imports
    # only the codec must number every class as this one (which imported
    # them all up front) does.
    probe = (
        "import json; from repro.runtime.codec import default_codec; print(json.dumps("
        "{cls.__name__: i for i, cls in enumerate(default_codec().registered_classes)}))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    table = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout
    assert json.loads(table) == {cls.__name__: i for i, cls in enumerate(_library_classes())}


# A packer for the binary format written straight from its description — one
# tag byte per value, LEB128 lengths, zigzag integers, classes as ordinal id
# plus positional fields — sharing no code with the codec's walker or plans.
def _ref_uvarint(value: int) -> bytes:
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def reference_pack(ids: dict[type, int], value: Any) -> bytes:
    if value is None:
        return b"\x00"
    if value is True:
        return b"\x01"
    if value is False:
        return b"\x02"
    if isinstance(value, int):
        return b"\x03" + _ref_uvarint(value * 2 if value >= 0 else -value * 2 - 1)
    if isinstance(value, float):
        return b"\x04" + struct.pack(">d", value)
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return b"\x05" + _ref_uvarint(len(encoded)) + encoded
    if isinstance(value, bytes):
        return b"\x06" + _ref_uvarint(len(value)) + value
    if isinstance(value, (tuple, list, frozenset)):
        tag = {tuple: b"\x07", list: b"\x08", frozenset: b"\x09"}[type(value)]
        items = value
        if isinstance(value, frozenset):
            try:
                items = sorted(value)
            except TypeError:
                items = list(value)
        return tag + _ref_uvarint(len(items)) + b"".join(reference_pack(ids, i) for i in items)
    if isinstance(value, dict):
        return b"\x0a" + _ref_uvarint(len(value)) + b"".join(
            reference_pack(ids, k) + reference_pack(ids, v) for k, v in value.items()
        )
    fields = b"".join(
        reference_pack(ids, getattr(value, field.name)) for field in dataclasses.fields(value)
    )
    return b"\x0b" + _ref_uvarint(ids[type(value)]) + fields


def reference_frame(ids: dict[type, int], sender: int, payload: Any) -> bytes:
    body = _ref_uvarint(sender * 2 if sender >= 0 else -sender * 2 - 1) + reference_pack(ids, payload)
    return len(body).to_bytes(4, "big") + body


@dataclasses.dataclass(frozen=True)
class LateComer:
    """A custom message registered after the library defaults."""

    tag: int
    note: str
    body: Any = None


def _fresh_codec() -> tuple[WireCodec, dict[type, int]]:
    """A codec over the library registry plus :class:`LateComer`, and the
    wire id of every class (registration order *is* the id)."""
    codec = WireCodec()
    codec.register_all(_library_classes() + [LateComer])
    return codec, {cls: wire_id for wire_id, cls in enumerate(codec.registered_classes)}


FUZZ_CODEC, FUZZ_IDS = _fresh_codec()

# Leaves that leave every inline path: integers past one varint byte, past 63
# bits and negative; strings of 128 bytes and more, and non-ASCII ones.
_ints = st.one_of(
    st.integers(-70, 70),
    st.integers(-(2**70), 2**70),
    st.sampled_from([63, 64, -64, -65, 2**63 - 1, 2**63, -(2**63) - 1, 8191, 8192]),
)
_strs = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="ab✓λ🛰", min_size=40, max_size=200),
    st.sampled_from(["", "a" * 127, "a" * 128, "é" * 64, "x" * 300]),
)
_hashable_leaves = st.one_of(st.none(), st.booleans(), _ints, _strs, st.binary(max_size=200))
_hashables = st.recursive(
    _hashable_leaves,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=4),
    ),
    max_leaves=6,
)
_trees = st.recursive(
    st.one_of(_hashable_leaves, st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.dictionaries(_hashables, inner, max_size=3),
        st.builds(LateComer, tag=inner, note=inner, body=inner),
    ),
    max_leaves=10,
)


def _messages(trees):
    """Library and custom classes whose fields hold arbitrary trees — a
    dataclass does not check its annotations, and neither may a plan."""
    signature = Signature(signer=3, message_digest="md", proof="p")
    partial = PartialSignature(signer=3, message_digest="md", signature=signature)
    return st.one_of(
        trees,
        st.builds(LateComer, tag=_ints, note=_strs, body=trees),
        st.builds(Vote, view=_ints, block_id=_strs, partial=st.sampled_from([partial, None])),
        st.builds(Vote, view=trees, block_id=trees, partial=trees),
        st.builds(
            Block, view=_ints, parent_id=_strs, proposer=_ints,
            payload=st.lists(trees, max_size=3).map(tuple), justify_view=_ints,
        ),
        st.builds(NewView, view=_ints, high_qc=st.none()),
        st.builds(CommandBatch, count=_ints, data=st.binary(max_size=300)),
        st.builds(CommandBatch, count=_ints, data=trees),
        st.builds(
            ThresholdSignature, message_digest=_strs, threshold=_ints,
            signers=st.one_of(st.frozensets(_hashables, max_size=5), trees), proof=_strs,
        ),
        st.sampled_from([PacemakerMessage(), ClientMessage()]),
    )


@settings(max_examples=300, deadline=None)
@given(sender=st.integers(-(2**40), 2**40), payload=_messages(_trees))
def test_random_trees_match_the_reference_packer_and_the_json_oracle(sender, payload):
    frame = FUZZ_CODEC.encode_frame(sender, payload)
    assert frame == reference_frame(FUZZ_IDS, sender, payload)
    decoded = FUZZ_CODEC.decode_body(frame[4:])
    assert decoded == (sender, payload)
    assert FUZZ_CODEC.decode_body(memoryview(frame)[4:]) == decoded


class _CountingCodec(WireCodec):
    """A codec that counts its generic walker's calls."""

    def __init__(self) -> None:
        super().__init__()
        self.walks = 0

    def _pack_value(self, value, out):
        self.walks += 1
        super()._pack_value(value, out)

    def _pack_other(self, value, out):
        self.walks += 1
        super()._pack_other(value, out)

    def _unpack_value(self, buf, pos):
        self.walks += 1
        return super()._unpack_value(buf, pos)


def _hot_frames() -> list:
    """The frames of a steady view, in the shapes they take on the wire:
    filler and command payloads, a present and an absent justify."""
    zoo = message_zoo()
    qc = next(m for m in zoo if isinstance(m, QuorumCertificate))
    batch = next(m for m in zoo if isinstance(m, CommandBatch))
    vote = next(m for m in zoo if isinstance(m, Vote))
    big = CommandBatch(count=9, data=encode_commands(
        [Command(5, seq, 0, f"k{seq}", "v" * 20) for seq in range(9)]
    ))
    filler = Block(view=300, parent_id="p" * 32, proposer=3, payload=((3, 9000),), justify_view=299)
    loaded = Block(view=301, parent_id="q" * 32, proposer=1, payload=(batch, big), justify_view=-1)
    return [
        Proposal(view=300, block=filler, justify=qc),
        Proposal(view=301, block=loaded, justify=None),
        vote,
        NewView(view=302, high_qc=qc),
        NewView(view=0, high_qc=None),
        QCAnnounce(view=300, qc=qc, block=filler),
        CommandForward(batch=big),
    ]


def test_the_hot_frames_never_take_the_generic_walker():
    codec = _CountingCodec()
    _register_library_messages(codec)
    for message in _hot_frames():
        out = bytearray()
        codec.encode_into(4, message, out)
        assert bytes(out) == default_codec().encode_frame(4, message)
        assert codec.decode_body(bytes(out[4:])) == (4, message)
        assert codec.walks == 0, type(message).__name__


def _rejected(codec: WireCodec, body: bytes) -> None:
    for view in (body, memoryview(body)):
        with pytest.raises(WireCodecError):
            codec.decode_body(view)


class TestCompiledPlanRejections:
    """The strict decoder's rejections, reached through the compiled plans:
    always :class:`WireCodecError`, never a bare ``IndexError``."""

    def test_every_zoo_frame_truncated_at_every_offset(self):
        codec = default_codec()
        for message in message_zoo():
            body = codec.encode_frame(1, message)[4:]
            for cut in range(len(body)):
                _rejected(codec, body[:cut])

    def test_trailing_bytes_after_every_zoo_frame(self):
        codec = default_codec()
        for message in message_zoo():
            body = codec.encode_frame(1, message)[4:]
            with pytest.raises(WireCodecError, match="trailing bytes"):
                codec.decode_body(body + b"\x00")

    def test_unknown_tag_inside_a_class(self):
        codec = default_codec()
        vote = next(m for m in message_zoo() if isinstance(m, Vote))
        body = bytearray(codec.encode_frame(1, vote)[4:])
        # sender, CLASS tag, class id, then the first field's tag byte.
        assert body[3] == 0x03
        body[3] = 0xFF
        with pytest.raises(WireCodecError, match="unknown tag"):
            codec.decode_body(bytes(body))
        _rejected(codec, bytes(body))

    def test_unknown_class_id_inside_a_class(self):
        codec = default_codec()
        forward = next(m for m in message_zoo() if isinstance(m, CommandForward))
        body = bytearray(codec.encode_frame(1, forward)[4:])
        # sender, CLASS, CommandForward's id, CLASS, CommandBatch's id.
        assert body[3] == 0x0B
        for bogus in (bytes([len(codec._by_id) + 3]), b"\xff\x7f"):
            forged = bytes(body[:4]) + bogus + bytes(body[5:])
            with pytest.raises(WireCodecError, match="unknown wire class id"):
                codec.decode_body(forged)
            _rejected(codec, forged)

    def test_empty_and_sender_only_bodies(self):
        codec = default_codec()
        _rejected(codec, b"")
        _rejected(codec, b"\x02")
        _rejected(codec, b"\x80")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_wire_codecs.py --capture")
    GOLDEN_FRAMES.parent.mkdir(exist_ok=True)
    frames = _zoo_frames()
    GOLDEN_FRAMES.write_text(json.dumps({"binary": frames}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(frames)} frames to {GOLDEN_FRAMES}")
