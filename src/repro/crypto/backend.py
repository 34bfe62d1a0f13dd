"""Pluggable crypto backends.

Every cryptographic object in the reproduction — signatures, partial
signatures, threshold proofs — reduces to calls of one primitive:
``digest(*parts) -> str``, a deterministic, collision-free mapping from a
payload structure to a short string.  The paper's results only need the
*equality semantics* of that mapping (equal payloads map to equal digests,
distinct payloads to distinct digests); the bytes themselves never matter.

That observation makes the primitive pluggable.  Two backends exist:

* :class:`HashingBackend` — canonicalise the payload structure and BLAKE2b
  it (the default).  Digests are stable across runs and processes, so
  traces and golden values reproduce.
* :class:`CountingBackend` — intern each distinct payload structure and
  hand out a small sequential token instead of a hash.  O(1) per call
  after the first sight of a payload, no canonicalisation, no hashing.
  Semantically identical for honest-and-Byzantine-*as-modelled* runs: the
  modelled adversary equivocates, withholds and delays but never forges
  proof strings, so nothing ever depends on tokens being unguessable.
  Tokens are only meaningful within the backend instance that minted them
  (one simulation run); they must never cross runs.

A backend is a value of one run: ``build_stack`` makes a fresh one from
``ScenarioConfig.crypto_backend`` / ``ProtocolConfig.crypto_backend`` (see
:func:`make_backend` for the names) and hands it to the run's PKI, whose
keys and threshold scheme digest with it.  Nothing here is process-wide, so
runs with different backends may interleave in one process.  The backend
is also a campaign sweep axis, which is how the scaling benchmark
(``benchmarks/bench_scaling.py``) compares them.

Block ids are content hashes that no backend mints:
:attr:`repro.consensus.blocks.Block.block_id` is :func:`blake_digest` of
the block's fields, the same string under every backend.
"""

from __future__ import annotations

import hashlib
import itertools
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.errors import ConfigurationError

DIGEST_SIZE_BYTES = 16

# Sentinels distinguishing structural kinds inside frozen keys, mirroring the
# distinct delimiters _canonical() uses for dicts vs sequences.
_DICT_MARK = "\x00dict"


def _canonical_set(payload: Any) -> bytes:
    # Sets sort to remove ordering nondeterminism.  Homogeneous int sets —
    # threshold signer sets, the dominant shape of large-n runs — sort
    # numerically and render in one join, skipping the per-element
    # canonical_bytes dispatch and the byte-wise re-sort; heterogeneous or
    # unorderable sets take the general path (render each element, sort the
    # renderings).  The two renderings differ in element *order* (numeric vs
    # lexicographic), but every set deterministically takes exactly one
    # path, so equal sets still agree and distinct sets still differ.
    try:
        items = sorted(payload)
    except TypeError:
        return b"{" + b",".join(sorted(canonical_bytes(item) for item in payload)) + b"}"
    for item in items:
        if type(item) is not int:
            return b"{" + b",".join(sorted(canonical_bytes(item) for item in items)) + b"}"
    return b"{" + ",".join(map(repr, items)).encode("ascii") + b"}"


def _canonical_sequence(payload: Any) -> bytes:
    return b"(" + b",".join([canonical_bytes(item) for item in payload]) + b")"


def _canonical_dict(payload: dict) -> bytes:
    inner = b",".join(
        canonical_bytes(key) + b":" + canonical_bytes(value)
        for key, value in sorted(payload.items())
    )
    return b"[" + inner + b"]"


def _canonical_repr(payload: Any) -> bytes:
    return repr(payload).encode("utf-8")


# Exact-type dispatch for the overwhelmingly common payload shapes: one dict
# lookup replaces the isinstance ladder the canonicaliser historically walked
# on every one of its millions of recursive calls per large-n run.  Subclasses
# of these types miss the table and take the generic path, which preserves
# the ladder's semantics — the rendered bytes are identical; a dataclass
# type takes it once and then joins the table.
_CANONICAL_DISPATCH: dict[type, Callable[[Any], bytes]] = {
    bytes: lambda payload: payload,
    str: lambda payload: payload.encode("utf-8"),
    int: _canonical_repr,
    bool: _canonical_repr,
    float: _canonical_repr,
    type(None): lambda payload: b"None",
    frozenset: _canonical_set,
    set: _canonical_set,
    tuple: _canonical_sequence,
    list: _canonical_sequence,
    dict: _canonical_dict,
}



def canonical_bytes(payload: Any) -> bytes:
    """Render a payload into canonical bytes for hashing.

    Tuples, lists, dicts, dataclass-like reprs and primitives all reduce to a
    stable textual form.  Sets are sorted to remove ordering nondeterminism.
    """
    handler = _CANONICAL_DISPATCH.get(type(payload))
    if handler is not None:
        return handler(payload)
    return _canonical_other(payload)


def _canonical_other(payload: Any) -> bytes:
    """The generic path: builtin subclasses, dataclasses, everything else."""
    if isinstance(payload, bytes):
        return payload
    if isinstance(payload, str):
        return payload.encode("utf-8")
    if isinstance(payload, (int, float, bool)) or payload is None:
        return repr(payload).encode("utf-8")
    if isinstance(payload, (frozenset, set)):
        return _canonical_set(payload)
    if isinstance(payload, (tuple, list)):
        return _canonical_sequence(payload)
    if isinstance(payload, dict):
        return _canonical_dict(payload)
    fields = getattr(payload, "__dataclass_fields__", None)
    if fields is None:
        return repr(payload).encode("utf-8")
    # Dataclasses (wire messages, certificates, blocks, command batches)
    # canonicalise by recursing into their full field contents.  The
    # historical repr fallback was lossy here: custom __repr__s truncate
    # digests to 8 characters and summarise signer sets, so two *different*
    # payloads could canonicalise identically.  The type's renderer joins
    # the exact-type table, so its later instances skip the ladder above.
    render = _CANONICAL_DISPATCH[type(payload)] = _dataclass_renderer(
        type(payload), tuple(fields)
    )
    return render(payload)


def _dataclass_renderer(payload_type: type, names: tuple[str, ...]) -> Callable[[Any], bytes]:
    """``<Name:field,field,...>`` of one dataclass type's instances."""
    prefix = b"<" + payload_type.__name__.encode("utf-8") + b":"

    def render(payload: Any) -> bytes:
        inner = b",".join([canonical_bytes(getattr(payload, name)) for name in names])
        return prefix + inner + b">"

    return render


def blake_digest(*parts: Any) -> str:
    """The pure hash primitive: a short BLAKE2b hex digest binding ``parts``.

    This is :class:`HashingBackend`'s computation, exposed as a function for
    callers that need a digest independent of any backend choice (block
    ids, golden values, content-addressed caches).
    """
    hasher = hashlib.blake2b(digest_size=DIGEST_SIZE_BYTES)
    for part in parts:
        hasher.update(canonical_bytes(part))
        hasher.update(b"|")
    return hasher.hexdigest()


class PackedDigests:
    """Digest strings in order, held as one ``bytes``, a newline after each:
    what a shard ships in place of a tuple of ``str`` per replica (ledger
    ids, KV apply chains, commit ids).  One object to build, pickle and
    keep; sized, iterable, comparable; ``list(packed)`` to index.  It may
    read only the first ``end`` bytes of ``data``: a prefix that shares
    the buffer of a longer sequence."""

    __slots__ = ("data", "end")

    def __init__(self, digests: Iterable[str] = ()) -> None:
        # One join; the trailing "" puts a newline after the last digest.
        self.data = "\n".join(itertools.chain(digests, ("",))).encode("ascii")
        self.end = None

    @classmethod
    def from_bytes(cls, data: bytes, end: Optional[int] = None) -> "PackedDigests":
        """Wrap bytes already in this format (what a ledger or an apply
        chain appends to) without decoding them: a ``bytearray`` too, which
        a process cluster's coordinator appends each shipped round onto.
        With ``end``, only ``data[:end]`` (which ends a digest)."""
        packed = cls.__new__(cls)
        packed.data, packed.end = data, end
        return packed

    def _view(self) -> memoryview:
        return memoryview(self.data)[:self.end]

    def __len__(self) -> int:
        return self.data.count(b"\n", 0, self.end)

    def __iter__(self) -> Iterator[str]:
        return iter(str(self._view(), "ascii").splitlines())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple)):  # what this type replaced
            other = PackedDigests(other)
        return isinstance(other, PackedDigests) and self._view() == other._view()

    __hash__ = None

    @classmethod
    def prefix_consistent(cls, sequences: Iterable[Iterable[str]]) -> bool:
        """Whether every two of ``sequences`` agree on their common prefix:
        sorted by packed size, each must start the next."""
        views = sorted(
            ((seq if isinstance(seq, cls) else cls(seq))._view() for seq in sequences), key=len
        )
        return all(map(_starts, views[1:], views))


def _starts(longer: memoryview, shorter: memoryview) -> bool:
    """Whether the bytes of ``longer`` start with those of ``shorter``."""
    return longer[:len(shorter)] == shorter


def _freeze(value: Any) -> Any:
    """Reduce a payload structure to a hashable key with the same equality
    semantics as :func:`canonical_bytes`: lists equal tuples, sets equal
    frozensets, dict keys are order-insensitive.

    Hashable values pass through unchanged — the raw-key fast path in the
    interning backends uses the value itself, so freezing must be the
    identity there for the two key forms to agree.  Unhashable dataclasses
    (a wire message with a list-valued field, say) decompose into their
    field contents, mirroring the dataclass case of :func:`canonical_bytes`.
    """
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(item) for item in value)
    if isinstance(value, dict):
        return (_DICT_MARK, tuple(sorted((_freeze(k), _freeze(v)) for k, v in value.items())))
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        try:
            hash(value)
        except TypeError:
            return (
                type(value).__name__,
                tuple(_freeze(getattr(value, name)) for name in fields),
            )
    return value


class CryptoBackend(ABC):
    """Strategy providing the digest primitive the crypto layer is built on.

    Subclasses implement :meth:`_compute`; the public :meth:`digest` wraps it
    with call accounting so tests and benchmarks can observe how much digest
    work a run performed (``digest_calls``) versus how much of it was
    genuinely computed rather than served from an intern table
    (``digest_computes``).
    """

    #: Machine-readable name used by the registry and in scenario configs.
    name: str = "abstract"

    def __init__(self) -> None:
        #: Number of ``digest()`` requests served.
        self.digest_calls = 0
        #: Number of requests that performed the backend's full computation
        #: (for interning backends this is the miss count).
        self.digest_computes = 0
        #: Number of :meth:`verify_batch` invocations (each counts as ONE
        #: digest call however many shares it covers).
        self.batch_verifies = 0
        #: Total shares covered by all :meth:`verify_batch` invocations;
        #: ``batched_shares - batch_verifies`` is the number of per-share
        #: verify calls the batching amortised away.
        self.batched_shares = 0

    def digest(self, *parts: Any) -> str:
        """Return a short string digest binding all ``parts`` together.

        Equal part structures yield equal digests; distinct structures yield
        distinct digests (up to hash collisions for the hashing backend).
        """
        self.digest_calls += 1
        return self._compute(*parts)

    def verify_batch(self, items: "Sequence[tuple[tuple, str]]") -> bool:
        """All-or-nothing batched digest check.

        ``items`` is a sequence of ``(parts, expected)`` pairs; returns True
        iff ``digest(*parts) == expected`` holds for **every** pair (short-
        circuiting on the first mismatch).  This is the amortised
        verify-on-aggregate seam: the threshold scheme's ``combine`` checks a
        whole quorum of partial signatures in one call instead of one
        ``digest()`` per share.  The whole batch counts as ONE digest call
        (``digest_calls``), while ``digest_computes`` still tracks real
        per-share work, so the calls-vs-computes gap — together with
        ``batch_verifies`` / ``batched_shares`` — surfaces exactly how many
        dispatches the batching saved.

        The result is bit-identical to looping :meth:`digest` per share:
        subclasses override :meth:`_verify_batch` with a tighter loop, never
        with different semantics.
        """
        self.digest_calls += 1
        self.batch_verifies += 1
        self.batched_shares += len(items)
        return self._verify_batch(items)

    def _verify_batch(self, items: "Sequence[tuple[tuple, str]]") -> bool:
        """Backend-specific batched check (no batch accounting)."""
        compute = self._compute
        for parts, expected in items:
            if compute(*parts) != expected:
                return False
        return True

    @abstractmethod
    def _compute(self, *parts: Any) -> str:
        """Backend-specific digest computation (no accounting)."""

    def reset_counters(self) -> None:
        """Zero the call/compute counters (benchmarks call this between phases)."""
        self.digest_calls = 0
        self.digest_computes = 0
        self.batch_verifies = 0
        self.batched_shares = 0

    def describe(self) -> str:
        """Human-readable description used in reports and cache fingerprints."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(calls={self.digest_calls}, "
            f"computes={self.digest_computes})"
        )


class HashingBackend(CryptoBackend):
    """Canonicalise-and-BLAKE2b digests — the historical default.

    Digests are stable across runs, processes and machines, which makes this
    the right backend for tests with golden values and for anything written
    to disk.  It is also the slowest: every call re-canonicalises the whole
    payload structure and hashes it.
    """

    name = "hashing"

    def _compute(self, *parts: Any) -> str:
        self.digest_computes += 1
        return blake_digest(*parts)

    def _verify_batch(self, items: Sequence[tuple[tuple, str]]) -> bool:
        # Hoisted loop: no per-share method dispatch between hashes.
        for parts, expected in items:
            self.digest_computes += 1
            if blake_digest(*parts) != expected:
                return False
        return True


class CountingBackend(CryptoBackend):
    """O(1) structural tokens instead of hashes.

    Each distinct payload structure is interned on first sight and mapped to
    a short sequential token (``~0``, ``~1``, ...).  Equality semantics match
    :class:`HashingBackend` (lists equal tuples, sets are order-insensitive),
    so honest-and-Byzantine-as-modelled runs are semantically identical —
    the modelled adversary never forges proof strings, so nothing depends on
    digests being unguessable.  Two deliberate differences:

    * a token is the order in which its payload was first seen, so it
      means something only within its run: two runs of one config mint the
      same tokens, and tokens must never be compared across different runs
      or persisted;
    * payloads that are equal *as Python values* but canonicalise
      differently (``True`` vs ``1``) share a token here.  No protocol
      payload mixes such values in one position.

    The intern table grows with the number of distinct payloads in a run;
    for the simulation workloads this is bounded by views x n and has never
    been a concern.
    """

    name = "counting"

    def __init__(self) -> None:
        super().__init__()
        self._tokens: dict[Any, str] = {}

    @property
    def distinct_payloads(self) -> int:
        """Number of distinct payload structures interned so far."""
        return len(self._tokens)

    def _compute(self, *parts: Any) -> str:
        tokens = self._tokens
        key: Any = parts
        try:
            token = tokens.get(key)
        except TypeError:  # unhashable part (a list of signers, say)
            key = _freeze(parts)
            token = tokens.get(key)
        if token is None:
            self.digest_computes += 1
            token = f"~{len(tokens):x}"
            tokens[key] = token
        return token

    def _verify_batch(self, items: Sequence[tuple[tuple, str]]) -> bool:
        # Hoisted intern-table loop, same semantics as _compute per share: a
        # never-seen payload is interned (fresh token, a guaranteed mismatch
        # for any previously minted proof), a seen one is looked up O(1).
        tokens = self._tokens
        for parts, expected in items:
            key: Any = parts
            try:
                token = tokens.get(key)
            except TypeError:
                key = _freeze(parts)
                token = tokens.get(key)
            if token is None:
                self.digest_computes += 1
                token = f"~{len(tokens):x}"
                tokens[key] = token
            if token != expected:
                return False
        return True


#: Registered backend factories, keyed by the name used in configs.
_BACKEND_FACTORIES: dict[str, Callable[[], CryptoBackend]] = {
    "hashing": HashingBackend,
    "counting": CountingBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`make_backend` (and by the config layer)."""
    return tuple(sorted(_BACKEND_FACTORIES))


def make_backend(name: str) -> CryptoBackend:
    """Construct a fresh backend instance by registered name.

    A *fresh* instance matters: counting tokens are only meaningful within
    one run, so every scenario build gets its own.

    Raises
    ------
    ConfigurationError
        If ``name`` is not a registered backend name.
    """
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown crypto backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    return factory()

