"""Simulated digital signatures and PKI.

A :class:`Signature` over a message digest can only be produced through the
:class:`SigningKey` of the signer, which the simulation hands exclusively to
the owning processor.  Byzantine processors therefore can sign arbitrary
*contents* in their own name but can never forge signatures of honest
processors — exactly the adversary the paper assumes.

All digests flow through a :class:`~repro.crypto.backend.CryptoBackend`.
A key binds its backend at construction, and a :class:`PKI` threads one
backend into every key it generates — a whole key ceremony therefore agrees
on digest semantics by construction.  The ceremony hands out the secrets
``1..n`` in pid order, so it is a pure function of the processor ids: every
process that runs it (each worker of a process-lane cluster, a replay)
mints the same keys, and their shares verify under each other's PKI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.errors import CryptoError, InvalidSignature
from repro.crypto.backend import CryptoBackend, HashingBackend


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature by ``signer`` over ``message_digest``.

    The ``proof`` field binds the signature to the secret of the signer's
    key; :meth:`VerifyingKey.verify` recomputes it.
    """

    signer: int
    message_digest: str
    proof: str

    def __repr__(self) -> str:
        return f"Signature(signer={self.signer}, digest={self.message_digest[:8]}…)"


class SigningKey:
    """The private half of a key pair.  Only its owner can mint signatures."""

    __slots__ = ("owner", "_secret", "_backend")

    def __init__(self, owner: int, secret: int, backend: CryptoBackend) -> None:
        self.owner = owner
        self._secret = secret
        self._backend = backend

    def sign(self, message: Any) -> Signature:
        """Sign an arbitrary message (digested canonically first)."""
        return self.sign_digest(self._backend.digest(message))

    def sign_digest(self, message_digest: str) -> Signature:
        """Sign an already-computed message digest.

        The hot-path variant: callers that digested the message themselves
        (the threshold scheme hoists the digest out of its verify/aggregate
        loops) avoid a second canonicalisation here.
        """
        proof = self._backend.digest("sig", self.owner, self._secret, message_digest)
        return Signature(signer=self.owner, message_digest=message_digest, proof=proof)


class VerifyingKey:
    """The public half of a key pair."""

    __slots__ = ("owner", "_secret", "_backend")

    def __init__(self, owner: int, secret: int, backend: CryptoBackend) -> None:
        self.owner = owner
        self._secret = secret
        self._backend = backend

    def verify(self, signature: Signature, message: Any) -> bool:
        """Check that ``signature`` was produced by this key's owner over ``message``."""
        return self.verify_digest(signature, self._backend.digest(message))

    def verify_digest(self, signature: Signature, message_digest: str) -> bool:
        """:meth:`verify` for callers that already digested the message.

        Sound only when the caller computed ``message_digest`` itself (never
        trust a digest carried inside the object being verified).
        """
        if signature.signer != self.owner:
            return False
        if signature.message_digest != message_digest:
            return False
        expected = self._backend.digest(*self.proof_parts(message_digest))
        return signature.proof == expected

    def proof_parts(self, message_digest: str) -> tuple:
        """The digest parts whose digest is the expected proof over
        ``message_digest`` — the one place the proof recipe lives.

        :meth:`PKI.batch_verify_items` builds
        :meth:`~repro.crypto.backend.CryptoBackend.verify_batch` inputs from
        this, so batched and per-share verification recompute the exact same
        digests.
        """
        return ("sig", self.owner, self._secret, message_digest)


class PKI:
    """Public-key infrastructure: maps processor ids to verifying keys.

    The PKI also acts as the key-generation ceremony: :meth:`setup` creates a
    key pair per processor and returns the signing keys so the simulation can
    hand each one to its owner.  One :class:`~repro.crypto.backend.CryptoBackend`
    (a fresh :class:`~repro.crypto.backend.HashingBackend` unless given) is
    shared by the PKI and every key it generates.
    """

    def __init__(self, backend: Optional[CryptoBackend] = None) -> None:
        self.backend = backend if backend is not None else HashingBackend()
        self._verifying: dict[int, VerifyingKey] = {}

    @classmethod
    def setup(
        cls, processor_ids: Iterable[int], backend: Optional[CryptoBackend] = None
    ) -> tuple["PKI", dict[int, SigningKey]]:
        """Generate keys for every processor and register the public halves.

        The ``k``-th smallest pid gets secret ``k`` (from 1): the same ids
        always give the same keys, whatever was minted before.
        """
        pki = cls(backend=backend)
        signing_keys: dict[int, SigningKey] = {}
        for secret, pid in enumerate(sorted(processor_ids), start=1):
            pki._verifying[pid] = VerifyingKey(pid, secret, pki.backend)
            signing_keys[pid] = SigningKey(pid, secret, pki.backend)
        return pki, signing_keys

    @property
    def processor_ids(self) -> list[int]:
        """All processor ids with registered keys."""
        return sorted(self._verifying)

    def covers(self, signers: Iterable[int]) -> bool:
        """Whether every id in ``signers`` has a registered verifying key.

        A set-operation on the key view (no list/sort per call), used by
        aggregate verification on the hot path.
        """
        if not isinstance(signers, (set, frozenset)):
            signers = set(signers)
        return signers <= self._verifying.keys()

    def verifying_key(self, pid: int) -> VerifyingKey:
        """The verifying key for processor ``pid``."""
        try:
            return self._verifying[pid]
        except KeyError as exc:
            raise CryptoError(f"no verifying key registered for processor {pid}") from exc

    def verify(self, signature: Signature, message: Any) -> None:
        """Verify ``signature`` over ``message``; raise :class:`InvalidSignature` otherwise."""
        key = self.verifying_key(signature.signer)
        if not key.verify(signature, message):
            raise InvalidSignature(
                f"signature by {signature.signer} failed verification"
            )

    def is_valid(self, signature: Signature, message: Any) -> bool:
        """Boolean form of :meth:`verify`."""
        try:
            self.verify(signature, message)
        except CryptoError:
            return False
        return True

    def is_valid_digest(self, signature: Signature, message_digest: str) -> bool:
        """:meth:`is_valid` for callers that already digested the message."""
        try:
            key = self.verifying_key(signature.signer)
        except CryptoError:
            return False
        return key.verify_digest(signature, message_digest)

    def batch_verify_items(
        self, signatures: Iterable[Signature], message_digest: str
    ) -> Optional[list[tuple[tuple, str]]]:
        """Build :meth:`~repro.crypto.backend.CryptoBackend.verify_batch`
        input for a whole share set over one message digest.

        Performs the cheap structural checks of :meth:`is_valid_digest`
        (known signer, matching message digest) up front; if any signature
        fails one, the batch cannot possibly be all-valid and ``None`` is
        returned — callers then fall back to the per-share path, which sorts
        valid from invalid shares with identical results.  Otherwise returns
        one ``(proof_parts, expected_proof)`` pair per signature, so a
        single ``verify_batch`` call replaces the per-share digest loop.
        """
        verifying = self._verifying
        items: list[tuple[tuple, str]] = []
        for signature in signatures:
            key = verifying.get(signature.signer)
            if key is None or signature.message_digest != message_digest:
                return None
            items.append((key.proof_parts(message_digest), signature.proof))
        return items
