"""Simulated ``m``-of-``n`` threshold signatures.

The paper uses two thresholds: ``f+1`` (View Certificates, Timeout
Certificates) and ``2f+1`` (Quorum Certificates, Epoch Certificates).  A
:class:`ThresholdSignature` is O(kappa)-sized regardless of ``m`` and ``n``;
here we keep the signer set only so that tests and metrics can inspect who
contributed — the object still *counts* as a single constant-size message
component, matching the paper's complexity accounting.

All digest work flows through the scheme's
:class:`~repro.crypto.backend.CryptoBackend` (shared with the PKI).  The
scheme is shared by every replica of a run (every replica of a worker, on
the process lanes), and it digests each small message tuple it signs or
verifies once (:meth:`ThresholdScheme.message_digest`): a QC's
``("qc", view, block_id)`` is signed by every voter, checked by its leader
share by share, combined and then verified by every replica, and all of
them read one digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import ThresholdError
from repro.crypto.signatures import PKI, Signature, SigningKey

#: Aggregates per generation of the verified cache; two are kept.  Replicas
#: verify a certificate within a few views of its minting, so the last
#: 512-1024 serve a run of any length, and a miss only recomputes.
_VERIFIED_GENERATION = 512

#: Message digests per generation of the digest memo; two are kept.  A
#: message is signed and verified within a few views of its first digest.
_DIGEST_GENERATION = 256


@dataclass(frozen=True, slots=True)
class PartialSignature:
    """One processor's share towards a threshold signature on ``message_digest``."""

    signer: int
    message_digest: str
    signature: Signature

    def __repr__(self) -> str:
        return f"PartialSignature(signer={self.signer}, digest={self.message_digest[:8]}…)"


@dataclass(frozen=True, slots=True)
class ThresholdSignature:
    """An aggregated signature of at least ``threshold`` distinct processors."""

    message_digest: str
    threshold: int
    signers: frozenset[int]
    proof: str

    @property
    def size(self) -> int:
        """Number of distinct contributing signers."""
        return len(self.signers)

    def __repr__(self) -> str:
        return (
            f"ThresholdSignature(digest={self.message_digest[:8]}…, "
            f"threshold={self.threshold}, signers={sorted(self.signers)})"
        )


class ThresholdScheme:
    """Aggregation and verification of partial signatures.

    One scheme instance is shared by all processors (it holds only the
    PKI).  Minting a partial share still requires the signer's private
    :class:`SigningKey`, and an aggregate's proof is keyed by the PKI's
    aggregation secret, which only :meth:`combine` applies, after verifying
    the shares, so the unforgeability argument carries over from
    :mod:`repro.crypto.signatures`.

    Parameters
    ----------
    pki:
        The public-key infrastructure shares are verified against.  The
        scheme digests with the PKI's backend, which keeps the whole
        ceremony (keys, shares, aggregates) on one digest semantics.
    cache_verified:
        Whether :meth:`verify` remembers aggregates that already verified
        (default on).  The scheme instance is shared by every replica of a
        run, and each replica independently verifies the same certificate
        as it arrives, so without the cache the O(n) signer-set digest is
        recomputed n times per certificate — the dominant crypto cost of
        large-``n`` runs under the hashing backend.  A hit costs a lookup
        of the (memoised) message digest; the cache key binds everything the
        proof recomputation would check (message digest, threshold, signer
        set, proof string), so a hit and a recomputation always agree.
        The same cache holds the partial shares this scheme minted, keyed
        by proof, message digest and signer: :meth:`verify_partial` of one
        of them is a lookup.  Disable it to measure the raw
        per-verification seam cost (``benchmarks/bench_scaling.py`` does
        for its pipeline microbenchmark).
    batch_verify:
        Whether :meth:`combine` verifies a quorum of shares through one
        :meth:`~repro.crypto.backend.CryptoBackend.verify_batch` call —
        one digest dispatch per quorum instead of one per share — falling
        back to the bit-identical per-share loop whenever the batch is not
        all-valid (default on; off is the per-share reference path).
    """

    def __init__(
        self, pki: PKI, cache_verified: bool = True, batch_verify: bool = True
    ) -> None:
        self.pki = pki
        self.backend = pki.backend
        self.batch_verify = batch_verify
        self._verified: Optional[set[tuple[str, str, int, frozenset[int]]]] = (
            set() if cache_verified else None
        )
        self._verified_before: set = set()  # the previous generation
        # message -> backend digest, young and old generation.
        self._digests: dict[Any, str] = {}
        self._digests_before: dict[Any, str] = {}
        #: Number of :meth:`verify` calls served from the verified cache.
        self.verify_cache_hits = 0
        #: Number of :meth:`combine` calls whose whole quorum verified in
        #: one batched call.
        self.batched_combines = 0
        #: Number of :meth:`combine` calls that fell back to the per-share
        #: loop (some share failed the batch, or batching is off).
        self.combine_fallbacks = 0

    # ------------------------------------------------------------------
    # Message digests
    # ------------------------------------------------------------------
    def message_digest(self, message: Any) -> str:
        """The backend's digest of ``message``, computed once per scheme.

        ``message`` is one of the small hashable tuples the protocol signs
        (``("qc", view, block_id)``, a pacemaker's ``(tag, view)``); equal
        messages have equal digests, so every replica sharing the scheme
        reads the first one's.  Keys are the receiver's own message tuples,
        never a digest read off the wire.  Bounded as two generations of
        ``_DIGEST_GENERATION`` messages.
        """
        digest = self._digests.get(message)
        if digest is None:
            digest = self._digests_before.get(message)
            if digest is None:
                digest = self.backend.digest(message)
                if len(self._digests) >= _DIGEST_GENERATION:
                    self._digests_before, self._digests = self._digests, {}
                self._digests[message] = digest
        return digest

    # ------------------------------------------------------------------
    # Shares
    # ------------------------------------------------------------------
    def partial_sign(
        self,
        key: SigningKey,
        message: Any,
        message_digest: Optional[str] = None,
    ) -> PartialSignature:
        """Create this signer's share over ``message``.

        ``message_digest`` must be the caller's own digest of ``message``
        (see :meth:`verify_partial`); omitted, it is
        :meth:`message_digest`'s.
        """
        if message_digest is None:
            message_digest = self.message_digest(message)
        signature = key.sign_digest(message_digest)
        if self._verified is not None:
            # Like a freshly combined aggregate: the replicas sharing this
            # scheme find a share minted here already verified.
            self._remember((signature.proof, message_digest, key.owner))
        return PartialSignature(
            signer=key.owner, message_digest=message_digest, signature=signature
        )

    def verify_partial(
        self,
        partial: PartialSignature,
        message: Any,
        message_digest: Optional[str] = None,
    ) -> bool:
        """Check one share against the PKI.

        With the verified cache on, a share this scheme minted
        (:meth:`partial_sign` remembers each) is known valid without a
        recomputation: the leader of a view finds its co-located voters'
        shares there.  ``message_digest`` lets loop-shaped callers
        (``combine``, the certificate collectors) canonicalise the message
        once; it must be the caller's own digest of ``message``, never one
        read off the wire.
        """
        if message_digest is None:
            message_digest = self.message_digest(message)
        if partial.message_digest != message_digest:
            return False
        signature = partial.signature
        if self._verified is not None:
            key = (signature.proof, message_digest, signature.signer)
            if key in self._verified or key in self._verified_before:
                return True
        return self.pki.is_valid_digest(signature, message_digest)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def combine(
        self,
        partials: Sequence[PartialSignature],
        threshold: int,
        message: Any,
        message_digest: Optional[str] = None,
    ) -> ThresholdSignature:
        """Aggregate shares into a threshold signature.

        With ``batch_verify`` on (the default), the shares matching the
        message digest are verified through **one**
        :meth:`~repro.crypto.backend.CryptoBackend.verify_batch` call — the
        amortised verify-on-aggregate path, one digest dispatch per quorum
        instead of one per share.  Any share failing the batch (or its cheap
        pre-checks) drops the whole combine to the per-share loop, whose
        outcome is bit-identical to the historical behaviour: the fast path
        only ever accepts sets of shares the slow path would also accept.

        Raises :class:`ThresholdError` if there are fewer than ``threshold``
        *distinct valid* signers.
        """
        if threshold <= 0:
            raise ThresholdError(f"threshold must be positive, got {threshold}")
        if message_digest is None:
            message_digest = self.message_digest(message)
        matching = [p for p in partials if p.message_digest == message_digest]
        valid_signers: set[int] = set()
        batched = False
        if self.batch_verify and matching:
            items = self.pki.batch_verify_items(
                [p.signature for p in matching], message_digest
            )
            batched = items is not None and self.backend.verify_batch(items)
        if batched:
            self.batched_combines += 1
            valid_signers.update(partial.signer for partial in matching)
        elif matching:
            self.combine_fallbacks += 1
            for partial in matching:
                if self.pki.is_valid_digest(partial.signature, message_digest):
                    valid_signers.add(partial.signer)
        if len(valid_signers) < threshold:
            raise ThresholdError(
                f"need {threshold} distinct valid shares, got {len(valid_signers)}"
            )
        signers = frozenset(valid_signers)
        proof = self._proof(message_digest, threshold, signers)
        if self._verified is not None:
            # Seed the verified cache with the freshly minted aggregate: the
            # scheme instance is shared by every replica of a run, so each
            # recipient's first verify of this certificate is already a
            # cache hit — the O(n) signer-set digest happens exactly once,
            # here.
            self._remember((proof, message_digest, threshold, signers))
        return ThresholdSignature(
            message_digest=message_digest,
            threshold=threshold,
            signers=signers,
            proof=proof,
        )

    def verify(
        self,
        aggregate: ThresholdSignature,
        message: Any,
        quorum: int,
        message_digest: Optional[str] = None,
    ) -> bool:
        """Verify an aggregate of at least ``quorum`` signers over ``message``.

        ``quorum`` is the size the protocol forms this kind of certificate
        at (``f+1`` or ``2f+1``), never the sender's ``threshold``; it is
        checked before the verified cache.  A cache hit — every replica
        checks every QC as it arrives — costs two lookups instead of
        re-digesting the O(n) signer set.  As with :meth:`verify_partial`,
        ``message_digest`` must be the caller's own digest of ``message``.
        """
        if aggregate.size < quorum:
            return False
        if message_digest is None:
            message_digest = self.message_digest(message)
        if aggregate.message_digest != message_digest:
            return False
        verified = self._verified
        if verified is not None:
            key = (
                aggregate.proof,
                message_digest,
                aggregate.threshold,
                aggregate.signers,
            )
            if key in verified or key in self._verified_before:
                self.verify_cache_hits += 1
                return True
        if aggregate.proof != self._proof(
            message_digest, aggregate.threshold, aggregate.signers
        ):
            return False
        if verified is not None:
            self._remember(key)
        return True

    def _proof(self, message_digest: str, threshold: int, signers: frozenset[int]) -> str:
        """One digest of the message digest, threshold, signer set (the
        frozenset the aggregate carries: its cached hash keeps a counting
        lookup O(1)) and the PKI's aggregation secret.  Only :meth:`combine`,
        after verifying the shares, and :meth:`verify` compute it.
        """
        return self.backend.digest(
            "threshold", message_digest, threshold, signers, self.pki._aggregation_secret
        )

    def _remember(self, key: tuple) -> None:
        """Add ``key`` to the verified cache, rotating generations when full."""
        if len(self._verified) >= _VERIFIED_GENERATION:
            self._verified_before, self._verified = self._verified, set()
        self._verified.add(key)
