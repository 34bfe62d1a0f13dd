"""The share collectors every pacemaker aggregates through.

Each pacemaker of Table 1 turns ``f+1`` or ``2f+1`` signed view messages
into a certificate or a view change; these two collectors are the one place
that checks a share (its signer is its sender, it signs the view's payload,
it is the first from that sender) and counts it:

* :class:`CertificateCollector` — collects shares per view and forms the
  threshold signature exactly once: Lumiere's and Fever's View Certificate
  (``f+1``, at the view's leader), the LP22 / RareSync Epoch Certificate
  (``2f+1``) and the Cogsworth / Naor-Keidar relay certificate (``f+1``).
* :class:`EpochMessageCollector` — counts broadcast shares per view at every
  processor and reports when a small (``f+1``) and a large (``2f+1``)
  threshold are first crossed: Lumiere's Timeout and Epoch Certificates, and
  the backoff pacemaker's "join the complaint" and "enter the view".

Each pacemaker keeps its own guards (view range, leadership) in front of
``add``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.consensus.quorum import release_below
from repro.crypto.threshold import PartialSignature, ThresholdScheme, ThresholdSignature
from repro.errors import CryptoError, ThresholdError


class CertificateCollector:
    """Aggregates partial signatures per view into a threshold signature."""

    def __init__(self, scheme: ThresholdScheme, threshold: int, payload_fn) -> None:
        self.scheme = scheme
        self.threshold = threshold
        self.payload_fn = payload_fn
        self._partials: dict[int, dict[int, PartialSignature]] = {}
        self._formed: set[int] = set()
        # The floor these tables were last released below (None before the
        # first release).
        self._released: Optional[int] = None
        # Sender -> VerifyingKey, resolved once: ``PKI.is_valid_digest``
        # re-derives the key (dict lookup behind a try/except) on every
        # share, and a leader sees each sender once per view.
        self._vkeys: dict[int, Any] = {}

    def _payload_and_digest(self, view: int) -> tuple:
        """``(payload, digest)`` for ``view``: the scheme digests each
        payload once (:meth:`ThresholdScheme.message_digest`), however many
        shares and replicas check it."""
        payload = self.payload_fn(view)
        return payload, self.scheme.message_digest(payload)

    def add(self, view: int, sender: int, partial: PartialSignature) -> Optional[ThresholdSignature]:
        """Record a share; return the aggregate the first time the threshold is met.

        The checks run cheapest-first: mismatched or duplicate senders are
        rejected before any signature verification happens — a re-delivered
        share costs two dict lookups, not a proof digest.
        """
        if view in self._formed or partial.signer != sender:
            return None
        bucket = self._partials.setdefault(view, {})
        if sender in bucket:
            return None
        payload, digest = self._payload_and_digest(view)
        if partial.message_digest != digest:
            return None
        key = self._verifying_key(sender)
        if key is None or not key.verify_digest(partial.signature, digest):
            return None
        bucket[sender] = partial
        if len(bucket) < self.threshold:
            return None
        try:
            aggregate = self.scheme.combine(
                list(bucket.values()),
                self.threshold,
                payload,
                message_digest=digest,
            )
        except ThresholdError:
            return None
        self._formed.add(view)
        del self._partials[view]  # the shares are dead once the certificate exists
        return aggregate

    def release_below(self, floor: int) -> None:
        """Forget every view below ``floor``."""
        release_below(floor, self._partials, self._formed, lowest=self._released)
        self._released = floor

    def _verifying_key(self, sender: int):
        key = self._vkeys.get(sender)
        if key is None:
            try:
                key = self.scheme.pki.verifying_key(sender)
            except CryptoError:
                return None
            self._vkeys[sender] = key
        return key

    def count(self, view: int) -> int:
        """Number of distinct valid shares collected for ``view``."""
        return len(self._partials.get(view, {}))

    def formed(self, view: int) -> bool:
        """Whether the aggregate for ``view`` has already been produced."""
        return view in self._formed


class EpochMessageCollector:
    """Counts distinct signers per view and reports two thresholds.

    ``add`` returns a pair of booleans ``(tc_now, ec_now)`` that are True the
    first time the respective threshold is crossed for the view: Lumiere's
    TC and EC over epoch-view messages, backoff's "join the complaint" and
    "enter the view" over view-change messages.
    """

    def __init__(self, scheme: ThresholdScheme, tc_threshold: int, ec_threshold: int, payload_fn) -> None:
        self.scheme = scheme
        self.tc_threshold = tc_threshold
        self.ec_threshold = ec_threshold
        self.payload_fn = payload_fn
        self._signers: dict[int, set[int]] = {}
        self._tc_reported: set[int] = set()
        self._ec_reported: set[int] = set()
        # The floor these tables were last released below (None before the
        # first release).
        self._released: Optional[int] = None
        # Sender -> VerifyingKey, resolved once (see CertificateCollector).
        self._vkeys: dict[int, Any] = {}

    def add(self, view: int, sender: int, partial: PartialSignature) -> tuple[bool, bool]:
        """Record an epoch-view message; report threshold crossings.

        Duplicate senders return early *before* signature verification:
        once a signer counted towards a view, re-verifying a re-broadcast
        cannot change either threshold answer (both thresholds are reported
        the instant the signer count reaches them), so the proof digest is
        pure waste — and every processor receives every broadcast, so the
        duplicate path is the common one under retransmission.
        """
        if partial.signer != sender:
            return (False, False)
        signers = self._signers.setdefault(view, set())
        if sender in signers:
            return (False, False)
        digest = self.scheme.message_digest(self.payload_fn(view))
        if partial.message_digest != digest:
            return (False, False)
        key = self._vkeys.get(sender)
        if key is None:
            try:
                key = self.scheme.pki.verifying_key(sender)
            except CryptoError:
                return (False, False)
            self._vkeys[sender] = key
        if not key.verify_digest(partial.signature, digest):
            return (False, False)
        signers.add(sender)
        tc_now = False
        ec_now = False
        if len(signers) >= self.tc_threshold and view not in self._tc_reported:
            self._tc_reported.add(view)
            tc_now = True
        if len(signers) >= self.ec_threshold and view not in self._ec_reported:
            self._ec_reported.add(view)
            ec_now = True
        return (tc_now, ec_now)

    def release_below(self, floor: int) -> None:
        """Forget every view below ``floor``."""
        release_below(
            floor, self._signers, self._tc_reported, self._ec_reported, lowest=self._released,
        )
        self._released = floor

    def count(self, view: int) -> int:
        """Distinct signers seen for ``view``."""
        return len(self._signers.get(view, set()))

    def has_tc(self, view: int) -> bool:
        """Whether a TC (``f+1`` signers) has been assembled for ``view``."""
        return view in self._tc_reported

    def has_ec(self, view: int) -> bool:
        """Whether an EC (``2f+1`` signers) has been assembled for ``view``."""
        return view in self._ec_reported
