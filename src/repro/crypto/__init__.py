"""Simulated cryptography.

The paper assumes perfect cryptographic primitives: authenticated channels,
a PKI-backed signature scheme, and an ``m``-of-``n`` threshold signature
scheme (``m`` is ``f+1`` or ``2f+1``).  Only message counts and O(kappa)
sizes matter to the results, so this package provides lightweight objects
whose unforgeability is enforced *by construction*: a signature share can
only be minted through the :class:`SigningKey` held by the corresponding
processor, and aggregation refuses duplicate signers or too-few shares.

The digest primitive everything reduces to is pluggable — see
:mod:`repro.crypto.backend` for the hashing and counting backends
and how a scenario selects one.
"""

from repro.crypto.backend import (
    CountingBackend,
    CryptoBackend,
    HashingBackend,
    available_backends,
    blake_digest,
    get_default_backend,
    make_backend,
    set_default_backend,
    use_backend,
)
from repro.crypto.hashing import digest
from repro.crypto.signatures import KeyPair, PKI, Signature, SigningKey, VerifyingKey
from repro.crypto.threshold import PartialSignature, ThresholdScheme, ThresholdSignature

__all__ = [
    "CountingBackend",
    "CryptoBackend",
    "HashingBackend",
    "KeyPair",
    "PKI",
    "PartialSignature",
    "Signature",
    "SigningKey",
    "ThresholdScheme",
    "ThresholdSignature",
    "VerifyingKey",
    "available_backends",
    "blake_digest",
    "digest",
    "get_default_backend",
    "make_backend",
    "set_default_backend",
    "use_backend",
]
