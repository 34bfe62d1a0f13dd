"""Unit and property tests for the simulated cryptography layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.backend import blake_digest
from repro.crypto.signatures import PKI
from repro.crypto.threshold import ThresholdScheme
from repro.errors import CryptoError, InvalidSignature, ThresholdError


# ----------------------------------------------------------------------
# Hashing
# ----------------------------------------------------------------------
def test_digest_is_deterministic():
    assert blake_digest("a", 1, (2, 3)) == blake_digest("a", 1, (2, 3))


def test_digest_distinguishes_inputs():
    assert blake_digest("a", 1) != blake_digest("a", 2)
    assert blake_digest(("a", "b")) != blake_digest(("ab",))


def test_digest_handles_sets_and_dicts_stably():
    assert blake_digest({3, 1, 2}) == blake_digest({2, 3, 1})
    assert blake_digest({"k": 1, "j": 2}) == blake_digest({"j": 2, "k": 1})


@settings(max_examples=50, deadline=None)
@given(a=st.text(max_size=20), b=st.text(max_size=20))
def test_digest_concatenation_is_not_ambiguous(a, b):
    """Hashing parts separately differs from hashing their concatenation."""
    if a and b:
        assert blake_digest(a, b) == blake_digest(a, b)
        assert blake_digest(a + b) == blake_digest(a + b)
        # Distinct structures should (overwhelmingly) hash differently.
        if a != b:
            assert blake_digest(a, b) != blake_digest(b, a)


# ----------------------------------------------------------------------
# Signatures and PKI
# ----------------------------------------------------------------------
def test_sign_and_verify_roundtrip():
    pki, keys = PKI.setup([3])
    signature = keys[3].sign(("vote", 7))
    assert pki.verifying_key(3).verify(signature, ("vote", 7))


def test_signature_fails_on_tampered_message():
    pki, keys = PKI.setup([3])
    signature = keys[3].sign(("vote", 7))
    assert not pki.verifying_key(3).verify(signature, ("vote", 8))


def test_signature_fails_for_wrong_signer():
    pki, keys = PKI.setup([1, 2])
    signature = keys[1].sign("msg")
    assert not pki.verifying_key(2).verify(signature, "msg")


def test_pki_setup_and_verification(protocol_config):
    pki, keys = PKI.setup(protocol_config.processor_ids)
    assert pki.processor_ids == list(protocol_config.processor_ids)
    signature = keys[2].sign("hello")
    pki.verify(signature, "hello")
    assert pki.is_valid(signature, "hello")
    assert not pki.is_valid(signature, "tampered")


def test_pki_rejects_unknown_signer(protocol_config):
    pki, keys = PKI.setup(protocol_config.processor_ids)
    with pytest.raises(CryptoError):
        pki.verifying_key(99)


def test_forged_proof_rejected(protocol_config):
    pki, keys = PKI.setup(protocol_config.processor_ids)
    signature = keys[0].sign("msg")
    forged = type(signature)(signer=1, message_digest=signature.message_digest, proof=signature.proof)
    with pytest.raises(InvalidSignature):
        pki.verify(forged, "msg")


# ----------------------------------------------------------------------
# Threshold signatures
# ----------------------------------------------------------------------
def test_threshold_combine_and_verify(scheme, pki_and_keys, protocol_config):
    _, keys = pki_and_keys
    message = ("qc", 5, "blockhash")
    partials = [scheme.partial_sign(keys[i], message) for i in range(3)]
    aggregate = scheme.combine(partials, threshold=3, message=message)
    assert scheme.verify(aggregate, message)
    assert aggregate.size == 3
    assert aggregate.signers == frozenset({0, 1, 2})


def test_threshold_rejects_insufficient_shares(scheme, pki_and_keys):
    _, keys = pki_and_keys
    message = ("qc", 5, "h")
    partials = [scheme.partial_sign(keys[i], message) for i in range(2)]
    with pytest.raises(ThresholdError):
        scheme.combine(partials, threshold=3, message=message)


def test_threshold_ignores_duplicate_signers(scheme, pki_and_keys):
    _, keys = pki_and_keys
    message = ("qc", 1, "h")
    partials = [scheme.partial_sign(keys[0], message)] * 5
    with pytest.raises(ThresholdError):
        scheme.combine(partials, threshold=2, message=message)


def test_threshold_ignores_shares_for_other_messages(scheme, pki_and_keys):
    _, keys = pki_and_keys
    good = [scheme.partial_sign(keys[i], ("qc", 1)) for i in range(2)]
    stray = [scheme.partial_sign(keys[3], ("qc", 2))]
    with pytest.raises(ThresholdError):
        scheme.combine(good + stray, threshold=3, message=("qc", 1))


def test_threshold_verify_fails_on_wrong_message(scheme, pki_and_keys):
    _, keys = pki_and_keys
    message = ("qc", 5, "h")
    partials = [scheme.partial_sign(keys[i], message) for i in range(3)]
    aggregate = scheme.combine(partials, threshold=3, message=message)
    assert not scheme.verify(aggregate, ("qc", 6, "h"))


def test_threshold_rejects_nonpositive_threshold(scheme):
    with pytest.raises(ThresholdError):
        scheme.combine([], threshold=0, message="m")


def test_partial_verification(scheme, pki_and_keys):
    _, keys = pki_and_keys
    partial = scheme.partial_sign(keys[1], "msg")
    assert scheme.verify_partial(partial, "msg")
    assert not scheme.verify_partial(partial, "other")


@settings(max_examples=30, deadline=None)
@given(
    signer_count=st.integers(min_value=1, max_value=7),
    threshold=st.integers(min_value=1, max_value=7),
)
def test_threshold_combination_succeeds_iff_enough_distinct_signers(signer_count, threshold):
    pki, keys = PKI.setup(range(7))
    scheme = ThresholdScheme(pki)
    message = ("property", signer_count, threshold)
    partials = [scheme.partial_sign(keys[i], message) for i in range(signer_count)]
    if signer_count >= threshold:
        aggregate = scheme.combine(partials, threshold=threshold, message=message)
        assert scheme.verify(aggregate, message)
        assert aggregate.size == signer_count
    else:
        with pytest.raises(ThresholdError):
            scheme.combine(partials, threshold=threshold, message=message)
