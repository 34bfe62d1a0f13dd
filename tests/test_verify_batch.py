"""Batched certificate verification: semantics, misuse, and accounting.

The batched path (``CryptoBackend.verify_batch`` driven by
``ThresholdScheme.combine``) is an amortisation, not a semantic change: for
every input — including adversarial ones (duplicate shares, shares over the
wrong message or epoch, forged proofs, unknown signers, sub-threshold sets)
— a batching scheme and a per-share scheme over the same PKI must produce
the same aggregate or raise the same error.  This module checks that
equivalence across all three backends, plus the backend-level counter
contract (one ``digest_calls`` per batch, real work still counted in
``digest_computes``) and the verified-cache seeding at combine.
"""

from __future__ import annotations

import pytest

from repro.crypto.backend import available_backends, make_backend
from repro.crypto.signatures import PKI, Signature
from repro.crypto.threshold import PartialSignature, ThresholdScheme
from repro.errors import ThresholdError

N = 7
THRESHOLD = 5  # 2f+1 for n=7
MESSAGE = ("qc", 3, "block-3-feed")


@pytest.fixture(params=available_backends())
def backend_name(request):
    return request.param


def build_schemes(backend_name):
    """One PKI, two schemes over it: batched and per-share reference."""
    backend = make_backend(backend_name)
    pki, keys = PKI.setup(range(N), backend=backend)
    batched = ThresholdScheme(pki, cache_verified=False, batch_verify=True)
    reference = ThresholdScheme(pki, cache_verified=False, batch_verify=False)
    return pki, keys, batched, reference


def combine_outcome(scheme, partials, threshold=THRESHOLD, message=MESSAGE):
    """``("ok", aggregate)`` or ``("error", message)`` — comparable across schemes."""
    try:
        return ("ok", scheme.combine(partials, threshold, message))
    except ThresholdError as exc:
        return ("error", str(exc))


class TestBackendVerifyBatch:
    def test_valid_batch_accepts_and_counts(self, backend_name):
        backend = make_backend(backend_name)
        items = [
            ((("share", i), "payload"), backend.digest(("share", i), "payload"))
            for i in range(5)
        ]
        backend.reset_counters()
        assert backend.verify_batch(items)
        assert backend.digest_calls == 1  # the whole batch is one call
        assert backend.batch_verifies == 1
        assert backend.batched_shares == 5

    def test_one_bad_item_rejects_whole_batch(self, backend_name):
        backend = make_backend(backend_name)
        items = [
            ((("share", i), "payload"), backend.digest(("share", i), "payload"))
            for i in range(5)
        ]
        items[3] = (items[3][0], "not-the-digest")
        assert not backend.verify_batch(items)

    def test_batched_matches_per_item_digest_loop(self, backend_name):
        batched = make_backend(backend_name)
        looped = make_backend(backend_name)
        parts_list = [("sig", i, 1000 + i, "md") for i in range(6)]
        # Expected values minted through each backend's own digest stream so
        # counting tokens line up instance-locally.
        batched_items = [(parts, batched.digest(*parts)) for parts in parts_list]
        looped_items = [(parts, looped.digest(*parts)) for parts in parts_list]
        assert batched.verify_batch(batched_items)
        assert all(looped.digest(*parts) == expected for parts, expected in looped_items)

    def test_empty_batch_is_vacuously_valid(self, backend_name):
        backend = make_backend(backend_name)
        assert backend.verify_batch([])
        assert backend.batched_shares == 0

    def test_reset_counters_clears_batch_accounting(self, backend_name):
        backend = make_backend(backend_name)
        backend.verify_batch([((1, 2), backend.digest(1, 2))])
        backend.reset_counters()
        assert backend.digest_calls == 0
        assert backend.batch_verifies == 0
        assert backend.batched_shares == 0


class TestCombineEquivalence:
    """Batched and per-share combine agree on every input, all backends."""

    def test_valid_quorum(self, backend_name):
        _, keys, batched, reference = build_schemes(backend_name)
        partials = [batched.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD)]
        status_b, agg_b = combine_outcome(batched, partials)
        status_r, agg_r = combine_outcome(reference, partials)
        assert status_b == status_r == "ok"
        assert agg_b == agg_r
        assert agg_b.signers == frozenset(range(THRESHOLD))
        assert batched.batched_combines == 1
        assert batched.combine_fallbacks == 0
        assert reference.batched_combines == 0

    def test_duplicate_shares_do_not_inflate_the_signer_count(self, backend_name):
        _, keys, batched, reference = build_schemes(backend_name)
        partials = [batched.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD - 1)]
        partials += [partials[0]] * 3  # 4 distinct signers padded to 7 shares
        for scheme in (batched, reference):
            status, detail = combine_outcome(scheme, partials)
            assert status == "error"
            assert "distinct valid shares" in detail

    def test_duplicate_shares_with_enough_distinct_signers(self, backend_name):
        _, keys, batched, reference = build_schemes(backend_name)
        partials = [batched.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD)]
        partials += partials[:2]
        status_b, agg_b = combine_outcome(batched, partials)
        status_r, agg_r = combine_outcome(reference, partials)
        assert status_b == status_r == "ok"
        assert agg_b == agg_r

    def test_shares_over_the_wrong_message_are_excluded(self, backend_name):
        _, keys, batched, reference = build_schemes(backend_name)
        wrong = ("qc", 3, "block-3-d00d")  # same view, different block
        partials = [batched.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD - 1)]
        partials.append(batched.partial_sign(keys[6], wrong))
        for scheme in (batched, reference):
            status, detail = combine_outcome(scheme, partials)
            assert status == "error"
            assert "distinct valid shares" in detail

    def test_shares_over_the_wrong_epoch_are_excluded(self, backend_name):
        _, keys, batched, reference = build_schemes(backend_name)
        other_epoch = ("qc", 4, "block-3-feed")
        partials = [batched.partial_sign(keys[i], other_epoch) for i in range(N)]
        for scheme in (batched, reference):
            status, _ = combine_outcome(scheme, partials)
            assert status == "error"
        # No shares match the digest, so the batch path never even engages.
        assert batched.batched_combines == 0
        assert batched.combine_fallbacks == 0

    def test_mismatched_inner_digest_forces_identical_fallback(self, backend_name):
        # A partial whose *outer* digest matches but whose wrapped signature
        # was minted over a different message: the batch pre-check refuses
        # to build items, and the per-share loop rejects the same signer.
        _, keys, batched, reference = build_schemes(backend_name)
        good = [batched.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD)]
        other = batched.partial_sign(keys[6], ("qc", 99, "elsewhere"))
        frankenstein = PartialSignature(
            signer=6,
            message_digest=good[0].message_digest,
            signature=other.signature,
        )
        partials = good + [frankenstein]
        status_b, agg_b = combine_outcome(batched, partials)
        status_r, agg_r = combine_outcome(reference, partials)
        assert status_b == status_r == "ok"
        assert agg_b == agg_r
        assert 6 not in agg_b.signers
        assert batched.combine_fallbacks == 1
        assert batched.batched_combines == 0

    def test_forged_proof_forces_identical_fallback(self, backend_name):
        _, keys, batched, reference = build_schemes(backend_name)
        good = [batched.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD)]
        digest = good[0].message_digest
        forged = PartialSignature(
            signer=6,
            message_digest=digest,
            signature=Signature(signer=6, message_digest=digest, proof="forged"),
        )
        partials = good + [forged]
        status_b, agg_b = combine_outcome(batched, partials)
        status_r, agg_r = combine_outcome(reference, partials)
        assert status_b == status_r == "ok"
        assert agg_b == agg_r
        assert 6 not in agg_b.signers
        assert batched.combine_fallbacks == 1

    def test_unknown_signer_forces_identical_fallback(self, backend_name):
        _, keys, batched, reference = build_schemes(backend_name)
        good = [batched.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD)]
        digest = good[0].message_digest
        stranger = PartialSignature(
            signer=99,  # no key registered
            message_digest=digest,
            signature=Signature(signer=99, message_digest=digest, proof="whatever"),
        )
        partials = good + [stranger]
        status_b, agg_b = combine_outcome(batched, partials)
        status_r, agg_r = combine_outcome(reference, partials)
        assert status_b == status_r == "ok"
        assert agg_b == agg_r
        assert 99 not in agg_b.signers
        assert batched.combine_fallbacks == 1

    def test_sub_threshold_quorum_rejected_identically(self, backend_name):
        _, keys, batched, reference = build_schemes(backend_name)
        partials = [batched.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD - 1)]
        outcome_b = combine_outcome(batched, partials)
        outcome_r = combine_outcome(reference, partials)
        assert outcome_b == outcome_r
        assert outcome_b[0] == "error"
        # A batch of all-valid shares still batches — the threshold shortfall
        # is discovered after verification, identically on both paths.
        assert batched.batched_combines == 1

    def test_aggregates_verify_identically_across_paths(self, backend_name):
        _, keys, batched, reference = build_schemes(backend_name)
        partials = [batched.partial_sign(keys[i], MESSAGE) for i in range(N)]
        agg_b = batched.combine(partials, THRESHOLD, MESSAGE)
        agg_r = reference.combine(partials, THRESHOLD, MESSAGE)
        assert agg_b == agg_r
        assert batched.verify(agg_r, MESSAGE, THRESHOLD)
        assert reference.verify(agg_b, MESSAGE, THRESHOLD)
        assert not batched.verify(agg_b, ("qc", 3, "other-block"), THRESHOLD)


class TestVerifiedCacheSeeding:
    def test_combine_seeds_the_verified_cache(self, backend_name):
        backend = make_backend(backend_name)
        pki, keys = PKI.setup(range(N), backend=backend)
        scheme = ThresholdScheme(pki)  # cache on, batching on
        partials = [scheme.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD)]
        aggregate = scheme.combine(partials, THRESHOLD, MESSAGE)
        assert scheme.verify_cache_hits == 0
        # Every recipient's *first* verify is already a cache hit: the mint
        # at combine seeded the shared scheme's cache.
        assert scheme.verify(aggregate, MESSAGE, THRESHOLD)
        assert scheme.verify_cache_hits == 1

    def test_cache_disabled_scheme_still_verifies(self, backend_name):
        backend = make_backend(backend_name)
        pki, keys = PKI.setup(range(N), backend=backend)
        scheme = ThresholdScheme(pki, cache_verified=False)
        partials = [scheme.partial_sign(keys[i], MESSAGE) for i in range(THRESHOLD)]
        aggregate = scheme.combine(partials, THRESHOLD, MESSAGE)
        assert scheme.verify(aggregate, MESSAGE, THRESHOLD)
        assert scheme.verify_cache_hits == 0

