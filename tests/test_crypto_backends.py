"""Tests for the pluggable crypto backends and their threading through the stack.

Covers the backend registry and semantics, threshold-signature misuse under
**each** backend, the key ceremony and block ids as functions of their
inputs alone, and the end-to-end claim that backends (and batched share
verification) only change digest work, never protocol outcomes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import ProtocolConfig
from repro.consensus.blocks import Block
from repro.crypto.backend import (
    CountingBackend,
    HashingBackend,
    available_backends,
    blake_digest,
    make_backend,
)
from repro.crypto.signatures import PKI, SigningKey
from repro.crypto.threshold import PartialSignature, ThresholdScheme
from repro.errors import ConfigurationError, ThresholdError
from repro.experiments.scenario import ScenarioConfig, build_scenario, start_replicas
from repro.runner.campaign import spec_key

ALL_BACKENDS = ("hashing", "counting")


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    """One fresh instance of every registered backend."""
    return make_backend(request.param)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_names_and_unknown_backend():
    assert set(ALL_BACKENDS) <= set(available_backends())
    with pytest.raises(ConfigurationError, match="unknown crypto backend"):
        make_backend("sha3-but-wrong")


def test_make_backend_returns_fresh_instances():
    assert make_backend("counting") is not make_backend("counting")


def test_protocol_config_rejects_unknown_backend():
    with pytest.raises(ConfigurationError, match="unknown crypto backend"):
        ProtocolConfig(n=4, crypto_backend="nope")


# ----------------------------------------------------------------------
# Digest semantics shared by every backend
# ----------------------------------------------------------------------
def test_equal_payloads_get_equal_digests(backend):
    assert backend.digest("a", 1, (2, 3)) == backend.digest("a", 1, (2, 3))


def test_distinct_payloads_get_distinct_digests(backend):
    seen = {
        backend.digest("a", 1),
        backend.digest("a", 2),
        backend.digest(("a", "b")),
        backend.digest(("ab",)),
    }
    assert len(seen) == 4


def test_sets_and_dicts_are_order_insensitive(backend):
    assert backend.digest({3, 1, 2}) == backend.digest({2, 3, 1})
    assert backend.digest({"k": 1, "j": 2}) == backend.digest({"j": 2, "k": 1})


def test_unhashable_parts_are_supported(backend):
    """Sorted signer lists (the threshold proof payload shape) digest fine."""
    first = backend.digest("threshold", "d", 3, [0, 1, 2])
    again = backend.digest("threshold", "d", 3, [0, 1, 2])
    other = backend.digest("threshold", "d", 3, [0, 1, 3])
    assert first == again
    assert first != other


def test_lists_and_tuples_are_interchangeable(backend):
    """canonical_bytes treats lists and tuples identically; so must every backend."""
    assert backend.digest([1, 2]) == backend.digest((1, 2))


def test_unhashable_dataclass_payloads_are_supported(backend):
    """A dataclass with a list-valued field must digest under every backend."""
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ListyMessage:
        view: int
        ids: list

    first = backend.digest(ListyMessage(view=1, ids=[3, 4]))
    again = backend.digest(ListyMessage(view=1, ids=[3, 4]))
    other = backend.digest(ListyMessage(view=1, ids=[3, 5]))
    assert first == again
    assert first != other


# ----------------------------------------------------------------------
# Backend-specific behaviour
# ----------------------------------------------------------------------
def test_hashing_backend_matches_pure_function():
    backend = HashingBackend()
    assert backend.digest("x", 1) == blake_digest("x", 1)


def test_counting_backend_mints_compact_tokens():
    backend = CountingBackend()
    token = backend.digest("block", 3, "parent", 0, ())
    assert token.startswith("~")
    assert backend.distinct_payloads == 1
    assert backend.digest("block", 3, "parent", 0, ()) == token
    assert backend.distinct_payloads == 1  # served from the intern table


def test_counting_backend_counts_calls_and_computes():
    backend = CountingBackend()
    backend.digest("a")
    backend.digest("a")
    backend.digest("b")
    assert backend.digest_calls == 3
    assert backend.digest_computes == 2


def test_reset_counters(backend):
    backend.digest("something")
    backend.reset_counters()
    assert backend.digest_calls == 0
    assert backend.digest_computes == 0


# ----------------------------------------------------------------------
# Threshold-signature misuse under each backend (satellite)
# ----------------------------------------------------------------------
def _scheme_with_keys(backend, n=4):
    pki, keys = PKI.setup(range(n), backend=backend)
    return ThresholdScheme(pki), keys


def test_duplicate_signers_rejected(backend):
    scheme, keys = _scheme_with_keys(backend)
    message = ("qc", 1, "h")
    partials = [scheme.partial_sign(keys[0], message)] * 5
    with pytest.raises(ThresholdError, match="distinct valid shares"):
        scheme.combine(partials, threshold=2, message=message)


def test_below_threshold_aggregation_raises(backend):
    scheme, keys = _scheme_with_keys(backend)
    message = ("qc", 5, "h")
    partials = [scheme.partial_sign(keys[i], message) for i in range(2)]
    with pytest.raises(ThresholdError):
        scheme.combine(partials, threshold=3, message=message)


def test_forged_partial_from_non_owner_key_fails_verification(backend):
    """An attacker signing with its *own* key cannot impersonate a victim."""
    scheme, keys = _scheme_with_keys(backend)
    message = ("qc", 9, "victim-block")
    attacker_key = SigningKey(3, 0, backend)  # a secret the PKI never issued
    honest = scheme.partial_sign(keys[3], message)
    forged = PartialSignature(
        signer=3,
        message_digest=honest.message_digest,
        signature=attacker_key.sign(message),
    )
    assert scheme.verify_partial(honest, message)
    assert not scheme.verify_partial(forged, message)
    good = [scheme.partial_sign(keys[i], message) for i in range(2)]
    with pytest.raises(ThresholdError):
        scheme.combine(good + [forged], threshold=3, message=message)


@pytest.mark.parametrize("batch_verify", [True, False], ids=["batched", "per-share"])
def test_relabelled_shares_count_for_nothing(backend, batch_verify):
    """Replica 3's one share, relabelled as signers 0, 1 and 3, is valid only
    for key 3: ``verify_partial`` refuses the relabelled copies and
    ``combine`` does not count them, on either verification path."""
    pki, keys = PKI.setup(range(4), backend=backend)
    scheme = ThresholdScheme(pki, batch_verify=batch_verify)
    message = ("qc", 7, "victim-block")
    share = scheme.partial_sign(keys[3], message)
    relabelled = [dataclasses.replace(share, signer=signer) for signer in (0, 1, 3)]
    assert [scheme.verify_partial(p, message) for p in relabelled] == [False, False, True]
    with pytest.raises(ThresholdError, match="got 1"):
        scheme.combine(relabelled, threshold=3, message=message)
    # Nor does a share whose digest differs from its signature's.
    other = scheme.partial_sign(keys[0], ("qc", 8, "victim-block"))
    mixed = dataclasses.replace(other, message_digest=share.message_digest)
    assert not scheme.verify_partial(mixed, message)


def test_key_ceremony_is_a_pure_function_of_the_pids(backend):
    """Keys minted before a ceremony do not change it: two ceremonies over
    the same pids (two worker processes, a replay) accept each other's
    shares."""
    PKI.setup(range(7), backend=backend)  # unrelated keys first
    first, first_keys = _scheme_with_keys(backend)
    second, _ = _scheme_with_keys(backend)
    message = ("qc", 4, "h")
    partial = first.partial_sign(first_keys[2], message)
    assert second.verify_partial(partial, message)


def test_block_ids_do_not_follow_the_last_built_scenario():
    """A block id is a content hash: which backend the last scenario was
    built with does not change the id a new block gets."""
    fields = (3, "parent", 1, ("cmd",))
    build_scenario(ScenarioConfig(n=4, crypto_backend="counting"))
    block_id = Block(*fields).block_id
    assert block_id == blake_digest("block", *fields)
    build_scenario(ScenarioConfig(n=4, crypto_backend="hashing"))
    assert Block(*fields).block_id == block_id


def test_roundtrip_and_verify_under_each_backend(backend):
    scheme, keys = _scheme_with_keys(backend)
    message = ("qc", 5, "blockhash")
    partials = [scheme.partial_sign(keys[i], message) for i in range(3)]
    aggregate = scheme.combine(partials, threshold=3, message=message)
    assert scheme.verify(aggregate, message, 3)
    assert not scheme.verify(aggregate, ("qc", 6, "blockhash"), 3)


# ----------------------------------------------------------------------
# End to end: backends change digest representation, not protocol outcomes
# ----------------------------------------------------------------------
def _run(backend_name, batch_verify=True):
    result = build_scenario(
        ScenarioConfig(
            n=4,
            pacemaker="lumiere",
            delta=1.0,
            actual_delay=0.1,
            gst=0.0,
            duration=40.0,
            seed=0,
            crypto_backend=backend_name,
        )
    )
    result.replicas[0].scheme.batch_verify = batch_verify  # the run's one scheme
    start_replicas(result.replicas)
    result.simulator.run(until=result.config.duration)
    return result


def test_backends_produce_identical_decisions_and_stay_safe():
    results = {name: _run(name) for name in ALL_BACKENDS}
    decision_counts = {name: r.honest_decisions() for name, r in results.items()}
    assert len(set(decision_counts.values())) == 1, decision_counts
    for result in results.values():
        assert result.ledgers_are_consistent()
        assert result.committed_blocks() > 0
    # Counting genuinely avoids recomputation; hashing computes every
    # request.  A verify_batch counts as ONE call however many shares it
    # hashes, so hashing's computes exceed its calls by exactly the
    # per-share dispatches that batched combine amortised away.
    counting = results["counting"].crypto_backend
    hashing = results["hashing"].crypto_backend
    assert counting.digest_computes < counting.digest_calls
    saved = hashing.batched_shares - hashing.batch_verifies
    assert hashing.batch_verifies > 0  # QCs formed, so combine batched
    assert hashing.digest_computes == hashing.digest_calls + saved
    # The per-share reference path (batching off) decides the same run.
    batched = results["hashing"]
    per_share = _run("hashing", batch_verify=False)
    assert per_share.residues() == batched.residues()
    assert per_share.metrics.decisions == batched.metrics.decisions
    assert per_share.metrics.counts["qc_count"] == batched.metrics.counts["qc_count"] > 0
    assert per_share.replicas[0].scheme.combine_fallbacks > 0
    assert batched.replicas[0].scheme.batched_combines > 0
    assert per_share.crypto_backend.batch_verifies == 0


def test_counting_proofs_are_a_function_of_the_run():
    """Two fresh counting runs of one config in one process mint identical
    proofs: no token depends on the backends the process made before."""
    first, second = (_run("counting").replicas[0].safety.state.high_qc for _ in range(2))
    assert first.view > 0 and first.aggregate.proof == second.aggregate.proof


def test_spec_key_distinguishes_backends():
    base = ScenarioConfig(n=4, seed=0, duration=40.0)
    counting = ScenarioConfig(n=4, seed=0, duration=40.0, crypto_backend="counting")
    assert spec_key(base) != spec_key(counting)
    assert spec_key(base) == spec_key(ScenarioConfig(n=4, seed=0, duration=40.0))
