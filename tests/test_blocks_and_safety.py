"""Unit and property tests for blocks, the block tree, safety rules and ledgers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.blocks import Block, BlockTree, GENESIS
from repro.consensus.ledger import Ledger, ledgers_consistent
from repro.consensus.quorum import QuorumCertificate, VoteAggregator
from repro.consensus.safety import SafetyRules
from repro.crypto.signatures import PKI
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ConsensusError, SafetyViolation


def make_chain(tree: BlockTree, length: int, start_view: int = 0, parent: Block = GENESIS):
    """Build a chain of ``length`` blocks with consecutive views."""
    blocks = []
    for i in range(length):
        block = Block(
            view=start_view + i,
            parent_id=parent.block_id,
            proposer=i % 4,
            payload=(f"cmd-{start_view + i}",),
            justify_view=parent.view,
        )
        tree.add(block)
        blocks.append(block)
        parent = block
    return blocks


def make_qc(scheme: ThresholdScheme, keys, view: int, block_id: str, signers=range(3)):
    message = ("qc", view, block_id)
    partials = [scheme.partial_sign(keys[i], message) for i in signers]
    aggregate = scheme.combine(partials, threshold=len(list(signers)), message=message)
    return QuorumCertificate(view=view, block_id=block_id, aggregate=aggregate)


# ----------------------------------------------------------------------
# Block tree
# ----------------------------------------------------------------------
def test_genesis_is_always_present():
    tree = BlockTree()
    assert GENESIS.block_id in tree
    assert len(tree) == 1


def test_block_id_is_stable_and_content_derived():
    a = Block(view=1, parent_id=GENESIS.block_id, proposer=0, payload=("x",))
    b = Block(view=1, parent_id=GENESIS.block_id, proposer=0, payload=("x",))
    c = Block(view=1, parent_id=GENESIS.block_id, proposer=0, payload=("y",))
    assert a.block_id == b.block_id
    assert a.block_id != c.block_id


def test_add_rejects_unknown_parent():
    tree = BlockTree()
    orphan = Block(view=5, parent_id="deadbeef", proposer=1)
    with pytest.raises(ConsensusError):
        tree.add(orphan)


def test_chain_to_genesis_and_ancestry():
    tree = BlockTree()
    chain = make_chain(tree, 5)
    full = tree.chain_to_genesis(chain[-1])
    assert [b.view for b in full] == [4, 3, 2, 1, 0, -1]
    assert tree.is_ancestor(chain[0].block_id, chain[-1])
    assert tree.extends(chain[-1], chain[2].block_id)
    assert not tree.is_ancestor(chain[-1].block_id, chain[0])


def test_ancestry_across_forks():
    tree = BlockTree()
    trunk = make_chain(tree, 3)
    fork = Block(view=10, parent_id=trunk[0].block_id, proposer=2, payload=("fork",))
    tree.add(fork)
    assert tree.is_ancestor(trunk[0].block_id, fork)
    assert not tree.is_ancestor(trunk[2].block_id, fork)


def test_require_raises_for_unknown_block():
    tree = BlockTree()
    with pytest.raises(ConsensusError):
        tree.require("missing")


@settings(max_examples=40, deadline=None)
@given(length=st.integers(min_value=1, max_value=30), probe=st.integers(min_value=0, max_value=29))
def test_every_block_in_a_chain_is_an_ancestor_of_the_tip(length, probe):
    tree = BlockTree()
    chain = make_chain(tree, length)
    tip = chain[-1]
    index = min(probe, length - 1)
    assert tree.is_ancestor(chain[index].block_id, tip)


# ----------------------------------------------------------------------
# Vote aggregation
# ----------------------------------------------------------------------
def test_vote_aggregator_forms_qc_at_quorum(protocol_config, pki_and_keys, scheme):
    _, keys = pki_and_keys
    aggregator = VoteAggregator(scheme, quorum_size=3)
    block_id = "abc"
    message = ("qc", 2, block_id)
    assert aggregator.add_vote(2, block_id, scheme.partial_sign(keys[0], message)) is None
    assert aggregator.add_vote(2, block_id, scheme.partial_sign(keys[1], message)) is None
    qc = aggregator.add_vote(2, block_id, scheme.partial_sign(keys[2], message))
    assert qc is not None and qc.view == 2 and qc.signers == frozenset({0, 1, 2})
    # Further votes do not re-form the QC.
    assert aggregator.add_vote(2, block_id, scheme.partial_sign(keys[3], message)) is None


def test_vote_aggregator_ignores_duplicate_voters(pki_and_keys, scheme):
    _, keys = pki_and_keys
    aggregator = VoteAggregator(scheme, quorum_size=3)
    message = ("qc", 1, "b")
    for _ in range(5):
        assert aggregator.add_vote(1, "b", scheme.partial_sign(keys[0], message)) is None
    assert aggregator.votes_for(1, "b") == 1


def test_vote_aggregator_rejects_invalid_partials(pki_and_keys, scheme):
    _, keys = pki_and_keys
    aggregator = VoteAggregator(scheme, quorum_size=2)
    wrong_message = scheme.partial_sign(keys[0], ("qc", 9, "other"))
    assert aggregator.add_vote(1, "b", wrong_message) is None
    assert aggregator.votes_for(1, "b") == 0


# ----------------------------------------------------------------------
# Safety rules
# ----------------------------------------------------------------------
def test_high_qc_tracking(pki_and_keys, scheme):
    _, keys = pki_and_keys
    tree = BlockTree()
    chain = make_chain(tree, 3)
    rules = SafetyRules(tree)
    qc1 = make_qc(scheme, keys, 0, chain[0].block_id)
    qc2 = make_qc(scheme, keys, 2, chain[2].block_id)
    rules.update_high_qc(qc1)
    rules.update_high_qc(qc2)
    rules.update_high_qc(qc1)  # older QC must not regress the high QC
    assert rules.high_qc_view == 2


def test_voting_rule_rejects_old_views(pki_and_keys, scheme):
    tree = BlockTree()
    chain = make_chain(tree, 2)
    rules = SafetyRules(tree)
    rules.record_vote(chain[1])
    assert not rules.safe_to_vote(chain[0], None)
    assert not rules.safe_to_vote(chain[1], None)


def test_voting_rule_allows_extension_of_lock(pki_and_keys, scheme):
    _, keys = pki_and_keys
    tree = BlockTree()
    chain = make_chain(tree, 4)
    rules = SafetyRules(tree)
    # Certifying block 2 (whose justify is view 1) locks view 1.
    qc = make_qc(scheme, keys, 2, chain[2].block_id)
    rules.update_high_qc(qc)
    assert rules.state.locked_qc is not None and rules.state.locked_qc.view == 1
    extending = Block(
        view=5, parent_id=chain[3].block_id, proposer=0, payload=("z",), justify_view=3
    )
    tree.add(extending)
    assert rules.safe_to_vote(extending, None)


def test_voting_rule_rejects_fork_below_lock_without_newer_justify(pki_and_keys, scheme):
    _, keys = pki_and_keys
    tree = BlockTree()
    chain = make_chain(tree, 4)
    rules = SafetyRules(tree)
    rules.update_high_qc(make_qc(scheme, keys, 2, chain[2].block_id))  # lock view 1
    fork = Block(view=7, parent_id=GENESIS.block_id, proposer=1, payload=("fork",), justify_view=-1)
    tree.add(fork)
    assert not rules.safe_to_vote(fork, None)
    # With a justify newer than the lock the liveness clause admits it.
    newer_justify = make_qc(scheme, keys, 3, chain[3].block_id)
    assert rules.safe_to_vote(fork, newer_justify)


def test_three_chain_commit_rule(pki_and_keys, scheme):
    _, keys = pki_and_keys
    tree = BlockTree()
    chain = make_chain(tree, 5)
    rules = SafetyRules(tree)
    # QC for view 2 completes the 3-chain (0,1,2) and commits view 0.
    committed = rules.commit_candidate(make_qc(scheme, keys, 2, chain[2].block_id))
    assert [b.view for b in committed] == [0]
    # QC for view 4 commits views 1 and 2.
    committed = rules.commit_candidate(make_qc(scheme, keys, 4, chain[4].block_id))
    assert [b.view for b in committed] == [1, 2]


def test_commit_rule_requires_consecutive_views(pki_and_keys, scheme):
    _, keys = pki_and_keys
    tree = BlockTree()
    a = Block(view=0, parent_id=GENESIS.block_id, proposer=0)
    tree.add(a)
    b = Block(view=2, parent_id=a.block_id, proposer=1, justify_view=0)
    tree.add(b)
    c = Block(view=3, parent_id=b.block_id, proposer=2, justify_view=2)
    tree.add(c)
    rules = SafetyRules(tree)
    # Views 0,2,3 are not consecutive, so nothing commits.
    assert rules.commit_candidate(make_qc(scheme, keys, 3, c.block_id)) == []


def test_commit_is_monotonic(pki_and_keys, scheme):
    _, keys = pki_and_keys
    tree = BlockTree()
    chain = make_chain(tree, 6)
    rules = SafetyRules(tree)
    rules.commit_candidate(make_qc(scheme, keys, 4, chain[4].block_id))
    # Re-delivering an older QC commits nothing new.
    assert rules.commit_candidate(make_qc(scheme, keys, 2, chain[2].block_id)) == []


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
def test_ledger_orders_blocks_and_flattens_commands():
    ledger = Ledger(owner=0)
    a = Block(view=0, parent_id=GENESIS.block_id, proposer=0, payload=("a1", "a2"))
    b = Block(view=1, parent_id=a.block_id, proposer=1, payload=("b1",))
    assert ledger.commit(a, time=1.0, hold=True)
    assert ledger.commit(b, time=2.0)
    assert len(ledger) == 2
    assert ledger.block_ids == [a.block_id, b.block_id]
    assert list(ledger.views) == [0, 1] and list(ledger.commit_times) == [1.0, 2.0]
    # Only a held block is kept, and only until it is taken.
    assert ledger.take(0).payload == ("a1", "a2")
    for index in (0, 1):
        with pytest.raises(KeyError):
            ledger.take(index)


def test_ledger_rejects_out_of_order_commits():
    ledger = Ledger(owner=0)
    a = Block(view=5, parent_id=GENESIS.block_id, proposer=0)
    b = Block(view=3, parent_id=GENESIS.block_id, proposer=1)
    ledger.commit(a, time=1.0)
    with pytest.raises(SafetyViolation):
        ledger.commit(b, time=2.0)


def test_ledger_ignores_duplicate_commits():
    ledger = Ledger(owner=0)
    a = Block(view=0, parent_id=GENESIS.block_id, proposer=0)
    assert ledger.commit(a, time=1.0)
    assert not ledger.commit(a, time=2.0)
    assert len(ledger) == 1


def test_a_recommitted_block_is_recorded_once():
    from repro.experiments.scenario import ScenarioConfig, build_scenario
    from repro.runner import WorkloadConfig

    result = build_scenario(ScenarioConfig(n=4, workload=WorkloadConfig()))
    replica = result.replicas[0]
    block = Block(view=0, parent_id=GENESIS.block_id, proposer=0)
    replica.commit_block(block)
    replica.commit_block(block)
    assert len(replica.ledger) == 1
    assert [c.view for c in replica.metrics.commits_for(0)] == [0]
    assert replica.state_machine.applied_entries == 1


def test_ledgers_consistent_detects_prefix_relation():
    tree = BlockTree()
    chain = make_chain(tree, 3)
    l1, l2 = Ledger(0), Ledger(1)
    for block in chain:
        l1.commit(block, time=block.view)
    for block in chain[:2]:
        l2.commit(block, time=block.view)
    assert ledgers_consistent([l1, l2])


def test_ledgers_consistent_detects_divergence():
    tree = BlockTree()
    chain = make_chain(tree, 2)
    fork = Block(view=1, parent_id=chain[0].block_id, proposer=3, payload=("evil",))
    l1, l2 = Ledger(0), Ledger(1)
    l1.commit(chain[0], 0)
    l1.commit(chain[1], 1)
    l2.commit(chain[0], 0)
    l2.commit(fork, 1)
    assert not ledgers_consistent([l1, l2])
