"""Integration tests for the baseline pacemakers (LP22, Fever, Cogsworth,
NK20, RareSync, exponential backoff) and the comparative behaviours that
Table 1 and Figure 1 rest on."""

from __future__ import annotations

import dataclasses

import pytest

from repro.consensus.blocks import Block, GENESIS_ID
from repro.consensus.messages import NewView, Proposal, QCAnnounce, Vote
from repro.consensus.quorum import QuorumCertificate, ShareCollector
from repro.core.messages import ViewCertificate, ViewMessage, view_message_payload
from repro.faults.attacks import spread_corruption, worst_case_clock_dispersion_model
from repro.faults.behaviours import SilentLeaderBehaviour
from repro.faults.corruption import CorruptionPlan
from repro.experiments.scenario import (
    ScenarioConfig, build_scenario, run_scenario, start_replicas,
)
from repro.pacemakers.backoff import (
    ExponentialBackoffPacemaker, ViewChangeMessage, backoff_payload,
)
from repro.pacemakers.cogsworth import RelayCertificate, WishMessage, cogsworth_wish_payload
from repro.pacemakers.fever import FeverViewCertificate, FeverViewMessage, fever_view_payload
from repro.pacemakers.lp22 import LP22EpochCertificate, LP22EpochViewMessage, lp22_epoch_payload
from repro.pacemakers.registry import available_pacemakers, make_pacemaker_factory
from repro.config import ProtocolConfig
from repro.consensus.engine import ChainedHotStuff
from repro.errors import ConfigurationError, SafetyViolation, ThresholdError


def scenario(pacemaker, n=4, duration=250.0, **kwargs) -> ScenarioConfig:
    defaults = dict(
        n=n,
        pacemaker=pacemaker,
        delta=1.0,
        actual_delay=0.1,
        gst=0.0,
        duration=duration,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


ALL_PACEMAKERS = available_pacemakers()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_lists_all_protocols():
    assert set(ALL_PACEMAKERS) == {
        "lumiere",
        "basic-lumiere",
        "lp22",
        "fever",
        "cogsworth",
        "naor-keidar",
        "raresync",
        "backoff",
    }


def test_registry_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        make_pacemaker_factory("not-a-protocol", ProtocolConfig(n=4))


def test_registry_accepts_underscore_aliases():
    factory = make_pacemaker_factory("naor_keidar", ProtocolConfig(n=4))
    assert callable(factory)


# ----------------------------------------------------------------------
# Liveness and safety for every protocol (fault-free and with one fault)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pacemaker", ALL_PACEMAKERS)
def test_fault_free_liveness_and_safety(pacemaker):
    result = run_scenario(scenario(pacemaker, duration=150.0))
    assert result.honest_decisions() > 10, f"{pacemaker} made too little progress"
    assert result.ledgers_are_consistent()
    assert result.committed_blocks() > 5


@pytest.mark.parametrize("pacemaker", ALL_PACEMAKERS)
def test_liveness_and_safety_with_one_silent_leader(pacemaker):
    config = scenario(pacemaker, duration=400.0)
    config.corruption = spread_corruption(config.protocol_config(), 1, SilentLeaderBehaviour)
    result = run_scenario(config)
    assert result.honest_decisions() > 10, f"{pacemaker} stalled with one fault"
    assert result.ledgers_are_consistent()


@pytest.mark.parametrize("pacemaker", ["lumiere", "lp22", "fever", "cogsworth", "backoff"])
def test_recovery_after_gst(pacemaker):
    config = scenario(pacemaker, n=4, duration=500.0, gst=40.0, seed=2)
    protocol_config = config.protocol_config()
    config.corruption = spread_corruption(protocol_config, 1, SilentLeaderBehaviour)
    config.delay_model = worst_case_clock_dispersion_model(
        protocol_config, config.actual_delay, pre_gst_max_delay=40.0
    )
    result = run_scenario(config)
    post_gst = [d for d in result.metrics.honest_decisions() if d.time > config.gst]
    assert len(post_gst) > 5, f"{pacemaker} did not recover after GST"
    assert result.ledgers_are_consistent()


@pytest.mark.parametrize("pacemaker", ALL_PACEMAKERS)
def test_view_monotonicity(pacemaker):
    result = run_scenario(scenario(pacemaker, duration=120.0))
    for pid in result.corruption.honest_ids:
        views = [event.value for event in result.metrics.events("enter_view", pid)]
        assert views == sorted(views), f"{pacemaker} violated view monotonicity at p{pid}"


# ----------------------------------------------------------------------
# Protocol-specific behaviours
# ----------------------------------------------------------------------
def test_lp22_heavy_syncs_every_epoch():
    result = run_scenario(scenario("lp22", duration=200.0))
    # Epochs are f+1 = 2 views; every epoch boundary requires a heavy sync.
    assert result.metrics.epoch_syncs_after(0.0) >= 10


def test_lp22_epoch_boundary_wait_versus_lumiere_responsiveness():
    """The Figure-1 contrast in miniature: LP22's largest fault-free decision gap
    spans the epoch-boundary clock wait; Lumiere's stays at network speed."""
    lp22 = run_scenario(scenario("lp22", duration=200.0))
    lumiere = run_scenario(scenario("lumiere", duration=200.0))
    lp22_gaps = lp22.metrics.decision_gaps(after=30.0)
    lumiere_gaps = lumiere.metrics.decision_gaps(after=30.0)
    assert max(lp22_gaps) > 3 * max(lumiere_gaps)


def test_fever_runs_at_network_speed_without_faults():
    result = run_scenario(scenario("fever", duration=150.0))
    gaps = result.metrics.decision_gaps(after=20.0)
    assert max(gaps) <= 6 * result.config.actual_delay + 1e-6


def test_fever_worst_gap_scales_with_faults_not_n():
    config = scenario("fever", n=7, duration=500.0)
    config.corruption = spread_corruption(config.protocol_config(), 1, SilentLeaderBehaviour)
    result = run_scenario(config)
    gamma = 2 * (result.protocol_config.x + 1) * result.config.delta
    gaps = result.metrics.decision_gaps(after=60.0)
    assert max(gaps) <= 2 * gamma + 4 * result.config.delta


def test_raresync_is_not_optimistically_responsive():
    """RareSync's decision gaps track Gamma even when the network is fast."""
    result = run_scenario(scenario("raresync", duration=150.0))
    gaps = result.metrics.decision_gaps(after=20.0)
    gamma = (result.protocol_config.x + 1) * result.config.delta
    assert min(gaps) >= gamma / 2


def test_backoff_pacemaker_uses_quadratic_view_changes():
    """Every view change in the backoff pacemaker is an all-to-all broadcast."""
    config = scenario("backoff", duration=300.0)
    config.corruption = spread_corruption(config.protocol_config(), 1, SilentLeaderBehaviour)
    result = run_scenario(config)
    kinds = result.metrics.message_kinds_between(0.0, float("inf"))
    assert kinds.get("ViewChangeMessage", 0) > 0


def test_cogsworth_relay_certificates_bring_processors_into_views():
    config = scenario("cogsworth", duration=300.0)
    config.corruption = spread_corruption(config.protocol_config(), 1, SilentLeaderBehaviour)
    result = run_scenario(config)
    kinds = result.metrics.message_kinds_between(0.0, float("inf"))
    assert kinds.get("WishMessage", 0) > 0
    assert kinds.get("RelayCertificate", 0) > 0


def test_naor_keidar_contacts_more_relays_per_wish_than_cogsworth():
    n = 7
    results = {}
    for name in ("cogsworth", "naor-keidar"):
        config = scenario(name, n=n, duration=300.0)
        config.corruption = CorruptionPlan.uniform(
            config.protocol_config(), [1, 4], SilentLeaderBehaviour
        )
        results[name] = run_scenario(config)
    cogs = results["cogsworth"].metrics.message_kinds_between(0.0, float("inf"))
    nk = results["naor-keidar"].metrics.message_kinds_between(0.0, float("inf"))
    assert nk.get("WishMessage", 0) > cogs.get("WishMessage", 0)


def test_lumiere_eventual_communication_beats_lp22_per_decision():
    """Row 2 of Table 1 in miniature: steady-state messages per decision."""
    lp22 = run_scenario(scenario("lp22", n=7, duration=400.0))
    lumiere = run_scenario(scenario("lumiere", n=7, duration=400.0))
    lp22_eventual = lp22.summary().eventual_communication
    lumiere_eventual = lumiere.summary().eventual_communication
    assert lp22_eventual is not None and lumiere_eventual is not None
    assert lumiere_eventual < lp22_eventual


# ----------------------------------------------------------------------
# A share delivered under another sender's name counts for nothing
# ----------------------------------------------------------------------
REPLAY_PATHS = {
    # path: (pacemaker, share message, signed payload, the quorum of each
    # crossing)
    "lumiere": ("lumiere", ViewMessage, view_message_payload, ("small_quorum_size",)),
    "fever": ("fever", FeverViewMessage, fever_view_payload, ("small_quorum_size",)),
    "lp22": ("lp22", LP22EpochViewMessage, lp22_epoch_payload, ("quorum_size",)),
    "cogsworth": ("cogsworth", WishMessage, cogsworth_wish_payload, ("small_quorum_size",)),
    # Join the complaint, then enter the view.
    "backoff": (
        "backoff", ViewChangeMessage, backoff_payload, ("small_quorum_size", "quorum_size"),
    ),
    # The engine's vote, for the block the view's leader proposed.
    "vote": ("lumiere", None, None, ("quorum_size",)),
}


def _crossings(replica, sent, view) -> tuple[bool, ...]:
    """Which of the path's thresholds ``replica`` has crossed for ``view``."""
    if isinstance(replica.pacemaker, ExponentialBackoffPacemaker):
        joined = any(isinstance(msg, ViewChangeMessage) and msg.view == view for msg in sent)
        return (joined, replica.current_view == view)
    certificates = (
        ViewCertificate, FeverViewCertificate, LP22EpochCertificate, RelayCertificate, QCAnnounce,
    )
    return (any(isinstance(msg, certificates) and msg.view == view for msg in sent),)


def _propose(replica, sent, view) -> str:
    """Have ``replica``, the leader of ``view``, enter it and propose on a
    quorum of NewViews (``sent`` collects its broadcasts); the id of the
    block it proposed."""
    replica.pacemaker.enter_view(view)
    for pid in range(replica.config.quorum_size):
        replica.on_message(NewView(view=view, high_qc=None), pid)
    return next(msg.block.block_id for msg in sent if isinstance(msg, Proposal))


@pytest.mark.parametrize("path", sorted(REPLAY_PATHS))
def test_a_replayed_share_counts_for_nothing(path):
    """b's valid share arriving from a is dropped without an error, and each
    threshold is crossed exactly when its count of real senders arrives."""
    pacemaker, message, payload, quorums = REPLAY_PATHS[path]
    result = build_scenario(scenario(pacemaker))
    view = 10  # an initial view (Fever, Lumiere) and an LP22 epoch view at n=4
    receiver = result.replicas[0].pacemaker.leader_of(view)
    replica = result.replicas[receiver]
    sent: list = []
    replica.broadcast = sent.append
    config = result.config.protocol_config()
    thresholds = [getattr(config, quorum) for quorum in quorums]
    if path == "vote":
        block_id = _propose(replica, sent, view)

        def payload(view: int) -> tuple:
            return ("qc", view, block_id)

        def message(view: int, partial) -> Vote:
            return Vote(view=view, block_id=block_id, partial=partial)

    def deliver(signer: int, sender: int) -> None:
        share = replica.scheme.partial_sign(
            result.replicas[signer].signing_key, payload(view)
        )
        replica.on_message(message(view=view, partial=share), sender)

    a, b, *others = range(config.n)
    deliver(b, a)
    assert _crossings(replica, sent, view) == (False,) * len(thresholds)
    collectors = [
        table for owner in (replica.engine, replica.pacemaker) for table in vars(owner).values()
        if isinstance(table, ShareCollector)
    ]
    assert collectors and all(collector.count(view) == 0 for collector in collectors)
    for count, sender in enumerate([b, *others], start=1):
        deliver(sender, sender)
        expected = tuple(count >= threshold for threshold in thresholds)
        assert _crossings(replica, sent, view) == expected, f"after {count} senders"
    certificate = next(
        (getattr(msg, "qc", msg) for msg in sent if hasattr(msg, "aggregate") or hasattr(msg, "qc")),
        None,
    )
    if certificate is not None:
        assert a not in certificate.aggregate.signers
        assert certificate.aggregate.size == thresholds[0]


def test_one_signature_relabelled_as_three_votes_forms_no_qc():
    """Replica 3 signs the vote for an honest leader's block once and sends
    it three times, labelled as signers 0, 1 and 3: the leader counts it
    once, for replica 3, and forms no QC."""
    result = build_scenario(scenario("lumiere"))
    view = next(v for v in range(10, 100, 2) if result.replicas[0].leader_of(v) != 3)
    replica = result.replicas[result.replicas[0].leader_of(view)]
    sent: list = []
    replica.broadcast = sent.append
    block_id = _propose(replica, sent, view)
    share = replica.scheme.partial_sign(result.replicas[3].signing_key, ("qc", view, block_id))
    for signer in (0, 1, 3):
        vote = Vote(view=view, block_id=block_id, partial=dataclasses.replace(share, signer=signer))
        replica.on_message(vote, 3)
    assert replica.engine.votes.count(view) == 1
    assert not any(isinstance(msg, QCAnnounce) for msg in sent)
    assert replica.safety.high_qc is None


# ----------------------------------------------------------------------
# A certificate under its protocol quorum counts for nothing
# ----------------------------------------------------------------------
UNKNOWN_BLOCK = "f" * 64


def _qc_before(view: int) -> tuple:
    """The signed message of a QC for the view before ``view``."""
    return ("qc", view - 1, UNKNOWN_BLOCK)


def _new_view_with_qc(view: int, aggregate) -> NewView:
    """A NewView for ``view`` carrying a QC for the view before it."""
    qc = QuorumCertificate(view=view - 1, block_id=UNKNOWN_BLOCK, aggregate=aggregate)
    return NewView(view=view, high_qc=qc)


FORGED_CERTIFICATES = {
    # acceptance site: (pacemaker, signed payload, the frame that carries it)
    "engine-qc": ("lumiere", _qc_before, _new_view_with_qc),
    "lumiere-vc": ("lumiere", view_message_payload, ViewCertificate),
    "lp22-ec": ("lp22", lp22_epoch_payload, LP22EpochCertificate),
    "fever-vc": ("fever", fever_view_payload, FeverViewCertificate),
    "relay": ("cogsworth", cogsworth_wish_payload, RelayCertificate),
}


def _one_signer_aggregate(forger, message):
    """``forger``'s own share, combined at threshold 1."""
    share = forger.scheme.partial_sign(forger.signing_key, message)
    return forger.scheme.combine([share], 1, message)


@pytest.mark.parametrize("site", sorted(FORGED_CERTIFICATES))
def test_a_one_signer_certificate_moves_nothing(site):
    """Replica 3 certifies a view at least 50 ahead with its share alone;
    replica 0's view, high QC and commits stay where they were."""
    pacemaker, payload, frame = FORGED_CERTIFICATES[site]
    result = run_scenario(scenario(pacemaker, duration=5.0))
    receiver, forger = result.replicas[0], result.replicas[3]
    # An initial view (Lumiere, Fever) and an LP22 epoch view at n=4, led by
    # replica 0 so that it reads a NewView for it.
    view = next(
        v for v in range(receiver.current_view + 51, receiver.current_view + 200)
        if v % 2 == 0 and receiver.leader_of(v) == 0
    )

    def state() -> tuple:
        return receiver.current_view, receiver.safety.state.high_qc, len(receiver.ledger)

    before = state()
    receiver.on_message(
        frame(view=view, aggregate=_one_signer_aggregate(forger, payload(view))), 3
    )
    assert state() == before


def _relabelled_aggregate(forger, message):
    """``forger``'s one share, relabelled as signers 0, 1 and 3 and combined
    at the QC quorum.  ``combine`` counts a share only for the key that
    signed it, so when it refuses, the forger relabels its one-signer
    aggregate by hand."""
    share = forger.scheme.partial_sign(forger.signing_key, message)
    relabelled = [dataclasses.replace(share, signer=signer) for signer in (0, 1, 3)]
    quorum = forger.config.quorum_size
    try:
        return forger.scheme.combine(relabelled, quorum, message)
    except ThresholdError:
        return dataclasses.replace(
            _one_signer_aggregate(forger, message),
            threshold=quorum, signers=frozenset({0, 1, 3}),
        )


@pytest.mark.parametrize("pacemaker", ["lumiere", "fever", "lp22"])
def test_one_forged_qc_does_not_stop_the_run(pacemaker):
    """At t=5 replica 3 announces a QC 50 views ahead, for a block nobody
    has, to the three others: one signed by it alone, or its one share
    relabelled as three signers.  By t=60 each has committed at least 90 %
    of what it commits in the clean run."""
    config = scenario(pacemaker, duration=60.0, seed=0)
    clean = run_scenario(config)
    for forge in (_one_signer_aggregate, _relabelled_aggregate):
        attacked = build_scenario(config)
        start_replicas(attacked.replicas)
        attacked.simulator.run(until=5.0)
        forger = attacked.replicas[3]
        view = forger.current_view + 50
        qc = QuorumCertificate(
            view=view, block_id=UNKNOWN_BLOCK,
            aggregate=forge(forger, ("qc", view, UNKNOWN_BLOCK)),
        )
        for pid in range(3):
            attacked.replicas[pid].on_message(QCAnnounce(view=view, qc=qc, block=None), 3)
        attacked.simulator.run(until=60.0)
        for pid in range(3):
            commits = len(attacked.replicas[pid].ledger)
            assert commits >= 0.9 * len(clean.replicas[pid].ledger) > 0, (
                forge.__name__, pid, commits,
            )


#: How replica 3, leading a view after t=5, bends the one proposal it sends.
MALFORMED_PROPOSALS = {
    # The block is of a view far ahead of the proposal's.
    "far-view": lambda block: dataclasses.replace(block, view=block.view + 10**6),
    # The block's parent is genesis, though its justify is the high QC.
    "genesis-parent": lambda block: dataclasses.replace(
        block, parent_id=GENESIS_ID, justify_view=-1
    ),
}


def _bent_run(pacemaker: str, bend, count_votes: bool = False):
    """An n=4 run to t=60 in which replica 3 passes the first proposal with
    a justify it broadcasts after t=5 to ``bend``, and broadcasts what
    that returns, if anything (and, with ``count_votes``, counts votes for
    it as the block it proposed); the run and the bent block's id."""
    attacked = build_scenario(scenario(pacemaker, duration=60.0, seed=0))
    forger = attacked.replicas[3]
    broadcast, bent = forger.broadcast, []

    def send(msg) -> None:
        if isinstance(msg, Proposal) and msg.justify is not None and forger.now >= 5.0 and not bent:
            block = bend(msg.block)
            bent.append(msg.block.block_id if block is None else block.block_id)
            if block is None:
                return
            if count_votes:
                forger.engine._proposed_views[msg.view] = block.block_id
            msg = Proposal(view=msg.view, block=block, justify=msg.justify)
        broadcast(msg)

    forger.broadcast = send
    start_replicas(attacked.replicas)
    attacked.simulator.run(until=60.0)
    assert bent, "replica 3 proposed nothing after t=5"
    return attacked, bent[0]


@pytest.mark.parametrize("pacemaker", ALL_PACEMAKERS)
@pytest.mark.parametrize("malformation", sorted(MALFORMED_PROPOSALS))
def test_a_malformed_proposal_is_dropped(pacemaker, malformation):
    """Replica 3 sends one proposal whose block is not of the proposal's view
    or does not extend its justify.  No replica commits that block, and by
    t=60 each honest one has committed at least 90 % of what it commits
    when replica 3 withholds that proposal instead.  (A failed view is what
    a dropped proposal costs: it is Lumiere's and Fever's wait for the next
    clock boundary, 24 s of 60 at this seed, so the clean run is no bound.)"""
    withheld, _ = _bent_run(pacemaker, lambda block: None)
    attacked, forged = _bent_run(pacemaker, MALFORMED_PROPOSALS[malformation])
    for pid in range(3):
        ledger = attacked.replicas[pid].ledger
        assert forged not in ledger.block_ids
        commits = len(ledger)
        assert commits >= 0.9 * len(withheld.replicas[pid].ledger) > 0, (pid, commits)


def _propose_without_the_proposal_rule(engine, msg, sender):
    """The engine's proposal handler before its proposal rule: a proposal
    from its view's leader is stored and voted on, whatever its block
    extends."""
    replica = engine.replica
    if sender != replica.leader_of(msg.view):
        return
    if msg.justify is not None:
        engine._learn_qc(msg.justify)
    engine._store_block(msg.block)
    if msg.view > replica.current_view:
        engine._pending_proposals[msg.view] = (msg, sender)
    elif msg.view == replica.current_view:
        engine._vote_on(msg)


def test_a_committed_block_must_extend_the_last_committed_one(monkeypatch):
    """With the proposal rule taken out, replica 3's genesis-parent proposal
    is certified (replica 3 counts the votes for it) and reaches the 3-chain
    rule, which hands it to the ledger after blocks it does not extend: the
    ledger raises, naming the replica, the view and both ids.  (Without the
    ledger's check, all three honest replicas committed it and their
    ledgers still read as prefix-consistent.)"""
    monkeypatch.setattr(ChainedHotStuff, "_handle_proposal", _propose_without_the_proposal_rule)
    with pytest.raises(
        SafetyViolation,
        match=r"replica \d committed block \w+ of view \d+, whose parent genesis is not "
        r"the last committed block \w+",
    ):
        _bent_run("lumiere", MALFORMED_PROPOSALS["genesis-parent"], count_votes=True)


@pytest.mark.parametrize("certifies", ["another-block", "the-carried-block"])
def test_a_qc_announce_stores_only_a_certified_block(certifies):
    """Replica 3 announces a one-signer QC carrying a block far ahead, whose
    parent replica 0 lacks: the QC fails ``verify``, so replica 0's tree and
    orphans stay as they were (the block is stored only after its QC
    verifies, and only if the QC certifies it)."""
    result = run_scenario(scenario("lumiere", duration=5.0))
    receiver, forger = result.replicas[0], result.replicas[3]
    view = receiver.current_view + 1000
    block = Block(view=view, parent_id=UNKNOWN_BLOCK, proposer=3)
    block_id = block.block_id if certifies == "the-carried-block" else UNKNOWN_BLOCK
    qc = QuorumCertificate(
        view=view, block_id=block_id,
        aggregate=_one_signer_aggregate(forger, ("qc", view, block_id)),
    )
    tree, orphans = dict(receiver.tree._blocks), dict(receiver.engine._orphans)
    receiver.on_message(QCAnnounce(view=view, qc=qc, block=block), 3)
    assert receiver.tree._blocks == tree
    assert receiver.engine._orphans == orphans


@pytest.mark.parametrize("site", sorted(set(FORGED_CERTIFICATES) - {"engine-qc"}))
def test_a_failed_certificate_does_not_use_up_the_first_sight(site):
    """A one-signer certificate for a view, then the genuine one for the same
    view: the first fails ``verify`` and must not be marked as seen, so the
    replica moves into the view on the second."""
    pacemaker, payload, frame = FORGED_CERTIFICATES[site]
    result = run_scenario(scenario(pacemaker, duration=5.0))
    receiver = result.replicas[0]
    view = next(
        v for v in range(receiver.current_view + 51, receiver.current_view + 200) if v % 2 == 0
    )
    config = result.config.protocol_config()
    quorum = config.quorum_size if site == "lp22-ec" else config.small_quorum_size
    message = payload(view)
    shares = [
        receiver.scheme.partial_sign(result.replicas[pid].signing_key, message)
        for pid in range(quorum)
    ]
    genuine = receiver.scheme.combine(shares, quorum, message)
    receiver.on_message(
        frame(view=view, aggregate=_one_signer_aggregate(result.replicas[3], message)), 3
    )
    assert receiver.current_view < view
    receiver.on_message(frame(view=view, aggregate=genuine), 3)
    assert receiver.current_view == view


# ----------------------------------------------------------------------
# The pacemaker hears of each QC once
# ----------------------------------------------------------------------
def _deliveries(replica, qc: QuorumCertificate) -> list:
    """``(frame, sender)`` pairs that carry ``qc`` on each path into the
    engine: a QCAnnounce, a NewView's high QC at the leader of its view,
    and a proposal's justify from the leader of the view after ``qc``'s."""
    led = next(v for v in range(qc.view + 1, qc.view + 400) if replica.leader_of(v) == replica.pid)
    proposer = replica.leader_of(qc.view + 1)
    block = Block(view=qc.view + 1, parent_id=qc.block_id, proposer=proposer, payload=())
    return [
        (QCAnnounce(view=qc.view, qc=qc, block=None), 3),
        (NewView(view=led, high_qc=qc), 3),
        (Proposal(view=qc.view + 1, block=block, justify=qc), proposer),
    ]


@pytest.mark.parametrize("pacemaker", ALL_PACEMAKERS)
def test_each_qc_reaches_the_pacemaker_once(pacemaker):
    """``Pacemaker.on_qc`` keeps no first-sight mark of its own: the engine
    hands it each QC once, whichever path brings it first and however often
    it comes again — above the floor, and first seen below it (a replica
    that was cut off learns a failed view's QC after committing past it)."""
    result = run_scenario(scenario(pacemaker, gst=5.0, duration=60.0, seed=1,
                                   scenario="silent_spread"))
    replica = result.honest_replicas[0]
    failed = [v for v in range(replica.floor) if not replica.engine._learned_below_floor(v)]
    assert failed and replica.floor <= replica.current_view
    calls = []
    on_qc = replica.pacemaker.on_qc
    replica.pacemaker.on_qc = lambda qc: (calls.append(qc.view), on_qc(qc))
    quorum = result.config.protocol_config().quorum_size
    views = [failed[-1]] + [replica.current_view + 10 * k for k in (1, 2, 3)]
    for turn, view in enumerate(views):
        message = ("qc", view, UNKNOWN_BLOCK)
        shares = [
            replica.scheme.partial_sign(result.replicas[pid].signing_key, message)
            for pid in range(quorum)
        ]
        qc = QuorumCertificate(
            view=view, block_id=UNKNOWN_BLOCK,
            aggregate=replica.scheme.combine(shares, quorum, message),
        )
        deliveries = _deliveries(replica, qc)
        first = deliveries.pop(turn % 3)  # each path brings a QC first once
        replica.on_message(*first)
        assert calls == views[: turn + 1], (turn, type(first[0]).__name__)
        for frame, sender in [first, *deliveries, first, *deliveries]:
            replica.on_message(frame, sender)
        assert calls == views[: turn + 1], (turn, calls)
