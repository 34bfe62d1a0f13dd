"""Unit tests for Lumiere's building blocks: config, leader schedule,
success criterion and certificate collectors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ProtocolConfig
from repro.consensus.quorum import QuorumCertificate, ShareCollector
from repro.core.config import LumiereConfig
from repro.core.leader_schedule import LeaderSchedule
from repro.core.messages import epoch_view_message_payload, view_message_payload
from repro.core.success import SuccessTracker
from repro.crypto.signatures import PKI
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ConfigurationError


# ----------------------------------------------------------------------
# LumiereConfig
# ----------------------------------------------------------------------
def test_default_gamma_matches_paper(protocol_config):
    cfg = LumiereConfig(protocol=protocol_config)
    assert cfg.gamma == pytest.approx(2 * (protocol_config.x + 2) * protocol_config.delta)


def test_epoch_length_is_ten_n_by_default(protocol_config):
    cfg = LumiereConfig(protocol=protocol_config)
    assert cfg.epoch_length == 10 * protocol_config.n
    assert cfg.views_per_leader_per_epoch == 10
    assert cfg.success_qcs_per_leader == 10
    assert cfg.success_leaders_required == protocol_config.quorum_size


def test_view_arithmetic(protocol_config):
    cfg = LumiereConfig(protocol=protocol_config, epoch_rounds=1)
    assert cfg.epoch_length == 2 * protocol_config.n
    assert cfg.is_initial(0) and not cfg.is_initial(3)
    assert cfg.is_epoch_view(0) and cfg.is_epoch_view(cfg.epoch_length)
    assert not cfg.is_epoch_view(2)
    assert cfg.epoch_of(cfg.epoch_length + 1) == 1
    assert cfg.first_view_of_epoch(3) == 3 * cfg.epoch_length
    assert cfg.clock_time(5) == pytest.approx(5 * cfg.gamma)


def test_qc_deadline_is_positive_for_default_parameters(protocol_config):
    cfg = LumiereConfig(protocol=protocol_config)
    assert cfg.qc_deadline == pytest.approx(cfg.gamma / 2 - 2 * protocol_config.delta)
    assert cfg.qc_deadline >= protocol_config.x * protocol_config.delta


def test_config_validation(protocol_config):
    with pytest.raises(ConfigurationError):
        LumiereConfig(protocol=protocol_config, epoch_rounds=0)
    with pytest.raises(ConfigurationError):
        LumiereConfig(protocol=protocol_config, gamma_override=-1.0)


# ----------------------------------------------------------------------
# Leader schedule
# ----------------------------------------------------------------------
def test_each_leader_gets_two_consecutive_views():
    schedule = LeaderSchedule(n=5, views_per_round=10, rounds_per_epoch=3, seed=1)
    for view in range(0, 200, 2):
        assert schedule.leader_of(view) == schedule.leader_of(view + 1)


def test_every_processor_leads_once_per_round():
    n = 7
    schedule = LeaderSchedule(n=n, views_per_round=2 * n, rounds_per_epoch=5, seed=3)
    for round_start in range(0, 6 * 2 * n, 2 * n):
        leaders = {schedule.leader_of(round_start + 2 * i) for i in range(n)}
        assert leaders == set(range(n))


def test_epoch_boundary_shares_leader():
    """The last leader of each epoch is the first leader of the next (footnote 2)."""
    n = 5
    rounds = 5
    epoch_length = 2 * n * rounds
    schedule = LeaderSchedule(n=n, views_per_round=2 * n, rounds_per_epoch=rounds, seed=11)
    for epoch in range(6):
        assert schedule.last_leader_of_epoch(epoch, epoch_length) == schedule.first_leader_of_epoch(
            epoch + 1, epoch_length
        )


def test_schedule_is_deterministic_across_instances():
    a = LeaderSchedule(n=4, views_per_round=8, rounds_per_epoch=5, seed=9)
    b = LeaderSchedule(n=4, views_per_round=8, rounds_per_epoch=5, seed=9)
    assert [a.leader_of(v) for v in range(300)] == [b.leader_of(v) for v in range(300)]


def test_schedule_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        LeaderSchedule(n=4, views_per_round=7, rounds_per_epoch=5)
    with pytest.raises(ConfigurationError):
        LeaderSchedule(n=0, views_per_round=0, rounds_per_epoch=1)


def test_views_led_by_counts_match_quota():
    n = 4
    rounds = 5
    epoch_length = 2 * n * rounds
    schedule = LeaderSchedule(n=n, views_per_round=2 * n, rounds_per_epoch=rounds, seed=2)
    for pid in range(n):
        assert len(schedule.views_led_by(pid, epoch=0, epoch_length=epoch_length)) == 2 * rounds


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000), n=st.integers(min_value=2, max_value=9))
def test_leader_is_always_a_valid_processor(seed, n):
    schedule = LeaderSchedule(n=n, views_per_round=2 * n, rounds_per_epoch=5, seed=seed)
    assert all(0 <= schedule.leader_of(v) < n for v in range(0, 40 * n, 3))


# ----------------------------------------------------------------------
# Success tracker
# ----------------------------------------------------------------------
def _qc_for(scheme, keys, view):
    message = ("qc", view, f"block-{view}")
    partials = [scheme.partial_sign(keys[i], message) for i in range(3)]
    aggregate = scheme.combine(partials, 3, message)
    return QuorumCertificate(view=view, block_id=f"block-{view}", aggregate=aggregate)


def test_success_requires_enough_leaders_with_full_quota(protocol_config, pki_and_keys, scheme):
    _, keys = pki_and_keys
    cfg = LumiereConfig(protocol=protocol_config, epoch_rounds=1)  # 8 views, 2 per leader
    schedule = LeaderSchedule(protocol_config.n, 2 * protocol_config.n, 1, seed=0)
    tracker = SuccessTracker(cfg, schedule.leader_of)
    assert cfg.success_qcs_per_leader == 2
    assert cfg.success_leaders_required == 3
    # QCs from two leaders only: not satisfied.
    newly = False
    for view in (0, 1, 2, 3):
        newly = tracker.observe_qc(_qc_for(scheme, keys, view)) or newly
    assert not tracker.satisfied(0)
    # Third leader completes its two views: satisfied exactly once.
    assert tracker.observe_qc(_qc_for(scheme, keys, 4)) is False
    assert tracker.observe_qc(_qc_for(scheme, keys, 5)) is True
    assert tracker.satisfied(0)
    # Further QCs never "re-satisfy".
    assert tracker.observe_qc(_qc_for(scheme, keys, 6)) is False


def test_success_disabled_never_satisfies(protocol_config, pki_and_keys, scheme):
    _, keys = pki_and_keys
    cfg = LumiereConfig(protocol=protocol_config, epoch_rounds=1, use_success_criterion=False)
    schedule = LeaderSchedule(protocol_config.n, 2 * protocol_config.n, 1, seed=0)
    tracker = SuccessTracker(cfg, schedule.leader_of)
    for view in range(cfg.epoch_length):
        tracker.observe_qc(_qc_for(scheme, keys, view))
    assert not tracker.satisfied(0)


def test_success_is_per_epoch(protocol_config, pki_and_keys, scheme):
    _, keys = pki_and_keys
    cfg = LumiereConfig(protocol=protocol_config, epoch_rounds=1)
    schedule = LeaderSchedule(protocol_config.n, 2 * protocol_config.n, 1, seed=0)
    tracker = SuccessTracker(cfg, schedule.leader_of)
    for view in range(cfg.epoch_length):
        tracker.observe_qc(_qc_for(scheme, keys, view))
    assert tracker.satisfied(0)
    assert not tracker.satisfied(1)
    assert not tracker.satisfied(-1)


# ----------------------------------------------------------------------
# Certificate collectors
# ----------------------------------------------------------------------
def test_vc_collector_forms_once_at_threshold(pki_and_keys, scheme):
    _, keys = pki_and_keys
    collector = ShareCollector(scheme, quorum=2)
    payload = view_message_payload(4)
    p0 = scheme.partial_sign(keys[0], payload)
    p1 = scheme.partial_sign(keys[1], payload)
    assert collector.add(4, 0, p0, payload) == 1
    assert collector.add(4, 1, p1, payload) == collector.quorum
    aggregate = collector.combine(4, payload)
    assert aggregate.size == 2 and scheme.verify(aggregate, payload, 2)
    # A third share is refused, so no second certificate is formed.
    p2 = scheme.partial_sign(keys[2], payload)
    assert collector.add(4, 2, p2, payload) == 0


def test_vc_collector_rejects_mismatched_sender(pki_and_keys, scheme):
    _, keys = pki_and_keys
    collector = ShareCollector(scheme, quorum=1)
    payload = view_message_payload(4)
    partial = scheme.partial_sign(keys[0], payload)
    assert collector.add(4, 1, partial, payload) == 0  # claimed sender != signer
    assert collector.count(4) == 0


def test_epoch_collector_reports_tc_then_ec(pki_and_keys, scheme):
    _, keys = pki_and_keys
    tc_threshold, ec_threshold = 2, 3
    collector = ShareCollector(scheme, quorum=ec_threshold)
    view = 80
    payload = epoch_view_message_payload(view)
    counts = [
        collector.add(view, i, scheme.partial_sign(keys[i], payload), payload) for i in range(4)
    ]
    # The TC is crossed at the second share, the EC at the third.
    assert counts[:3] == [1, tc_threshold, ec_threshold]
    # The fourth is refused: the view already holds the collector's quorum,
    # which is all either threshold needs.
    assert counts[3] == 0
    assert collector.count(view) == ec_threshold


def test_epoch_collector_counts_distinct_signers_only(pki_and_keys, scheme):
    _, keys = pki_and_keys
    collector = ShareCollector(scheme, quorum=3)
    payload = epoch_view_message_payload(0)
    partial = scheme.partial_sign(keys[0], payload)
    assert [collector.add(0, 0, partial, payload) for _ in range(5)] == [1, 0, 0, 0, 0]
    assert collector.count(0) == 1
