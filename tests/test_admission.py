"""One admission rule in ``Replica.on_message``: a frame far above the view.

A Byzantine sender may send any frame.  A share, ``Proposal`` or ``NewView``
more than ``ADMISSION_WINDOW`` views above the receiver's view is held, one
per (class, sender) with the newest view kept, so a flood of frames for
distinct far views leaves the receiver's per-view tables as an un-flooded
run leaves them.  An honest frame held that way is delivered, and acted on,
once a view entered brings it within the window.
"""

from __future__ import annotations

import pytest

from repro.consensus.blocks import Block
from repro.consensus.messages import NewView, Proposal
from repro.consensus.replica import ADMISSION_WINDOW
from repro.core.messages import ViewMessage, view_message_payload
from repro.experiments.scenario import ScenarioConfig, build_scenario, start_replicas
from repro.pacemakers.backoff import ViewChangeMessage, backoff_payload
from repro.pacemakers.cogsworth import WishMessage, cogsworth_wish_payload
from repro.pacemakers.fever import FeverViewMessage, fever_view_payload
from repro.pacemakers.lp22 import LP22EpochViewMessage, lp22_epoch_payload
from test_run_length import _per_view_tables

#: Each pacemaker's share: its class, its signed payload, and whether the
#: receiver (pid 0) files a share for ``view`` (the views it would count).
_EVEN_LED_BY_0 = lambda replica, view: view % 2 == 0 and replica.leader_of(view) == 0  # noqa: E731
_SHARES = {
    "lumiere": (ViewMessage, view_message_payload, _EVEN_LED_BY_0),
    "basic_lumiere": (ViewMessage, view_message_payload, _EVEN_LED_BY_0),
    "fever": (FeverViewMessage, fever_view_payload, _EVEN_LED_BY_0),
    "lp22": (LP22EpochViewMessage, lp22_epoch_payload, lambda replica, view: view % 2 == 0),
    "raresync": (LP22EpochViewMessage, lp22_epoch_payload, lambda replica, view: view % 2 == 0),
    "cogsworth": (WishMessage, cogsworth_wish_payload, lambda replica, view: True),
    "naor-keidar": (WishMessage, cogsworth_wish_payload, lambda replica, view: True),
    "backoff": (ViewChangeMessage, backoff_payload, lambda replica, view: True),
}
#: The first view of the flood: far above any view a 60 s run reaches.
_FAR = 10_000
_FLOOD_AT = 5.0


def _views(count, wanted):
    """The first ``count`` views from ``_FAR`` up that ``wanted`` accepts."""
    view = _FAR
    while count:
        if wanted(view):
            yield view
            count -= 1
        view += 1


def _flood(result, pacemaker: str, count: int) -> None:
    """Replica 3 hands replica 0 ``count`` shares, ``count`` proposals and
    ``count`` NewViews, each for a distinct far view that replica 0's handler
    would keep: signed shares, proposals that replica 3 leads extending the
    real high QC, NewViews to replica 0 as leader carrying it."""
    receiver, sender = result.replicas[0], result.replicas[3]
    scheme, key = sender.scheme, sender.signing_key
    cls, payload_of, wanted = _SHARES[pacemaker]
    high_qc = receiver.safety.high_qc
    assert high_qc is not None
    for view in _views(count, lambda v: wanted(receiver, v)):
        partial = scheme.partial_sign(key, payload_of(view))
        receiver.deliver(cls(view=view, partial=partial), 3)
    for view in _views(count, lambda v: receiver.leader_of(v) == 3):
        block = Block(
            view=view, parent_id=high_qc.block_id, proposer=3, payload=(),
            justify_view=high_qc.view,
        )
        receiver.deliver(Proposal(view=view, block=block, justify=high_qc), 3)
    for view in _views(count, lambda v: receiver.leader_of(v) == 0):
        receiver.deliver(NewView(view=view, high_qc=high_qc), 3)


def _run(pacemaker: str, count: int):
    """n=4, seed 0, to t=60, flooded at t=5: honest commits and what replica
    0 keeps per view (and holds) at the end."""
    result = build_scenario(ScenarioConfig(n=4, pacemaker=pacemaker, duration=60.0, seed=0))
    result.simulator.set_timer_at(_FLOOD_AT, _flood, result, pacemaker, count)
    start_replicas(result.replicas)
    result.simulator.run(until=result.config.duration)
    receiver = result.replicas[0]
    tables = {
        name: size for name, size in _per_view_tables(receiver).items()
        if not name.startswith(("ThresholdScheme.", "BatchMemo."))  # shared memos
    }
    commits = tuple(len(result.replicas[pid].ledger) for pid in range(3))
    return commits, tables, len(getattr(receiver, "_held", ()))


@pytest.mark.parametrize("pacemaker", sorted(_SHARES))
def test_a_far_ahead_flood_leaves_per_view_state_flat(pacemaker):
    commits, tables, held = _run(pacemaker, 0)
    assert held == 0 and min(commits) > 0
    if pacemaker == "lumiere":
        assert commits == (236, 236, 237)
    for count in (10**3, 10**4):
        flooded_commits, flooded_tables, flooded_held = _run(pacemaker, count)
        # Every table is the size it is un-flooded, honest progress is the
        # same, and the flood is one held slot per frame class.
        assert flooded_tables == tables, count
        assert (flooded_commits, flooded_held) == (commits, 3), count


def _enter(replica, view: int) -> None:
    """Bring ``replica`` into ``view`` as its pacemaker would."""
    replica.pacemaker._enter(view)


def test_a_held_honest_frame_is_delivered_once_within_the_window():
    result = build_scenario(ScenarioConfig(n=4, pacemaker="lumiere", duration=60.0, seed=0))
    start_replicas(result.replicas)
    result.simulator.run(until=5.0)
    receiver = result.replicas[0]
    pacemaker, scheme = receiver.pacemaker, receiver.scheme
    current = receiver.current_view
    # Two initial views far ahead that replica 0 leads and no one has
    # reached: f+1 = 2 view messages for one of them make a VC there.
    led = [
        v for v in range(current + ADMISSION_WINDOW + 1, current + 4 * ADMISSION_WINDOW)
        if v % 2 == 0 and receiver.leader_of(v) == 0
    ]
    older, view = led[0], led[-1]

    def view_message(sender, v):
        key = result.replicas[sender].signing_key
        return ViewMessage(view=v, partial=scheme.partial_sign(key, view_message_payload(v)))

    receiver.deliver(view_message(1, view), 1)
    receiver.deliver(view_message(1, older), 1)  # older: the newest is kept
    receiver.deliver(view_message(2, view), 2)
    assert pacemaker._vc_collector.count(view) == 0
    assert sorted(frame.view for frame in receiver._held.values()) == [view, view]

    # One view short of the window: still held.
    _enter(receiver, view - ADMISSION_WINDOW - 1)
    result.simulator.run(until=result.simulator.now)
    assert len(receiver._held) == 2
    # Within it: delivered in an event of its own, and acted on.
    _enter(receiver, view - ADMISSION_WINDOW)
    assert len(receiver._held) == 2
    result.simulator.run(until=result.simulator.now)
    assert not receiver._held
    assert pacemaker._vc_collector.count(view) == 2
    sent = [row.value for row in result.metrics.events("lumiere_vc_sent", 0)]
    assert sent[-1] == view
