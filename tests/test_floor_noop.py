"""The committed-view floor frees state; it must not change behaviour.

Two checks:

* **Golden fingerprints.**  ``tests/data/floor_fingerprints.json`` holds
  decisions, every replica's ledger, ``qc_count``, the honest message
  count and the eventual communication of all ``repro.faults`` scenarios x
  eight pacemakers at n=7 in the simulator, plus every scenario under LP22
  and ``rotating_leader_dos`` under every pacemaker at n=13 — where a
  cut-off replica first sees a QC after committing past its view.  The
  Lumiere, Basic Lumiere, LP22 and Fever cells were captured on the commit
  *before* the floor existed; the Cogsworth, Naor-Keidar, RareSync and
  backoff cells were added later, on the commit before those pacemakers
  aggregated through ``repro.core.certificates`` (``python
  tests/test_floor_noop.py --capture`` in that commit's tree).  Every cell
  must reproduce its file entry exactly.
* **Replayed stale frames.**  ``Vote`` / ``NewView`` / ``Proposal`` /
  ``QCAnnounce`` frames below the floor leave every piece of protocol state
  untouched; a valid QC the replica never learned is counted once, as it
  was before the floor, and moves nothing else.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.consensus.blocks import Block
from repro.consensus.messages import NewView, Proposal, QCAnnounce, Vote
from repro.consensus.quorum import QuorumCertificate, release_below
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.faults import available_scenarios
from repro.pacemakers.base import FirstSight

GOLDEN = Path(__file__).parent / "data" / "floor_fingerprints.json"
PACEMAKERS = (
    "lumiere", "basic_lumiere", "lp22", "fever", "cogsworth", "naor-keidar", "raresync", "backoff",
)


def _config(scenario: str, pacemaker: str, n: int) -> ScenarioConfig:
    return ScenarioConfig(
        n=n, pacemaker=pacemaker, gst=20.0, duration=300.0, seed=3, scenario=scenario,
    )


def fingerprint(result) -> dict:
    """Everything the floor could disturb, small enough to commit."""
    summary = result.summary()
    return {
        "decisions": summary.decisions,
        "ledgers": {
            str(pid): f"{len(replica.ledger)}:"
            + hashlib.sha256("".join(replica.ledger.block_ids).encode()).hexdigest()
            for pid, replica in sorted(result.replicas.items())
        },
        "qc_count": result.metrics.counts["qc_count"],
        "honest_messages": result.metrics.total_honest_messages,
        "eventual_communication": summary.eventual_communication,
    }


def _cells() -> list[tuple[str, str, int]]:
    cells = [(scenario, pm, 7) for scenario in available_scenarios() for pm in PACEMAKERS]
    cells += [(scenario, "lp22", 13) for scenario in available_scenarios()]
    cells += [("rotating_leader_dos", pm, 13) for pm in PACEMAKERS if pm != "lp22"]
    return cells


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_cell(golden):
    assert sorted(golden) == sorted(f"{s}/{pm}/n{n}" for s, pm, n in _cells())
    assert len(golden) >= 96 + 19


@pytest.mark.parametrize("scenario,pacemaker,n", _cells())
def test_floor_reproduces_the_unpruned_run(golden, scenario, pacemaker, n):
    result = run_scenario(_config(scenario, pacemaker, n))
    assert fingerprint(result) == golden[f"{scenario}/{pacemaker}/n{n}"]


# ----------------------------------------------------------------------
# Replayed stale frames
# ----------------------------------------------------------------------
def _protocol_state(replica) -> dict:
    """Ledger, safety state, counters and every per-view table of ``replica``."""
    engine, pacemaker, safety = replica.engine, replica.pacemaker, replica.safety.state
    tables = {}
    for owner in (engine, engine.votes, pacemaker, pacemaker.success,
                  pacemaker._vc_collector, pacemaker._epoch_collector):
        for name, value in vars(owner).items():
            if isinstance(value, (dict, set, FirstSight)) and name != "_handlers":
                rows = value.items() if isinstance(value, dict) else value
                tables[f"{type(owner).__name__}.{name}"] = repr(sorted(rows, key=repr))
    return {
        "ledger": tuple(replica.ledger.block_ids),
        "high_qc": safety.high_qc,
        "locked_qc": safety.locked_qc,
        "last_voted_view": safety.last_voted_view,
        "last_committed_view": safety.last_committed_view,
        "qc_count": replica.metrics.counts["qc_count"],
        "decisions": len(replica.metrics.decisions),
        "messages": replica.metrics.total_honest_messages,
        "view": replica.current_view,
        "epoch": pacemaker.current_epoch,
        "tables": tables,
    }


@pytest.fixture(scope="module")
def settled():
    """A fault-free n=4 Lumiere run well into its third epoch."""
    result = run_scenario(
        ScenarioConfig(n=4, pacemaker="lumiere", duration=45.0, seed=1)
    )
    replica = result.replicas[0]
    assert replica.pacemaker.current_epoch >= 2 and 0 < replica.floor <= replica.current_view
    return result


def _quorum_qc(result, view: int, block_id: str) -> QuorumCertificate:
    """A valid QC for ``(view, block_id)``, signed afresh by a real quorum."""
    scheme = result.replicas[0].scheme
    message = ("qc", view, block_id)
    partials = [scheme.partial_sign(result.replicas[pid].signing_key, message) for pid in range(3)]
    return QuorumCertificate(
        view=view, block_id=block_id, aggregate=scheme.combine(partials, 3, message)
    )


@pytest.mark.parametrize("recent", [True, False], ids=["just-below", "epochs-below"])
def test_frames_below_the_floor_are_no_ops(settled, recent):
    replica = settled.replicas[0]
    led = [v for v in range(1, replica.floor) if replica.leader_of(v) == 0]
    view = led[-1] if recent else led[0]
    views, ids = list(replica.ledger.views), replica.ledger.block_ids
    index = views.index(view)
    assert index > 0
    committed = ids[index]
    seen_qc = _quorum_qc(settled, view, committed)  # learned when the view ran
    # A proposal that extends its justify, so that the floor and not the
    # proposal checks is what leaves it without effect.
    parent_qc = _quorum_qc(settled, views[index - 1], ids[index - 1])
    stale_block = Block(
        view=view, parent_id=parent_qc.block_id, proposer=0, payload=("stale",),
        justify_view=parent_qc.view,
    )
    vote = Vote(
        view=view, block_id=committed,
        partial=replica.scheme.partial_sign(
            settled.replicas[1].signing_key, ("qc", view, committed)
        ),
    )
    before = _protocol_state(replica)
    sent_before = settled.transport.messages_sent
    for frame, sender in (
        (vote, 1),
        (NewView(view=view, high_qc=seen_qc), 1),
        (NewView(view=view, high_qc=None), 2),
        (Proposal(view=view, block=stale_block, justify=parent_qc), 0),
        (QCAnnounce(view=view, qc=seen_qc, block=stale_block), 3),
    ):
        replica.on_message(frame, sender)
    assert settled.transport.messages_sent == sent_before
    assert _protocol_state(replica) == before


def test_a_never_learned_qc_below_the_floor_still_counts_once():
    # A replica that was cut off sees QC(v) only after committing past v (the
    # n=13 rotating_leader_dos goldens do this); that first sight is counted
    # and handed to the pacemaker, as it was before the floor, and moves
    # nothing else.  Here v is a view whose silent leader never formed a QC.
    result = run_scenario(ScenarioConfig(
        n=4, pacemaker="lumiere", gst=5.0, duration=60.0, seed=1,
        scenario="silent_spread",
    ))
    replica = result.honest_replicas[0]
    failed = [v for v in range(replica.floor) if not replica.engine._learned_below_floor(v)]
    assert failed and replica.floor <= replica.current_view
    late_qc = _quorum_qc(result, failed[-1], "never-proposed")
    before = _protocol_state(replica)
    for _ in range(2):  # the second delivery is a duplicate
        replica.on_message(QCAnnounce(view=late_qc.view, qc=late_qc, block=None), 0)
    # The engine's "first seen" mark holds the view until the next commit
    # sweeps it; the pacemaker keeps none of its own.
    replica.engine.release_below(replica.floor)
    after = _protocol_state(replica)
    assert after.pop("qc_count") == before.pop("qc_count") + 1
    # ... and toward the success criterion of its epoch, the floor's own.
    counted = "SuccessTracker._qc_views"
    assert str(late_qc.view) in after["tables"].pop(counted)
    assert str(late_qc.view) not in before["tables"].pop(counted)
    assert after == before


# ----------------------------------------------------------------------
# The O(1) sweep against the min-based one it replaced
# ----------------------------------------------------------------------
def _reference_release_below(floor, *tables) -> None:
    """``release_below`` before owners remembered their lowest key."""
    for table in tables:
        if not table:
            continue
        lowest = min(table)
        if lowest >= floor:
            continue
        discard = table.pop if isinstance(table, dict) else table.remove
        discard(lowest)
        if table and min(table) < floor:
            for key in [key for key in table if key < floor]:
                discard(key)


@pytest.mark.parametrize("seed", range(40))
def test_release_below_matches_the_min_sweep_it_replaced(seed):
    """An owner that remembers its lowest key leaves its tables exactly as
    the min-based sweep did, dict order included: keys are filed at or above
    the floor, or below it with the owner lowering its remembered key (no
    owner does any more, but the primitive allows it); keys are dropped at
    random; the floor stays, steps or jumps."""
    rng = random.Random(seed)
    fast: list = [{}, set(), {}, set()]
    slow: list = [{}, set(), {}, set()]
    floor, lowest = rng.randrange(-3, 5), None
    for step in range(300):
        for _ in range(rng.randrange(6)):
            index = rng.randrange(len(fast))
            key = floor + rng.randrange(12)
            if lowest is not None and rng.random() < 0.05:
                key = floor - rng.randrange(1, 40)
                lowest = min(lowest, key)
            for tables in (fast, slow):
                if isinstance(tables[index], dict):
                    tables[index][key] = step
                else:
                    tables[index].add(key)
        if rng.random() < 0.3:
            index = rng.randrange(len(fast))
            if fast[index]:
                key = rng.choice(sorted(fast[index]))
                for tables in (fast, slow):
                    if isinstance(tables[index], dict):
                        tables[index].pop(key)
                    else:
                        tables[index].discard(key)
        floor += rng.choice((0, 1, 1, 1, 1, 2, 3, 25))
        release_below(floor, *fast, lowest=lowest)
        _reference_release_below(floor, *slow)
        lowest = floor  # what the owner remembers after a release
        assert [list(t.items()) if isinstance(t, dict) else sorted(t) for t in fast] == [
            list(t.items()) if isinstance(t, dict) else sorted(t) for t in slow
        ], f"step {step}"


def test_release_below_without_a_remembered_key_is_the_min_sweep():
    rng = random.Random(7)
    for _ in range(200):
        keys = [(rng.randrange(30), rng.choice("ab")) for _ in range(rng.randrange(8))]
        fast, slow = dict.fromkeys(keys, 0), dict.fromkeys(keys, 0)
        fast_set, slow_set = set(keys), set(keys)
        floor = (rng.randrange(35),)
        release_below(floor, fast, fast_set)
        _reference_release_below(floor, slow, slow_set)
        assert list(fast.items()) == list(slow.items()) and fast_set == slow_set


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_floor_noop.py --capture")
    GOLDEN.parent.mkdir(exist_ok=True)
    cells = {
        f"{scenario}/{pm}/n{n}": fingerprint(run_scenario(_config(scenario, pm, n)))
        for scenario, pm, n in _cells()
    }
    GOLDEN.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} cells to {GOLDEN}")
