"""A view costs and keeps the same whatever came before it.

Count-based, virtual clock, no timing: the in-memory cluster is probed when
its shortest ledger reaches a short length and again at ten times that, and
(a) every per-view table has a bounded size at both, (b) ``catch_up`` reads
only the entries past its cursor, (c) the interpreter's live objects grow by
a small constant per committed block.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.scenario import ScenarioConfig
from repro.pacemakers.registry import available_pacemakers
from repro.runner import WorkloadConfig
from repro.statemachine import ReplicatedKV, kvstore
from test_live_runtime import run_until

#: Attributes that are per-peer or per-type, not per-view.
_NOT_PER_VIEW = {"_handlers", "_routes", "_vkeys", "honest_ids"}


def _is_table(value) -> bool:
    """A dict, a set or any sized table that is freed at a floor (a
    pacemaker's first-sight marks), whatever its type."""
    return isinstance(value, (dict, set)) or (
        hasattr(value, "release_below") and hasattr(value, "__len__")
    )


def _per_view_tables(replica) -> dict[str, int]:
    """Size of every table the engine, its aggregator, the pacemaker with
    everything it frees at the floor (first-sight marks, collectors,
    tracker), the shared scheme and the process's batch memo hold."""
    owners = [
        replica.engine, replica.engine.aggregator, replica.pacemaker, replica.scheme, replica.tree,
        kvstore.BATCHES,
    ]
    owners += [
        value for value in vars(replica.pacemaker).values()
        if hasattr(value, "release_below") and not _is_table(value)
    ]
    sizes = {}
    for owner in owners:
        for name, value in vars(owner).items():
            if _is_table(value) and name not in _NOT_PER_VIEW:
                sizes[f"{type(owner).__name__}.{name}"] = len(value)
    sizes["Ledger._held"] = len(replica.ledger._held)
    return sizes


def _probe_at(lengths, **config):
    """Run one in-memory cluster; snapshot it as its shortest ledger first
    reaches each of ``lengths``.  Returns ``[(blocks, tables, objects)]``."""
    config = ScenarioConfig(n=4, delta=1.0, actual_delay=0.1, duration=1e9, seed=2, **config)
    pending, snapshots = list(lengths), []

    def probe(result) -> bool:
        blocks = min(len(replica.ledger) for replica in result.honest_replicas)
        if blocks < pending[0]:
            return False
        pending.pop(0)
        gc.collect()
        tables = {}
        for replica in result.honest_replicas:
            for name, size in _per_view_tables(replica).items():
                tables[name] = max(tables.get(name, 0), size)
        snapshots.append((blocks, tables, len(gc.get_objects())))
        return not pending

    run_until(config, probe)
    return snapshots


_KV_LOAD = WorkloadConfig(mode="open", rate=2.0, clients=2, retry_interval=5.0)


@pytest.fixture(scope="module")
def lumiere_kv():
    """The n=4 Lumiere KV open loop, probed at 300 and at 3000 blocks."""
    return _probe_at((300, 3000), pacemaker="lumiere", workload=_KV_LOAD)


def _assert_bounded(short, long):
    # The live window is the three views of the commit chain above the floor
    # (measured: at most 3 entries anywhere); 2n leaves room for a slow peer.
    bound = 2 * 4
    for name in long:
        # The shared memos keep two generations whatever the run's length.
        limit = 512 if name.startswith(("ThresholdScheme.", "BatchMemo.")) else bound
        assert short[name] <= limit and long[name] <= limit, (name, short[name], long[name])


def test_per_view_tables_do_not_grow_with_the_run(lumiere_kv):
    (_, short, _), (_, long, _) = lumiere_kv
    assert len(long) >= 30  # engine, aggregator, pacemaker, collectors, tracker, scheme
    assert long["BatchMemo.young"] > 0 and "ThresholdScheme._digests" in long
    _assert_bounded(short, long)


def test_per_view_tables_do_not_grow_across_failed_views():
    (_, short, _), (_, long, _) = _probe_at(
        (60, 600), pacemaker="lumiere", scenario="silent_spread", gst=5.0
    )
    _assert_bounded(short, long)


@pytest.mark.parametrize(
    "pacemaker", [name for name in available_pacemakers() if name != "lumiere"]
)
def test_per_view_tables_do_not_grow_under_any_pacemaker(pacemaker):
    # Every pacemaker's first-sight marks, collectors and per-view dicts
    # are freed at the floor, as are the engine's, whatever drives the views.
    # Silent leaders make every baseline use them: certificates, wishes,
    # view changes, epoch syncs.
    (_, short, _), (_, long, _) = _probe_at(
        (60, 600), pacemaker=pacemaker, scenario="silent_spread", gst=5.0
    )
    owners = {name.split(".")[0] for name in long}
    assert any(owner.endswith("Pacemaker") for owner in owners)  # its first-sight marks
    assert owners & {"CertificateCollector", "EpochMessageCollector"}
    _assert_bounded(short, long)


def test_live_objects_grow_by_a_constant_per_block(lumiere_kv):
    (b0, _, objects0), (b1, _, objects1) = lumiere_kv
    # A committed block leaves packed bytes behind, not objects: ledger ids,
    # views and times, KV chain hashes and metrics rows are columns (about
    # 0.5 collector-tracked objects a block; 9 while the ledger held blocks,
    # 22 before the floor).
    assert (objects1 - objects0) / (b1 - b0) < 1


def test_the_tree_and_the_ledger_keep_no_committed_history(lumiere_kv):
    (_, _, _), (blocks, long, _) = lumiere_kv
    assert blocks >= 3000
    assert long["BlockTree._blocks"] <= 2 * 4
    assert long["Ledger._held"] == 0


class _CountingLedger:
    def __init__(self):
        self.blocks, self.reads = [], 0

    def add(self):
        self.blocks.append(type("Block", (), {"payload": ()})())

    def __len__(self):
        return len(self.blocks)

    def take(self, index):
        self.reads += 1
        return self.blocks[index]


def test_catch_up_touches_only_the_new_entries():
    ledger, kv = _CountingLedger(), ReplicatedKV()
    for _ in range(1000):
        ledger.add()
    kv.catch_up(ledger, now=0.0)
    assert ledger.reads == 1000
    ledger.add()
    kv.catch_up(ledger, now=1.0)
    assert ledger.reads == 1001 and kv.applied_entries == 1001
