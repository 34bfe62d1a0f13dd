"""Smoke tests of the ledger's own arithmetic and vocabulary (no workload runs).

Collected by the tier-1 suite; the whole file takes well under five seconds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import _trace  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from _stats import failed_ratio, percentile, quartiles, spread  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_is_duration_minus_children():
    # root [0, 100) -> a [10, 40) -> c [15, 25); root -> b [50, 90); lone root d.
    starts = [0, 10, 15, 50, 200]
    ends = [100, 40, 25, 90, 230]
    parents = [-1, 0, 1, 0, -1]
    selfs = _trace.self_times(starts, ends, parents)
    assert selfs == [100 - 30 - 40, 30 - 10, 10, 40, 30]
    # Self times are disjoint: they add up to the roots' durations.
    assert sum(selfs) == 100 + 30


def test_tracer_records_nesting_and_layer_shares():
    tracer = _trace.Tracer()
    inner = tracer.wrap(lambda: 7, "codec.encode_into", value_of=lambda result, args: result)
    outer = tracer.wrap(lambda: inner() + inner(), "tcp.send")
    assert outer() == 14
    assert list(tracer.parent) == [-1, 0, 0]
    stats = tracer.stats()
    assert stats["codec.encode_into"]["count"] == 2
    assert stats["codec.encode_into"]["value"] == 14
    assert stats["tcp.send"]["self_ns"] == (
        stats["tcp.send"]["total_ns"] - stats["codec.encode_into"]["total_ns"]
    )
    layers = _trace.layer_self_ns(stats)
    assert set(layers) == {"codec", "tcp"}
    assert sum(layers.values()) == stats["tcp.send"]["total_ns"]
    assert tracer.child_value_by_parent("codec.encode_into") == {"tcp.send": 14}


def test_request_id_is_shared_by_client_and_seq():
    assert _trace.request_id(3, 9) == _trace.request_id(3, 9)
    assert _trace.request_id(3, 9) != _trace.request_id(9, 3)


def test_percentile_matches_the_collector_rank_rule():
    values = sorted(float(v) for v in range(1, 11))
    assert percentile(values, 0.5) == 6.0
    assert percentile(values, 0.9) == 10.0
    assert percentile(values, 0.0) == 1.0
    assert percentile([], 0.5) is None


def test_quartiles_and_spread():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (11.75, 14.5, 17.25)
    assert spread(values) == (q3 - q1) / q2
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert spread([4.0, 4.0, 4.0]) == 0.0


def test_failed_ratio_counts_refusals_as_failures():
    assert failed_ratio(100, 0, 100) == 0.0
    assert failed_ratio(90, 10, 90) == 0.1
    assert failed_ratio(100, 0, 60) == 0.4
    assert failed_ratio(0, 0, 0) == 0.0
    # Replays can apply more than was counted as submitted; never negative.
    assert failed_ratio(10, 0, 12) == 0.0


def test_benchmark_json_matches_the_spec():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark["paths"] == ["benchmarks/ledger"]
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (name, spec.WORKLOADS[name]) for name in spec.GATED_WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark["end_to_end"]
    ] == list(spec.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]
    ] == list(spec.PER_LAYER)
    names = (
        [w["name"] for w in benchmark["workloads"]]
        + [m["name"] for m in benchmark["end_to_end"]]
        + [m["name"] for m in benchmark["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_run_list_prints_every_name():
    listing = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--list"],
        capture_output=True, text=True, timeout=30, check=True,
    ).stdout.splitlines()
    listed = [line.split()[1].rstrip(":") for line in listing]
    expected = (
        list(spec.WORKLOADS)
        + [name for name, *_ in spec.END_TO_END]
        + [name for name, *_ in spec.PER_LAYER]
    )
    assert listed == expected


def test_every_workload_config_constructs():
    assert list(workloads.WORKLOADS) == list(spec.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        config = workload.config(3, 20.0)
        assert config.pacemaker == "lumiere"
        assert workload.lane in ("live", "sim")
        # The seed reaches the generated inputs and nothing else.
        other = workload.config(4, 20.0)
        if config.workload is not None:
            assert config.workload.key_space != other.workload.key_space
        assert (config.n, config.delta, config.duration) == (other.n, other.delta, other.duration)
    assert workloads.WORKLOADS["kv_sat_inline"].config(0, 20.0).workload.mode == "closed"
    assert workloads.WORKLOADS["kv_rate_proc_shm"].cluster["processes"] == 1
    assert workloads.WORKLOADS["sim_viewsync_n64"].config(0, 20.0).workload is None
