"""Unified campaign runner: declarative sweeps over the scenario harness.

:func:`~repro.experiments.scenario.run_scenario` is the single *low-level*
entry point of the reproduction — one config, one run, live result.
:meth:`Campaign.run` is the single *high-level* one: a declarative cartesian
grid of scenarios, executed serially or on a process pool, with an optional
content-addressed on-disk cache so repeated campaigns only pay for missing
cells.

Typical use::

    from repro.runner import Campaign, Sweep

    campaign = Campaign(
        name="my-sweep",
        build=my_module.build_config,          # module-level: params -> ScenarioConfig
        sweeps=(Sweep("pacemaker", ("lumiere", "lp22")), Sweep("seed", range(3))),
        fixed={"n": 7, "duration": 600.0},
    )
    result = campaign.run(backend="process", cache=".repro-cache")
    for record in result:
        print(record.run_id, record.summary.eventual_latency)

The same grid can execute on the *live* transport stack (in-memory
transport, deterministic virtual time) with
``campaign.run(backend="live")``; see :mod:`repro.runner.live` for the
live scenario API (``run_live_scenario``, ``make_live_cluster``).
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.campaign import Campaign, RunSpec, Sweep, config_fingerprint, spec_key
from repro.runner.executor import BACKENDS, CampaignResult, execute_cell, run_campaign
from repro.runner.record import RunRecord
from repro.runner.workload import (
    ClosedLoopLoad,
    OpenLoopLoad,
    RequestGateway,
    WorkloadConfig,
    attach_workload,
)

#: Names resolved lazily (PEP 562), by the submodule that defines them: the
#: live modules pull the whole asyncio runtime stack and multiprocessing,
#: which simulated campaigns never need — importing the package root must
#: stay as cheap as it was.
_LAZY_EXPORTS = {
    "LiveExecutor": "live",
    "execute_live_cell": "live",
    "make_live_cluster": "live",
    "run_live_scenario": "live",
    "run_live_scenario_async": "live",
    "LiveCluster": "process_cluster",
    "ShardReport": "shard",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"repro.runner.{module}"), name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


__all__ = [
    "BACKENDS",
    "Campaign",
    "CampaignResult",
    "ClosedLoopLoad",
    "DEFAULT_CACHE_DIR",
    "LiveCluster",
    "LiveExecutor",
    "OpenLoopLoad",
    "RequestGateway",
    "ResultCache",
    "RunRecord",
    "RunSpec",
    "ShardReport",
    "Sweep",
    "WorkloadConfig",
    "attach_workload",
    "config_fingerprint",
    "execute_cell",
    "execute_live_cell",
    "make_live_cluster",
    "run_campaign",
    "run_live_scenario",
    "run_live_scenario_async",
    "spec_key",
]
