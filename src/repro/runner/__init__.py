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

Wall-clock clusters over real sockets or shared-memory rings are
:func:`~repro.runner.live.make_live_cluster`.

Importing this package imports none of its modules: each name is imported
from its module on first use, so a single run never loads the campaign
executor, the cache or the live stack.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("DEFAULT_CACHE_DIR", "ResultCache"),
    "campaign": ("Campaign", "RunSpec", "Sweep", "config_fingerprint", "spec_key"),
    "executor": ("BACKENDS", "CampaignResult", "execute_cell", "run_campaign"),
    "record": ("RunRecord",),
    "workload": (
        "ClosedLoopLoad", "OpenLoopLoad", "RequestGateway", "WorkloadConfig", "attach_workload",
    ),
    "live": ("make_live_cluster",),
    "process_cluster": ("LiveCluster",),
    "shard": ("ShardReport",),
})
