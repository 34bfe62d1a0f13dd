"""Reproduction of "Lumiere: Making Optimal BFT for Partial Synchrony Practical".

The package is organised around a discrete-event simulator of the partial
synchrony model (:mod:`repro.sim`), a simulated cryptography layer
(:mod:`repro.crypto`), a chained-HotStuff consensus substrate
(:mod:`repro.consensus`), the Lumiere view-synchronisation protocol that is
the paper's contribution (:mod:`repro.core`), the baseline pacemakers it is
compared against (:mod:`repro.pacemakers`), the adversary
(:mod:`repro.faults`: delay models, loss, corruptions and named fault
scenarios), metrics (:mod:`repro.metrics`) and the experiment harness
that regenerates the paper's table and figure (:mod:`repro.experiments`),
and the campaign runner that executes declarative sweeps over it —
serially or on a process pool, with an on-disk result cache
(:mod:`repro.runner`).

The protocol core is runtime-agnostic (:mod:`repro.runtime`): the same
replicas run under the simulator, on an asyncio loop in-memory, or over
real TCP sockets (``examples/live_cluster.py`` boots a live n=4 cluster).

Quickstart::

    from repro.experiments import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig(n=4, pacemaker="lumiere", duration=200.0))
    print(result.summary())

Sweeps::

    from repro.runner import Campaign, Sweep

    campaign = Campaign(name="sweep", build=my_module.build_config,
                        sweeps=(Sweep("pacemaker", ("lumiere", "lp22")),))
    records = campaign.run(backend="process", cache=".repro-cache").records
"""

from repro.version import __version__

__all__ = ["__version__"]
