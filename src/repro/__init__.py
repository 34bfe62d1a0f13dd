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

import importlib
import sys

from repro.version import __version__

__all__ = ["__version__"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__``, ``__dir__`` and ``__all__`` for a package root.

    ``exports`` maps each submodule of ``package`` to the public names it
    defines.  Importing the root imports none of them: a name is imported
    from its submodule on first access and cached in the root's globals, so
    ``__getattr__`` runs once per name and a lane loads only the modules it
    uses.
    """
    homes = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = homes.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{package}.{module}"), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *homes})

    return __getattr__, __dir__, sorted(homes)
