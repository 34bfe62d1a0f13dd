"""View-synchronisation protocols ("pacemakers").

Every pacemaker implements the :class:`~repro.pacemakers.base.Pacemaker`
interface so that the consensus substrate, the adversary and the experiment
harness treat them interchangeably.  The paper's own protocol lives in
:mod:`repro.core`; this package contains the baselines from Table 1 plus a
classical exponential-backoff pacemaker used as a control.
"""

from repro import lazy_exports

# Resolved on first access: a run imports only the pacemaker it runs.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("Pacemaker", "PacemakerMessage", "RoundRobinLeaderMixin"),
    "backoff": ("ExponentialBackoffConfig", "ExponentialBackoffPacemaker"),
    "cogsworth": ("CogsworthConfig", "CogsworthPacemaker"),
    "fever": ("FeverConfig", "FeverPacemaker"),
    "lp22": ("LP22Config", "LP22Pacemaker"),
    "naor_keidar": ("NaorKeidarPacemaker",),
    "raresync": ("RareSyncPacemaker",),
    "registry": ("available_pacemakers", "make_pacemaker_factory"),
})
