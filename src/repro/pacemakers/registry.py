"""Registry of pacemaker implementations.

The experiment harness and the benchmarks refer to protocols by name; the
registry turns a name plus shared configuration into the factory callable a
:class:`~repro.consensus.replica.Replica` expects.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.config import ProtocolConfig
from repro.errors import ConfigurationError


def available_pacemakers() -> list[str]:
    """Names accepted by :func:`make_pacemaker_factory`.

    Returns
    -------
    list[str]
        Every registered protocol name, in roster order (Lumiere variants
        first, then the baselines it is compared against).
    """
    return [
        "lumiere",
        "basic-lumiere",
        "lp22",
        "fever",
        "cogsworth",
        "naor-keidar",
        "raresync",
        "backoff",
    ]


def make_pacemaker_factory(
    name: str,
    config: ProtocolConfig,
    pacemaker_config: Optional[Any] = None,
) -> Callable[[Any], Any]:
    """Return a ``replica -> Pacemaker`` factory for the named protocol.

    Parameters
    ----------
    name:
        Protocol name; case-insensitive, with ``_`` and ``-`` treated alike
        (see :func:`available_pacemakers`).
    config:
        The shared :class:`~repro.config.ProtocolConfig` (system size,
        ``Delta``, the view-completion constant ``x``).
    pacemaker_config:
        Protocol-specific configuration object (e.g. a
        :class:`~repro.core.config.LumiereConfig`); ``None`` uses the
        protocol's defaults.

    Returns
    -------
    Callable
        A factory mapping a :class:`~repro.consensus.replica.Replica` to a
        fresh pacemaker instance wired to it.

    Raises
    ------
    ConfigurationError
        If ``name`` is not a registered protocol.
    """
    # Imports are local so that importing the registry does not pull in every
    # protocol module (and to keep the package import graph acyclic).
    normalized = name.lower().replace("_", "-")
    if normalized == "lumiere":
        from repro.core.lumiere import LumierePacemaker

        return _sharing_schedule(LumierePacemaker, config, pacemaker_config)
    if normalized == "basic-lumiere":
        from repro.core.lumiere import BasicLumierePacemaker

        return _sharing_schedule(BasicLumierePacemaker, config, pacemaker_config)
    if normalized == "lp22":
        from repro.pacemakers.lp22 import LP22Pacemaker

        return lambda replica: LP22Pacemaker(replica, config, pacemaker_config)
    if normalized == "fever":
        from repro.pacemakers.fever import FeverPacemaker

        return lambda replica: FeverPacemaker(replica, config, pacemaker_config)
    if normalized == "cogsworth":
        from repro.pacemakers.cogsworth import CogsworthPacemaker

        return lambda replica: CogsworthPacemaker(replica, config, pacemaker_config)
    if normalized == "naor-keidar":
        from repro.pacemakers.naor_keidar import NaorKeidarPacemaker

        return lambda replica: NaorKeidarPacemaker(replica, config, pacemaker_config)
    if normalized == "raresync":
        from repro.pacemakers.raresync import RareSyncPacemaker

        return lambda replica: RareSyncPacemaker(replica, config, pacemaker_config)
    if normalized == "backoff":
        from repro.pacemakers.backoff import ExponentialBackoffPacemaker

        return lambda replica: ExponentialBackoffPacemaker(replica, config, pacemaker_config)
    raise ConfigurationError(
        f"unknown pacemaker {name!r}; available: {', '.join(available_pacemakers())}"
    )


def _sharing_schedule(
    pacemaker_class: type, config: ProtocolConfig, pacemaker_config: Optional[Any]
) -> Callable[[Any], Any]:
    """A Lumiere factory whose pacemakers share the first one's leader
    schedule: every replica built from it reads one table."""
    shared: list = []

    def build(replica: Any) -> Any:
        pacemaker = pacemaker_class(
            replica, config, pacemaker_config, shared[0] if shared else None
        )
        if not shared:
            shared.append(pacemaker.schedule)
        return pacemaker

    return build
