"""Naor-Keidar (NK20) style view synchronisation.

NK20 improves Cogsworth's relay mechanism so that it tolerates Byzantine
relays with expected-constant overhead: instead of waiting one relay at a
time, wishes fan out to ``f+1`` relay candidates at once, so at least one of
them is honest and the expected number of relay rounds is constant.  The
worst case remains super-quadratic (Table 1 groups Cogsworth and NK20 in the
same column), but the expected steady-state cost is linear per view change.

The implementation reuses the relay machinery of
:class:`~repro.pacemakers.cogsworth.CogsworthPacemaker` with
``parallel_relays = f + 1``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.config import ProtocolConfig
from repro.pacemakers.cogsworth import CogsworthConfig, CogsworthPacemaker

if TYPE_CHECKING:  # pragma: no cover
    from repro.consensus.replica import Replica


class NaorKeidarPacemaker(CogsworthPacemaker):
    """NK20: Cogsworth with wishes fanned out to ``f+1`` relays in parallel."""

    name = "naor-keidar"

    def __init__(
        self,
        replica: "Replica",
        config: ProtocolConfig,
        cogsworth_config: Optional[CogsworthConfig] = None,
    ) -> None:
        if cogsworth_config is None:
            cogsworth_config = CogsworthConfig(
                protocol=config, parallel_relays=config.small_quorum_size
            )
        super().__init__(replica, config, cogsworth_config)
