"""Corruption plans: which processors are Byzantine and how they behave."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.config import ProtocolConfig
from repro.consensus.behaviour import Behaviour, HonestBehaviour
from repro.errors import ConfigurationError


@dataclass
class CorruptionPlan:
    """Maps corrupted processor ids to their behaviours.

    The plan validates that at most ``f`` processors are corrupted, matching
    the resilience bound of the model.
    """

    config: ProtocolConfig
    behaviours: dict[int, Behaviour] = field(default_factory=dict)

    def __post_init__(self) -> None:
        invalid = [pid for pid in self.behaviours if pid not in self.config.processor_ids]
        if invalid:
            raise ConfigurationError(f"corrupted ids {invalid} are not valid processor ids")
        if len(self.behaviours) > self.config.f:
            raise ConfigurationError(
                f"cannot corrupt {len(self.behaviours)} processors; at most f={self.config.f}"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def none(cls, config: ProtocolConfig) -> "CorruptionPlan":
        """A fault-free plan."""
        return cls(config=config, behaviours={})

    @classmethod
    def uniform(
        cls,
        config: ProtocolConfig,
        corrupted: Iterable[int],
        behaviour_factory: Callable[[], Behaviour],
    ) -> "CorruptionPlan":
        """Corrupt the given processors, each with a fresh behaviour instance."""
        return cls(
            config=config,
            behaviours={pid: behaviour_factory() for pid in corrupted},
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def corrupted_ids(self) -> set[int]:
        """Ids of corrupted processors."""
        return set(self.behaviours)

    @property
    def honest_ids(self) -> set[int]:
        """Ids of processors that are never corrupted."""
        return set(self.config.processor_ids) - self.corrupted_ids

    @property
    def f_actual(self) -> int:
        """The actual number of faults ``f_a`` in this plan."""
        return len(self.behaviours)

    def behaviour_for(self, pid: int) -> Behaviour:
        """The behaviour of processor ``pid`` (honest by default)."""
        return self.behaviours.get(pid, HonestBehaviour())

    def describe(self) -> Mapping[int, str]:
        """Mapping of corrupted pid -> behaviour description."""
        return {pid: behaviour.describe() for pid, behaviour in sorted(self.behaviours.items())}
