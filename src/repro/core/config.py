"""Configuration of the Lumiere pacemaker.

The defaults follow Section 4 of the paper:

* ``Gamma = 2 (x + 2) Delta`` — the time allotted to each view,
* epochs of ``10 n`` views, i.e. five "leader rounds" of ``2 n`` views each
  (every processor leads two consecutive views per round, so every
  processor leads ten views per epoch),
* success criterion: at least ``2f + 1`` distinct processors each produce a
  QC for every one of their views in the epoch (ten QCs with the default
  epoch length),
* QC-production deadline: an honest leader only produces a QC for view
  ``v`` if it can do so within ``Gamma / 2 - 2 Delta`` of sending the VC for
  ``v`` (or of entering ``v``, for the responsive path / non-initial views).

``epoch_rounds`` scales the epoch length (and the success threshold with
it); tests use smaller values to keep runs short, the paper's value is 5.
Setting ``use_success_criterion=False`` and ``epoch_rounds`` appropriately
yields Basic Lumiere (Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ProtocolConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LumiereConfig:
    """Parameters of the Lumiere view-synchronisation protocol."""

    protocol: ProtocolConfig
    #: Number of 2n-view leader rounds per epoch.  The paper uses 5 (10n views).
    epoch_rounds: int = 5
    #: Whether to run the Section-3.5 mechanism that skips heavy epoch
    #: synchronisations once an epoch satisfies the success criterion.
    use_success_criterion: bool = True

    def __post_init__(self) -> None:
        if self.epoch_rounds < 1:
            raise ConfigurationError(f"epoch_rounds must be >= 1, got {self.epoch_rounds}")

    # ------------------------------------------------------------------
    # Derived parameters
    # ------------------------------------------------------------------
    @property
    def gamma(self) -> float:
        """Time allotted to each view: ``2 (x + 2) Delta``."""
        return 2.0 * (self.protocol.x + 2) * self.protocol.delta

    @property
    def epoch_length(self) -> int:
        """Number of views per epoch (``2 n`` views per leader round)."""
        return 2 * self.protocol.n * self.epoch_rounds

    @property
    def views_per_leader_per_epoch(self) -> int:
        """How many views each processor leads in one epoch."""
        return 2 * self.epoch_rounds

    @property
    def success_qcs_per_leader(self) -> int:
        """QCs a leader must produce within an epoch to count towards success."""
        return self.views_per_leader_per_epoch

    @property
    def success_leaders_required(self) -> int:
        """Distinct leaders needed for an epoch to satisfy the success criterion."""
        return self.protocol.quorum_size

    @property
    def qc_deadline(self) -> float:
        """``Gamma / 2 - 2 Delta``: how late an honest leader may still produce a QC."""
        return self.gamma / 2.0 - 2.0 * self.protocol.delta

    # ------------------------------------------------------------------
    # View arithmetic
    # ------------------------------------------------------------------
    def clock_time(self, view: int) -> float:
        """``c_v = Gamma * v``: the local-clock time corresponding to ``view``."""
        return self.gamma * view

    def is_initial(self, view: int) -> bool:
        """Even views are initial; odd views are non-initial grace views."""
        return view % 2 == 0

    def is_epoch_view(self, view: int) -> bool:
        """Whether ``view`` is the first view of its epoch."""
        return view % self.epoch_length == 0

    def epoch_of(self, view: int) -> int:
        """``E(v)``: the epoch the view belongs to."""
        return view // self.epoch_length

    def first_view_of_epoch(self, epoch: int) -> int:
        """``V(e)``: the first view of ``epoch``."""
        return epoch * self.epoch_length

    def describe(self) -> str:
        """Summary used in reports."""
        return (
            f"LumiereConfig(n={self.protocol.n}, Gamma={self.gamma}, "
            f"epoch_length={self.epoch_length}, success={self.use_success_criterion})"
        )
