"""Pre-packaged adversarial setups used by the benchmarks.

The separations in Table 1 only show up under specific adversarial
schedules.  This module provides the ones the paper discusses:

* worst-case clock dispersion via pre-GST asynchrony (drives the worst-case
  communication / latency rows),
* a silent Byzantine leader placed so that it owns the tail views of an
  epoch (drives the LP22 pathology of Figure 1 and the eventual-latency
  separation), and
* evenly spread corruptions for the ``f_a`` sweeps of the eventual rows.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import ProtocolConfig
from repro.consensus.behaviour import Behaviour
from repro.faults.behaviours import SilentLeaderBehaviour
from repro.faults.corruption import CorruptionPlan
from repro.faults.delays import DelayModel, FixedDelay, PreGSTChaos


def spread_corruption(
    config: ProtocolConfig,
    f_actual: int,
    behaviour_factory: Callable[[], Behaviour] = SilentLeaderBehaviour,
    avoid: Optional[set[int]] = None,
) -> CorruptionPlan:
    """Corrupt ``f_actual`` processors spread evenly over the id space.

    Spreading (rather than corrupting a contiguous prefix) makes the faulty
    leaders alternate with honest ones under round-robin schedules, which is
    the pattern the eventual-latency analysis assumes.  ``avoid`` lists ids
    that must stay honest (e.g. a designated observer).
    """
    avoid = avoid or set()
    candidates = [pid for pid in config.processor_ids if pid not in avoid]
    if f_actual > len(candidates):
        f_actual = len(candidates)
    if f_actual <= 0:
        return CorruptionPlan.none(config)
    # i * stride < len(candidates) for every i < f_actual: distinct picks.
    stride = len(candidates) // f_actual
    corrupted = [candidates[i * stride] for i in range(f_actual)]
    return CorruptionPlan.uniform(config, corrupted, behaviour_factory)


def epoch_tail_corruption(
    config: ProtocolConfig,
    epoch_length: int,
    epoch_index: int = 1,
    behaviour_factory: Callable[[], Behaviour] = SilentLeaderBehaviour,
) -> CorruptionPlan:
    """Corrupt the round-robin leader of the *last* view of ``epoch_index``.

    Under LP22's schedule (``lead(v) = v mod n``, epochs of ``f+1`` views)
    this places a silent leader at the tail of the chosen epoch: the earlier
    views of the epoch produce QCs at network speed, the tail view stalls,
    and honest processors must wait out the rest of the epoch's clock time —
    the Figure 1 pathology.
    """
    last_view = (epoch_index + 1) * epoch_length - 1
    corrupted = last_view % config.n
    return CorruptionPlan.uniform(config, [corrupted], behaviour_factory)


def lp22_tail_attack_plan(
    config: ProtocolConfig,
    behaviour_factory: Callable[[], Behaviour] = SilentLeaderBehaviour,
) -> CorruptionPlan:
    """The single-Byzantine-processor attack that gives LP22 Omega(n*Delta) gaps.

    One silent leader suffices: whenever its view falls late in an epoch, all
    QCs produced early in the epoch were fast, clocks lag far behind, and the
    epoch cannot finish until clocks grind through the remaining views.
    """
    return epoch_tail_corruption(
        config, epoch_length=config.f + 1, epoch_index=1, behaviour_factory=behaviour_factory
    )


def worst_case_clock_dispersion_model(
    config: ProtocolConfig,
    actual_delay: float,
    pre_gst_max_delay: Optional[float] = None,
) -> DelayModel:
    """A delay model that maximises clock dispersion before GST.

    Messages sent before GST are delayed close to the maximum the model
    allows, so processors make unequal progress before GST and start the
    post-GST period with views and clocks spread apart — the situation the
    worst-case rows of Table 1 are about.
    """
    if pre_gst_max_delay is None:
        pre_gst_max_delay = 100.0 * config.delta
    return PreGSTChaos(FixedDelay(actual_delay), pre_gst_max_delay=pre_gst_max_delay)
