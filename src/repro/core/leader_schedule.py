"""The Lumiere leader schedule.

Section 4 of the paper assigns leaders as follows: fix a sequence of
permutations of the processor set such that consecutive "leader rounds" at
an epoch boundary share an endpoint; give every leader two consecutive
views; cycle through the permutations round by round.  The property the
correctness proof actually relies on (Lemma 5.13 and footnote 2) is:

* every leader owns two consecutive views (an initial view and the
  non-initial grace view after it), and
* **the last leader of every epoch is also the first leader of the next
  epoch**, so that an honest processor in that position can carry the
  synchronisation gained at the end of one epoch into the start of the next.

The paper achieves the boundary property with paired reverse permutations;
we construct it directly: rounds are pseudo-random permutations, and each
round that starts an epoch is constrained to begin with the processor that
ended the previous round.  This preserves exactly the property the proof
needs while keeping leader assignment pseudo-random and identical at every
processor (the schedule is a deterministic function of the seed).
"""

from __future__ import annotations

import random
from array import array

from repro.errors import ConfigurationError


class LeaderSchedule:
    """Deterministic epoch-aware leader assignment shared by all processors.

    The schedule is one flat table, ``leaders[view >> 1]`` (a leader owns
    two consecutive views), extended a leader round at a time as views
    are asked for, so a lookup is one index.  It is a pure function of its
    parameters, so one instance serves every replica of a run.
    """

    def __init__(self, n: int, views_per_round: int, rounds_per_epoch: int, seed: int = 0) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        if views_per_round != 2 * n:
            raise ConfigurationError(
                f"views_per_round must be 2n={2 * n} (two consecutive views per leader), "
                f"got {views_per_round}"
            )
        if rounds_per_epoch < 1:
            raise ConfigurationError(f"rounds_per_epoch must be >= 1, got {rounds_per_epoch}")
        self.n = n
        self.views_per_round = views_per_round
        self.rounds_per_epoch = rounds_per_epoch
        self._rng = random.Random(seed)
        # Leader of views 2k and 2k + 1 at index k; round r fills
        # [r * n, (r + 1) * n).
        self._leaders = array("H" if n <= 0xFFFF else "I")

    # ------------------------------------------------------------------
    # Round generation
    # ------------------------------------------------------------------
    def _extend(self, slot: int) -> None:
        """Generate leader rounds until ``slot`` is in the table."""
        leaders, n = self._leaders, self.n
        while len(leaders) <= slot:
            index = len(leaders) // n
            permutation = list(range(n))
            self._rng.shuffle(permutation)
            if index and index % self.rounds_per_epoch == 0:
                previous_last = leaders[-1]
                permutation.remove(previous_last)
                permutation.insert(0, previous_last)
            leaders.extend(permutation)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def leader_of(self, view: int) -> int:
        """The leader of ``view``."""
        if view < 0:
            return 0
        try:
            return self._leaders[view >> 1]
        except IndexError:
            self._extend(view >> 1)
            return self._leaders[view >> 1]

    def views_led_by(self, pid: int, epoch: int, epoch_length: int) -> list[int]:
        """All views within ``epoch`` that ``pid`` leads (useful for tests and attacks)."""
        first = epoch * epoch_length
        return [view for view in range(first, first + epoch_length) if self.leader_of(view) == pid]

    def last_leader_of_epoch(self, epoch: int, epoch_length: int) -> int:
        """The leader of the final view of ``epoch``."""
        return self.leader_of((epoch + 1) * epoch_length - 1)

    def first_leader_of_epoch(self, epoch: int, epoch_length: int) -> int:
        """The leader of the first view of ``epoch``."""
        return self.leader_of(epoch * epoch_length)
