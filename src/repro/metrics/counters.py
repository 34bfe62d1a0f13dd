"""A run's one named-counter bag and the count names every run reports."""

from __future__ import annotations

from typing import Iterable

#: Injected-fault counters every run reports, even when zero.
BASE_FAULT_COUNTS = ("drops", "duplicates", "kills", "partition_epochs", "restarts")
#: The gateway's flush triggers, each with the counter it bumps.
FLUSH_COUNTS = {trigger: "flushes." + trigger for trigger in ("view", "size", "deadline")}
#: The names a run's bag starts at zero: the fault counters, the client
#: path's and the protocol's, each bumped where it happens.
BUMPED_COUNTS = BASE_FAULT_COUNTS + (
    "requests_submitted", "requests_rejected", "requests_redispatched",
    *FLUSH_COUNTS.values(), "forwards_sent", "qc_count",
)
#: Run totals kept by the transports and runtimes themselves (plain attribute
#: increments on their hot paths), read into a run's counts when the
#: collector takes a snapshot.  ``shm_pushes`` / ``shm_doorbells`` (frames
#: copied into a shared-memory ring, and the pushes that woke its reader)
#: stay zero off the shm lane.
SOURCE_COUNTS = (
    "messages_sent", "messages_delivered", "frames_decoded", "frames_dropped",
    "frames_rejected", "events_processed", "shm_pushes", "shm_doorbells",
)
#: Every name a run reports, even when zero.
BASE_COUNTS = BUMPED_COUNTS + SOURCE_COUNTS


class Counters:
    """A run's one named-counter bag, shared by every site that counts.

    A plain named-counter bag (``bump``) plus distinct-key counting
    (``note_epoch``) for window-shaped faults: a partition that defers ten
    thousand messages is still *one* partition epoch.  Each run has one bag
    (:attr:`repro.metrics.collector.MetricsCollector.counters`): delay
    models, replica crash/recovery, the client path and the protocol all
    count into it where the event happens, on every lane, and a merged run
    adds its shards' snapshots (:meth:`add`), uniting their epoch keys.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = dict.fromkeys(BUMPED_COUNTS, 0)
        self._epoch_keys: set[tuple] = set()

    def bump(self, name: str, by: int = 1) -> None:
        """Add ``by`` to the counter called ``name`` (created at zero)."""
        self._counts[name] = self._counts.get(name, 0) + by

    def note_epoch(self, name: str, key: tuple) -> None:
        """Bump ``name`` once per distinct ``key`` (idempotent per key)."""
        full_key = (name, key)
        if full_key not in self._epoch_keys:
            self._epoch_keys.add(full_key)
            self.bump(name)

    @property
    def epoch_keys(self) -> list[tuple]:
        """Every ``(name, key)`` :meth:`note_epoch` counted, sorted."""
        return sorted(self._epoch_keys)

    def add(self, counts: dict[str, int], epoch_keys: Iterable[tuple] = ()) -> None:
        """Add another snapshot (:meth:`as_dict`) name by name.

        A name the snapshot counted by key (its ``epoch_keys``) is not
        summed: its keys are noted here, so a key both bags hold counts once.
        """
        epoch_keys = list(epoch_keys)
        noted = {name for name, _ in epoch_keys}
        for name, count in counts.items():
            if name not in noted:
                self.bump(name, count)
        for name, key in epoch_keys:
            self.note_epoch(name, key)

    def as_dict(self) -> dict[str, int]:
        """All counters by name (the bumped base names always present)."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self._counts.items() if v}
        return f"Counters({nonzero})"
