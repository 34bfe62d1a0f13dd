"""Campaign execution backends.

Two backends run the expanded cells of a :class:`~repro.runner.campaign.Campaign`:

* ``"serial"`` — in-process, in expansion order.  Deterministic and
  debugger-friendly; the default for tests.
* ``"process"`` — a ``concurrent.futures.ProcessPoolExecutor``.  Each worker
  re-builds the scenario from ``(build, params)`` and returns a picklable
  :class:`~repro.runner.record.RunRecord`, so nothing unpicklable (replicas,
  closure-based delay models) ever crosses the pool boundary.
* ``"live"`` — :mod:`repro.runner.live`: the same cells in virtual time
  with the live executor's knobs (transport jitter, drop/duplicate
  injection), or on a wall-clock process cluster.  Live cache keys are
  salted with a ``live:`` prefix (plus the knobs) so records made under
  different knobs never answer for each other from a shared cache.

Because every simulation is seeded from its config alone, the serial and
process backends produce identical records for the same campaign — a
property the test suite asserts byte-for-byte.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.runner.cache import ResultCache
from repro.runner.campaign import Campaign, ConfigBuilder, RunSpec
from repro.runner.record import RunRecord

#: Names accepted by the ``backend`` argument.
BACKENDS = ("serial", "process", "live")


def execute_cell(
    build: ConfigBuilder,
    params: dict[str, Any],
    run_id: str,
    key: str,
    max_events: Optional[int] = None,
    config: Optional["ScenarioConfig"] = None,
) -> RunRecord:
    """Run one campaign cell and reduce it to its picklable record.

    This is the function process-pool workers execute; everything it needs
    (a module-level builder, plain parameter values) and everything it
    returns are picklable by construction.  In-process callers that already
    expanded the campaign may pass the prebuilt ``config`` to skip the
    rebuild; workers always rebuild from ``(build, params)`` because the
    config itself may not be picklable.
    """
    if config is None:
        config = build(params)
    started = time.perf_counter()
    result = run_scenario(config, max_events=max_events)
    return RunRecord.from_result(
        result, run_id, key, params, wall_time=time.perf_counter() - started
    )


@dataclass
class CampaignResult:
    """All records of one campaign execution, in expansion order."""

    campaign: str
    backend: str
    records: list[RunRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time: float = 0.0

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def select(self, **params: Any) -> list[RunRecord]:
        """Records whose parameter point matches every given ``field=value``."""
        return [
            record
            for record in self.records
            if all(record.params.get(name) == value for name, value in params.items())
        ]

    def one(self, **params: Any) -> RunRecord:
        """The single record matching ``params`` (raises if not exactly one)."""
        matches = self.select(**params)
        if len(matches) != 1:
            raise KeyError(
                f"expected exactly one record for {params!r}, found {len(matches)}"
            )
        return matches[0]

    def describe(self) -> str:
        """One-line execution report."""
        return (
            f"campaign {self.campaign!r}: {len(self.records)} runs via {self.backend} "
            f"({self.cache_hits} cached, {self.cache_misses} executed) "
            f"in {self.wall_time:.2f}s"
        )


def _resolve_cache(cache: Union[ResultCache, str, None]) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def run_campaign(
    campaign: Campaign,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache: Union[ResultCache, str, None] = None,
    live_executor: Optional[Any] = None,
) -> CampaignResult:
    """Execute ``campaign`` on the chosen backend, consulting ``cache`` first.

    Cache hits are rebound to the current cell's run id and parameters (keys
    are content hashes, so the same configuration reached from a different
    campaign name still hits).  Only missing cells are executed; fresh
    records are written back to the cache as they complete.

    ``live_executor`` customises the ``"live"`` backend (e.g.
    ``LiveExecutor(jitter=0.05)``); it is rejected for the simulated
    backends so a configured-but-unused executor cannot pass silently.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown campaign backend {backend!r}; expected one of {BACKENDS}"
        )
    if live_executor is not None and backend != "live":
        raise ConfigurationError(
            f"live_executor is only meaningful with backend='live', got {backend!r}"
        )
    if workers is not None and backend == "live":
        raise ConfigurationError(
            "the live backend runs cells serially on one event loop; "
            "workers is only meaningful with backend='process'"
        )

    # Live records describe a different execution substrate than simulated
    # ones, so their cache identity is salted with the executor's prefix
    # (which also folds in its jitter): the same parameter point under
    # "serial"/"process" and under differently configured live executors
    # occupies distinct cache entries.
    executor = None
    key_prefix = ""
    if backend == "live":
        # Lazy import: the live module pulls the asyncio runtime stack,
        # which simulated campaigns never need.
        from repro.runner.live import LiveExecutor

        executor = live_executor if live_executor is not None else LiveExecutor()
        key_prefix = executor.cache_salt

    store = _resolve_cache(cache)
    started = time.perf_counter()
    specs = campaign.expand()
    result = CampaignResult(campaign=campaign.name, backend=backend)

    slots: list[Optional[RunRecord]] = [None] * len(specs)
    todo: list[tuple[int, RunSpec]] = []
    for index, spec in enumerate(specs):
        cell_key = key_prefix + spec.key
        hit = store.get(cell_key) if store is not None else None
        if hit is not None:
            slots[index] = hit.rebound(spec.run_id, spec.params)
            result.cache_hits += 1
        else:
            todo.append((index, spec))
    result.cache_misses = len(todo)

    # Records are written back to the cache as they complete (not after the
    # whole campaign), so an interrupted campaign keeps its finished cells.
    def finish(index: int, record: RunRecord) -> None:
        slots[index] = record
        if store is not None:
            store.put(record)

    # The process backend is used even for a single missing cell: falling
    # back to in-process execution would mask pickling errors (and mislabel
    # the result) until the first cold-cache run on another machine.
    if backend == "live":
        for index, spec in todo:
            finish(
                index,
                executor(
                    campaign.build,
                    spec.params,
                    spec.run_id,
                    key_prefix + spec.key,
                    campaign.max_events,
                    config=spec.config,
                ),
            )
    elif backend == "serial" or not todo:
        for index, spec in todo:
            finish(
                index,
                execute_cell(
                    campaign.build,
                    spec.params,
                    spec.run_id,
                    spec.key,
                    campaign.max_events,
                    config=spec.config,
                ),
            )
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    execute_cell,
                    campaign.build,
                    spec.params,
                    spec.run_id,
                    spec.key,
                    campaign.max_events,
                ): index
                for index, spec in todo
            }
            # Drain every future even after a failure, so completed sibling
            # cells are still recorded (and cached) before the error
            # propagates; unstarted cells are cancelled rather than run for
            # a result nobody will consume.
            first_error: Optional[BaseException] = None
            for future in concurrent.futures.as_completed(futures):
                try:
                    record = future.result()
                except concurrent.futures.CancelledError:
                    continue
                except BaseException as exc:
                    if first_error is None:
                        first_error = exc
                        for pending in futures:
                            pending.cancel()
                    continue
                finish(futures[future], record)
            if first_error is not None:
                raise first_error

    result.records = [record for record in slots if record is not None]
    if len(result.records) != len(specs):  # pragma: no cover - defensive
        raise ConfigurationError("campaign execution lost records; this is a bug")
    result.wall_time = time.perf_counter() - started
    return result
