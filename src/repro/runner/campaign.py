"""Declarative experiment campaigns.

A :class:`Campaign` is the high-level entry point of the reproduction: it
names a cartesian grid of parameter points (:class:`Sweep` axes layered on a
``fixed`` base), a module-level ``build`` function turning one parameter
point into a :class:`~repro.experiments.scenario.ScenarioConfig`, and how to
execute the expanded cells (serial or process-pool, optionally backed by an
on-disk result cache).

Design constraints that shaped this module:

* **Stable run ids.**  ``expand()`` is deterministic: the same campaign
  produces the same cells in the same order with the same
  ``name[field=value,...]`` ids, so logs, caches and cross-backend
  comparisons line up.
* **Picklability by construction.**  Workers receive ``(build, params)`` —
  a module-level function (pickled by reference) and plain parameter values
  — and construct the ``ScenarioConfig`` *inside* the worker.  Configs may
  therefore contain closures (e.g. :class:`~repro.faults.delays.AdversarialDelay`)
  without breaking the process-pool backend.
* **Content-addressed caching.**  Each cell's cache key is a hash of the
  *expanded* configuration (including corruption plan and delay-model
  descriptions) plus the package version, so re-running a campaign only
  executes missing cells and code upgrades invalidate stale results.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.version import __version__

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.experiments.scenario import ScenarioConfig
    from repro.runner.cache import ResultCache
    from repro.runner.executor import CampaignResult

#: A module-level function mapping one parameter point to a scenario config.
#: (The config type is a forward reference: the experiments package imports
#: this module, so importing it back at runtime would create a cycle.)
ConfigBuilder = Callable[[dict[str, Any]], "ScenarioConfig"]


@dataclass(frozen=True)
class Sweep:
    """One axis of a campaign grid: a parameter name and its values, in order.

    Parameters
    ----------
    field_name:
        The parameter this axis sweeps (a key in the builder's params dict).
    values:
        The values, in sweep order; must be non-empty.
    """

    field: str
    values: tuple[Any, ...]

    def __init__(self, field_name: str, values: Iterable[Any]) -> None:
        object.__setattr__(self, "field", field_name)
        object.__setattr__(self, "values", tuple(values))
        if not self.values:
            raise ConfigurationError(f"sweep over {field_name!r} has no values")


@dataclass(frozen=True)
class RunSpec:
    """One expanded campaign cell, ready to execute.

    Attributes
    ----------
    run_id:
        Stable human-readable id: ``campaign-name[field=value,...]``.
    params:
        The parameter point (fixed values merged with one grid point).
    config:
        The scenario config the builder produced for ``params``.
    key:
        Content hash identifying this cell's results across campaign runs
        (see :func:`spec_key`).
    """

    run_id: str
    params: dict[str, Any] = field(compare=False)
    config: ScenarioConfig = field(compare=False)
    key: str = ""


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+>")


def _stable_repr(value: Any, field_name: str) -> Optional[str]:
    """``repr(value)``, rejecting default object reprs.

    A repr embedding a memory address changes on every process start, which
    would silently turn every cache lookup into a miss; failing loudly here
    points the user at the real fix (a parameter-faithful ``__repr__``).
    """
    if value is None:
        return None
    return _stable_description(repr(value), field_name)


def _stable_description(text: str, field_name: str) -> str:
    """Validate that a description identifies its object's parameters.

    Two classes of description cannot: default object reprs (they embed a
    memory address, different on every process start — every lookup misses)
    and closure/lambda qualnames (identical for every closure a factory
    produces — different configurations silently share a cache entry).
    Both are rejected loudly; the fix is always a parameter-faithful
    ``__repr__``/``describe()``/``name``.
    """
    if _ADDRESS_REPR.search(text) or "<lambda>" in text or "<locals>" in text:
        raise ConfigurationError(
            f"{field_name} has no stable description (got {text!r}); define a "
            "__repr__/describe()/name faithful to its parameters so campaign "
            "run keys and cache lookups are sound"
        )
    return text


def config_fingerprint(config: "ScenarioConfig") -> dict[str, Any]:
    """A JSON-safe content description of an expanded scenario config.

    Nested strategy objects are described rather than serialized: corruption
    plans by their corrupted ids and per-behaviour ``describe()`` strings,
    delay models by their :meth:`~repro.faults.delays.DelayModel.describe`
    string.  Custom behaviours and delay models must therefore make
    ``describe()`` faithful to their parameters for caching to be sound.

    Parameters
    ----------
    config:
        The fully expanded scenario configuration.

    Returns
    -------
    dict
        A JSON-serializable description covering every field that affects
        the run's outcome (including named scenario and its parameters).

    Raises
    ------
    ConfigurationError
        If a nested object has no parameter-faithful description (default
        object repr, lambda/closure qualname).
    """
    corruption = config.corruption
    delay_model = config.delay_model
    return {
        "n": config.n,
        "pacemaker": config.pacemaker,
        "pacemaker_config": _stable_repr(config.pacemaker_config, "pacemaker_config"),
        "delta": config.delta,
        "actual_delay": config.actual_delay,
        "gst": config.gst,
        "duration": config.duration,
        "x": config.x,
        "seed": config.seed,
        "pre_gst_max_delay": config.pre_gst_max_delay,
        "min_delay": config.min_delay,
        "scenario": config.scenario,
        "scenario_params": dict(sorted(config.scenario_params.items())),
        "crypto_backend": config.crypto_backend,
        "corruption": None
        if corruption is None
        else {
            str(pid): behaviour.describe()
            for pid, behaviour in sorted(corruption.behaviours.items())
        },
        "delay_model": None
        if delay_model is None
        else _stable_description(delay_model.describe(), "delay_model"),
    }


def spec_key(config: ScenarioConfig, max_events: Optional[int] = None) -> str:
    """Content hash identifying one cell's results across campaign runs.

    Parameters
    ----------
    config:
        The fully expanded scenario configuration.
    max_events:
        The campaign's per-run event budget, part of the key because it
        changes the result.

    Returns
    -------
    str
        A SHA-256 hex digest over the canonical JSON of
        :func:`config_fingerprint` plus the package version (so code
        upgrades invalidate stale cache entries).
    """
    document = {
        "version": __version__,
        "max_events": max_events,
        "config": config_fingerprint(config),
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Campaign:
    """A named, declarative grid of scenarios.

    Attributes
    ----------
    name:
        Campaign name; prefixes every run id.
    build:
        Module-level function mapping a parameter dict (fixed values merged
        with one grid point) to a :class:`ScenarioConfig`.  It must be
        importable in worker processes — lambdas and closures will fail the
        process-pool backend with a pickling error.
    sweeps:
        The grid axes.  Expansion is the cartesian product in declaration
        order, last axis fastest (like nested for-loops).
    fixed:
        Parameter values shared by every cell (overridden by any sweep axis
        of the same name — declaring both is rejected).
    max_events:
        Optional per-run event budget forwarded to ``run_scenario``.
    """

    name: str
    build: ConfigBuilder
    sweeps: tuple[Sweep, ...] = ()
    fixed: Mapping[str, Any] = field(default_factory=dict)
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        seen: set[str] = set(self.fixed)
        for sweep in self.sweeps:
            if sweep.field in seen:
                raise ConfigurationError(
                    f"campaign {self.name!r} declares parameter {sweep.field!r} twice"
                )
            seen.add(sweep.field)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def points(self) -> list[dict[str, Any]]:
        """The cartesian grid as parameter dicts, in deterministic order.

        Returns
        -------
        list[dict]
            One dict per cell (fixed values merged with the grid point),
            in declaration order with the last axis fastest.
        """
        grid: list[dict[str, Any]] = [dict(self.fixed)]
        for sweep in self.sweeps:
            grid = [
                {**point, sweep.field: value} for point in grid for value in sweep.values
            ]
        return grid

    def run_id_for(self, params: Mapping[str, Any]) -> str:
        """The stable id of the cell at ``params`` (swept fields only).

        Returns
        -------
        str
            ``name[field=value,...]`` over the swept fields in axis order,
            or just ``name`` for a sweep-less campaign.
        """
        cell = ",".join(
            f"{sweep.field}={_format_value(params[sweep.field])}" for sweep in self.sweeps
        )
        return f"{self.name}[{cell}]" if cell else self.name

    def expand(self) -> list[RunSpec]:
        """Expand the grid into concrete, content-keyed run specs.

        Parameter values are validated as JSON-serializable here — before
        any simulation runs — because they travel in every
        :class:`~repro.runner.record.RunRecord` and cache entry; failing at
        ``cache.put`` time would discard completed work.

        Returns
        -------
        list[RunSpec]
            One spec per cell, in :meth:`points` order.

        Raises
        ------
        ConfigurationError
            If a parameter value is not JSON-serializable, or an expanded
            config has no stable fingerprint.
        """
        specs = []
        for params in self.points():
            try:
                json.dumps(params)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"campaign {self.name!r}: parameter values must be "
                    f"JSON-serializable (records and cache entries carry them): {exc}"
                ) from None
            config = self.build(params)
            specs.append(
                RunSpec(
                    run_id=self.run_id_for(params),
                    params=params,
                    config=config,
                    key=spec_key(config, self.max_events),
                )
            )
        return specs

    def __len__(self) -> int:
        size = 1
        for sweep in self.sweeps:
            size *= len(sweep.values)
        return size

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        backend: str = "serial",
        workers: Optional[int] = None,
        cache: Optional["ResultCache | str"] = None,
    ) -> "CampaignResult":
        """Execute every cell and return the campaign's records.

        Parameters
        ----------
        backend:
            ``"serial"`` (deterministic, in-process; the default) or
            ``"process"`` (a ``concurrent.futures`` process pool).
        workers:
            Worker count for the process backend (``None`` = executor
            default, i.e. the CPU count); rejected on the serial backend.
        cache:
            A :class:`ResultCache`, a directory path, or ``None`` to
            disable caching.

        Returns
        -------
        CampaignResult
            All records in expansion order, with cache-hit accounting.
        """
        from repro.runner.executor import run_campaign

        return run_campaign(self, backend=backend, workers=workers, cache=cache)
