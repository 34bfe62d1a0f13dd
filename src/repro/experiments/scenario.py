"""Declarative scenario construction and execution.

A :class:`ScenarioConfig` says *what* to run (protocol, system size, timing
parameters, faults, network adversary, duration); :func:`run_scenario` builds
the whole system in one process — every replica on one
:class:`~repro.sim.events.Simulator` over one in-memory transport — runs it
to the requested virtual time, and returns a :class:`RunResult` wrapping the
metrics (the run's one record, protocol events included) and replicas.

The runtime-independent half of that construction — :func:`build_stack`,
:func:`make_replica` — and the result type are shared with the wall-clock
lanes (:mod:`repro.runner.live`): every lane assembles the same protocol
objects here and answers the same queries from one :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.config import ProtocolConfig
from repro.consensus.ledger import sequences_consistent
from repro.consensus.replica import Replica, ReplicaResidue
from repro.crypto.backend import CryptoBackend, make_backend
from repro.crypto.signatures import PKI
from repro.crypto.threshold import ThresholdScheme
from repro.errors import ConfigurationError
from repro.faults.attacks import spread_corruption
from repro.faults.behaviours import SilentLeaderBehaviour
from repro.faults.corruption import CorruptionPlan
from repro.faults.delays import DelayModel, NetworkConfig
from repro.faults.transport import FaultyTransport
from repro.metrics.collector import MetricsCollector
from repro.metrics.counters import FLUSH_COUNTS
from repro.metrics.summary import (
    ComplexitySummary,
    RunMetrics,
    extract_run_metrics,
    summarize_run,
)
from repro.pacemakers.registry import make_pacemaker_factory
from repro.runtime import LocalTransport, Transport
from repro.sim.events import Simulator
from repro.statemachine.kvstore import apply_chains_consistent


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one simulation run."""

    #: Number of processors (n = 3f + 1 recommended).
    n: int = 4
    #: Pacemaker name (see :func:`repro.pacemakers.registry.available_pacemakers`).
    pacemaker: str = "lumiere"
    #: Protocol-specific pacemaker configuration object (optional).
    pacemaker_config: Any = None
    #: Known post-GST delay bound Delta.
    delta: float = 1.0
    #: Actual message delay delta (<= Delta) used by the default delay model.
    actual_delay: float = 0.1
    #: Global stabilisation time chosen by the adversary.
    gst: float = 0.0
    #: Virtual time to run for (must comfortably exceed GST).
    duration: float = 300.0
    #: View-completion constant x of assumption (⋄1).
    x: int = 4
    #: RNG seed (delay models, leader schedules default to it too).
    seed: int = 0
    #: Explicit corruption plan; ``None`` means no faults.
    corruption: Optional[CorruptionPlan] = None
    #: Network delay model deciding each message's fate (its delay, or a
    #: drop or duplicate under :class:`~repro.faults.delays.Lossy`); ``None``
    #: means every message takes ``actual_delay``.
    delay_model: Optional[DelayModel] = None
    #: Accepted and ignored: protocol events are always recorded, in
    #: ``metrics.events()``.  Kept only because the benchmark harness
    #: under ``benchmarks/ledger/`` passes it; not part of a run's
    #: fingerprint.
    record_trace: bool = True
    #: Upper bound on pre-GST delays used when a chaotic pre-GST model is built.
    pre_gst_max_delay: float = 50.0
    #: Floor on every proposed message delay (see
    #: :attr:`repro.faults.delays.NetworkConfig.min_delay`); guards zero-delay
    #: models against the same-timestamp event budget.
    min_delay: float = 0.0
    #: Named fault scenario from :mod:`repro.faults.library`.  When set, the
    #: scenario determines the delay model and corruption plan (so
    #: ``delay_model`` and ``corruption`` must stay ``None``); campaigns can
    #: sweep this field directly.
    scenario: Optional[str] = None
    #: Parameter overrides for the named scenario (JSON-serializable values).
    scenario_params: dict[str, Any] = field(default_factory=dict)
    #: Crypto backend name (see :func:`repro.crypto.backend.available_backends`):
    #: ``"hashing"`` (stable digests, the default) or ``"counting"`` (O(1)
    #: structural tokens, the large-n fast path).  Semantically identical
    #: for modelled runs, so campaigns can sweep this field directly —
    #: ``benchmarks/bench_scaling.py`` does.
    crypto_backend: str = "hashing"
    #: Client workload (a :class:`repro.runner.workload.WorkloadConfig`);
    #: ``None`` runs pure consensus with synthetic payloads.  When set,
    #: every replica applies committed blocks to a replicated KV store and
    #: the selected replicas run load generators — in this simulated lane
    #: and in every live lane, since the field rides the config into
    #: :func:`make_replica` and the forked workers of a process cluster.
    workload: Optional[Any] = None

    def protocol_config(self) -> ProtocolConfig:
        """The shared :class:`ProtocolConfig` implied by this scenario."""
        return ProtocolConfig(
            n=self.n, delta=self.delta, x=self.x, crypto_backend=self.crypto_backend
        )

    def network_config(self) -> NetworkConfig:
        """The :class:`NetworkConfig` implied by this scenario."""
        return NetworkConfig(
            delta=self.delta,
            gst=self.gst,
            actual_delay=self.actual_delay,
            pre_gst_max_delay=self.pre_gst_max_delay,
            min_delay=self.min_delay,
        )


@dataclass
class ProtocolStack:
    """The runtime-independent half of one run (see :func:`build_stack`)."""

    config: ScenarioConfig
    protocol_config: ProtocolConfig
    corruption: CorruptionPlan
    #: The schedule a :class:`~repro.faults.transport.FaultyTransport` must
    #: impose; ``None`` for fault-free and corruption-only configs.
    delay_model: Optional[DelayModel]
    crypto_backend: CryptoBackend
    metrics: MetricsCollector
    pki: PKI
    signing_keys: dict
    scheme: ThresholdScheme
    #: ``replica -> Pacemaker``, one per run: the replicas it builds share
    #: what their pacemakers can (Lumiere's leader schedule).
    pacemaker_factory: Callable[[Replica], Any]


@dataclass
class RunResult:
    """The outcome of one run, on any lane.

    A virtual-time run carries its ``simulator`` (the runtime its transport
    is bound to) and ``transport``; a wall-clock cluster's result carries
    neither.
    Runs whose replicas lived in worker processes hold no replicas at all:
    the coordinator fills ``shipped`` with each replica's
    :class:`ReplicaResidue` from the shard reports, and every per-replica
    query answers from those.
    """

    config: ScenarioConfig
    protocol_config: ProtocolConfig
    metrics: MetricsCollector
    replicas: dict[int, Replica]
    corruption: CorruptionPlan
    simulator: Optional[Simulator] = None
    #: The transport of a virtual-time run.
    transport: Optional[Any] = None
    #: The run's crypto backend instance (its counters expose how much digest
    #: work the run performed); ``None`` when the stacks lived in workers.
    crypto_backend: Optional[CryptoBackend] = None
    #: Per-pid residues shipped from worker processes (consulted only when
    #: ``replicas`` is empty).
    shipped: dict[int, ReplicaResidue] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self, warmup_decisions: int = 5) -> ComplexitySummary:
        """The Table-1 measures for this run."""
        return summarize_run(
            self.metrics,
            protocol=self.config.pacemaker,
            n=self.config.n,
            f_actual=self.corruption.f_actual,
            gst=self.config.gst,
            delta=self.config.delta,
            warmup_decisions=warmup_decisions,
        )

    def run_metrics(self) -> RunMetrics:
        """The picklable derived-metrics residue of this run.

        This is the "lightweight half" of a result: what the campaign
        runner ships between processes and stores in its cache.  The live
        half (replicas, the full collector, the simulator or runtime) stays
        in this object and never crosses a process boundary.
        """
        return extract_run_metrics(self.metrics)

    # ------------------------------------------------------------------
    # Safety / liveness queries.  Safety is the paper's: it quantifies over
    # honest replicas only, so a corrupted pid's ledger or KV chain never
    # enters a consistency check.
    # ------------------------------------------------------------------
    @property
    def honest_replicas(self) -> list[Replica]:
        """Replicas that were never corrupted (empty when they lived in workers)."""
        return self._honest(self.replicas)

    def _honest(self, per_pid: dict[int, Any]) -> list[Any]:
        honest_ids = self.corruption.honest_ids  # a fresh set per read
        return [value for pid, value in sorted(per_pid.items()) if pid in honest_ids]

    def residues(self) -> dict[int, ReplicaResidue]:
        """Every replica's :class:`ReplicaResidue`: built from the live
        replicas, or as shipped from worker processes."""
        if self.replicas:
            return {pid: replica.residue() for pid, replica in self.replicas.items()}
        return self.shipped

    def ledgers_are_consistent(self) -> bool:
        """Safety: honest ledgers are pairwise prefix-consistent."""
        return sequences_consistent(r.ledger for r in self._honest(self.residues()))

    def kv_digests(self) -> dict[int, str]:
        """Per-replica KV state digests (empty without a workload)."""
        return {
            pid: r.kv_digest for pid, r in self.residues().items() if r.kv_digest is not None
        }

    def kv_chains(self) -> dict[int, Iterable[str]]:
        """Per-replica KV apply chains (empty without a workload)."""
        return {
            pid: r.kv_chain for pid, r in self.residues().items() if r.kv_digest is not None
        }

    def client_counts(self) -> dict[int, dict[str, int]]:
        """Per-replica client-path counters (empty without a workload):
        ``mempool.expired``, ``store.duplicates_skipped``,
        ``store.commands_rejected`` and ``kv_batches_malformed``."""
        return {pid: r.client_counts for pid, r in self.residues().items() if r.client_counts}

    def duplicates_per_applied(self) -> float:
        """Committed duplicates the worst honest replica skipped, per request
        applied (0.0 without a workload): the share of ordering work the
        client path spent on commands that were already committed."""
        skipped = [
            counts["store.duplicates_skipped"]
            for counts in self._honest(self.client_counts())
        ]
        applied = self.metrics.requests_applied
        return max(skipped) / applied if skipped and applied else 0.0

    def kv_consistent(self) -> bool:
        """State-machine safety: honest apply chains are prefix-consistent.

        Trivially true without a workload (no chains to disagree).
        """
        return apply_chains_consistent(self._honest(self.kv_chains()))

    def honest_decisions(self) -> int:
        """Number of QCs produced by honest leaders during the run."""
        return len(self.metrics.honest_decisions())

    def committed_blocks(self) -> int:
        """Length of the longest honest ledger."""
        return max((len(r.ledger) for r in self._honest(self.residues())), default=0)

    def max_honest_view(self) -> int:
        """The highest view any honest replica entered."""
        return max(
            (self.metrics.max_view_entered(pid) for pid in self.corruption.honest_ids),
            default=-1,
        )

    @property
    def events_processed(self) -> int:
        """Simulator or runtime events handled during the run (summed across
        the node runtimes of a cluster): ``metrics.counts["events_processed"]``."""
        return self.metrics.counts["events_processed"]

    def describe(self) -> str:
        """One-line run description for reports."""
        line = (
            f"{self.config.pacemaker} n={self.config.n} "
            f"f_a={self.corruption.f_actual} decisions={self.honest_decisions()} "
            f"commits={self.committed_blocks()} consistent={self.ledgers_are_consistent()}"
        )
        counts = self.metrics.counts
        if counts["frames_decoded"]:
            line += f" decoded={counts['frames_decoded']}/delivered={counts['messages_delivered']}"
        if self.config.workload is not None:
            expired = sum(c["mempool.expired"] for c in self.client_counts().values())
            flushes = "/".join(
                f"{trigger}:{counts[name]}" for trigger, name in FLUSH_COUNTS.items()
            )
            line += (
                f" applied={self.metrics.requests_applied}"
                f"/{counts['requests_submitted']}"
                f" redispatched={counts['requests_redispatched']}"
                f" expired={expired}"
                f" flushes={flushes}"
                f" forwards={counts['forwards_sent']}"
            )
        return line


def build_spread_fault_config(params: dict[str, Any]) -> ScenarioConfig:
    """Module-level campaign builder for the steady-state cell shape shared
    by the responsiveness, heavy-sync and Table-1 eventual sweeps (and the
    examples): GST = 0 and ``f_actual`` silent leaders spread
    evenly over the id space.

    ``params`` must carry ``n``, ``protocol``, ``delta``, ``actual_delay``,
    ``duration``, ``seed`` and ``f_actual``; an optional ``crypto_backend``
    name selects the digest backend (so campaigns can sweep it).
    """
    config = ScenarioConfig(
        n=params["n"],
        pacemaker=params["protocol"],
        delta=params["delta"],
        actual_delay=params["actual_delay"],
        gst=0.0,
        duration=params["duration"],
        seed=params["seed"],
        crypto_backend=params.get("crypto_backend", "hashing"),
    )
    config.corruption = spread_corruption(
        config.protocol_config(), params["f_actual"], SilentLeaderBehaviour
    )
    return config


def resolve_adversary(
    config: ScenarioConfig,
) -> tuple[ProtocolConfig, Optional[DelayModel], CorruptionPlan]:
    """Resolve ``config`` to its protocol config, delay model and corruption plan.

    A named scenario determines both halves of the adversary; otherwise the
    config's explicit ``delay_model`` / ``corruption`` (or none) apply.
    """
    protocol_config = config.protocol_config()
    delay_model = config.delay_model
    corruption = config.corruption
    if config.scenario is not None:
        # Local import: the library builds on this module's config type, so
        # importing it at module level would create a cycle.
        from repro.faults.library import get_scenario

        if delay_model is not None or corruption is not None:
            raise ConfigurationError(
                f"scenario {config.scenario!r} fully determines the adversary; "
                "leave delay_model and corruption unset (override via "
                "scenario_params instead)"
            )
        delay_model, corruption = get_scenario(config.scenario).build(
            config, config.scenario_params
        )
    corruption = corruption or CorruptionPlan.none(protocol_config)
    if corruption.config.n != protocol_config.n:
        raise ConfigurationError("corruption plan was built for a different system size")
    return protocol_config, delay_model, corruption


def build_stack(config: ScenarioConfig) -> ProtocolStack:
    """Build everything a lane needs before it has a runtime to hand the
    replicas: the one place an adversary is resolved, a crypto backend
    made, keys minted, the pacemaker factory (and with it Lumiere's
    one leader schedule) made and the metrics collector — the run's one
    record, with its one counter bag ``metrics.counters`` — created.
    """
    protocol_config, delay_model, corruption = resolve_adversary(config)
    # One fresh backend per run (counting tokens must never cross runs),
    # shared by the PKI and the threshold scheme.
    crypto_backend = make_backend(protocol_config.crypto_backend)
    metrics = MetricsCollector()
    metrics.set_honest(corruption.honest_ids)
    pki, signing_keys = PKI.setup(protocol_config.processor_ids, backend=crypto_backend)
    return ProtocolStack(
        config=config,
        protocol_config=protocol_config,
        corruption=corruption,
        delay_model=delay_model,
        crypto_backend=crypto_backend,
        metrics=metrics,
        pki=pki,
        signing_keys=signing_keys,
        scheme=ThresholdScheme(pki),
        pacemaker_factory=make_pacemaker_factory(
            config.pacemaker, protocol_config, config.pacemaker_config
        ),
    )


def make_replica(stack: ProtocolStack, pid: int, transport: Transport) -> Replica:
    """Construct replica ``pid`` of ``stack`` over ``transport`` (already
    bound to its runtime).

    Every lane builds its replicas here — the single-runtime cluster and
    every shard of a socket or shared-memory cluster — so the
    pacemaker, the behaviour and the client workload attach at one point.
    """
    config = stack.config
    replica = Replica(
        pid=pid,
        transport=transport,
        config=stack.protocol_config,
        pki=stack.pki,
        signing_key=stack.signing_keys[pid],
        scheme=stack.scheme,
        pacemaker_factory=stack.pacemaker_factory,
        metrics=stack.metrics,
        behaviour=stack.corruption.behaviour_for(pid),
    )
    if config.workload is not None:
        from repro.runner.workload import attach_workload

        attach_workload(replica, config.workload)
    return replica


#: How far behind zero a replica's local clock is re-anchored immediately
#: before ``start()`` on wall-clock runs.  Under the simulator, construction
#: and start happen at the same virtual instant, so ``lc(p) == 0 == c_0``
#: exactly and the first epoch event fires; on a wall clock, milliseconds
#: elapse in between, the local clock drifts past ``c_0`` and clock-driven
#: pacemakers would skip their bootstrap view.  Starting a hair early is
#: indistinguishable from a slightly later protocol start.
WALL_START_GRACE = 0.05


def start_replicas(replicas: dict[int, Replica], wall: bool = False) -> None:
    """Start replicas in pid order, re-anchoring local clocks on wall runs."""
    for pid in sorted(replicas):
        if wall:
            replicas[pid].clock.set_to(-WALL_START_GRACE)
        replicas[pid].start()


def build_scenario(config: ScenarioConfig) -> RunResult:
    """Construct the whole system for ``config`` in virtual time, without
    running it.

    The fabric is one :class:`LocalTransport` (delay
    ``config.actual_delay``) bound to a :class:`~repro.sim.events.Simulator`,
    the virtual-time runtime.  A
    ``delay_model`` or named ``scenario`` wraps it in a
    :class:`~repro.faults.transport.FaultyTransport` imposing the model
    under the config's partial-synchrony envelope; the model decides every
    non-self message's fate, so the fabric's own delay is read only where
    the model asks for it (:class:`~repro.faults.delays.Lossy` with no
    base).  Everything injected is counted in the run's one bag,
    ``metrics.counters``.

    The result comes back with time still at zero: callers that need to
    perturb initial state (e.g. desynchronise local clocks) or to stop on a
    condition can :func:`start_replicas` and step ``result.simulator``
    themselves — most should use :func:`run_scenario`.
    """
    stack = build_stack(config)
    metrics = stack.metrics
    transport = LocalTransport(delay=config.actual_delay)
    if stack.delay_model is not None:
        transport = FaultyTransport(
            transport,
            stack.delay_model,
            config.network_config(),
            schedule_seed=config.seed,
            counters=metrics.counters,
        )
    simulator = Simulator(seed=config.seed)
    transport.bind(simulator)
    metrics.attach_transport(transport)
    return RunResult(
        config=config,
        protocol_config=stack.protocol_config,
        metrics=metrics,
        replicas={
            pid: make_replica(stack, pid, transport) for pid in stack.protocol_config.processor_ids
        },
        corruption=stack.corruption,
        simulator=simulator,
        transport=transport,
        crypto_backend=stack.crypto_backend,
    )


def run_scenario(config: ScenarioConfig, max_events: Optional[int] = None) -> RunResult:
    """Build and run a scenario to ``config.duration`` of virtual time."""
    result = build_scenario(config)
    start_replicas(result.replicas)
    result.simulator.run(until=config.duration, max_events=max_events)
    return result
