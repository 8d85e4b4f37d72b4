"""The distributed executor: route → run shards → merge, deterministically.

:func:`run_distributed` is the subsystem's front door.  It routes the
instance's ordered edge stream across ``W`` simulated workers, runs each
worker on a pluggable execution backend (``serial``, ``thread``, or
``process`` — see :mod:`repro.distributed.backends`), and merges the
outputs through a registered coordinator with full communication
accounting.  Its body, :func:`_run_sharded`, is shared with the
asynchronous simulator (:func:`~repro.distributed.asyncsim.run_distributed_async`),
which adds only a delivery-schedule replay after the merge.

Determinism contract (tested by ``tests/test_distributed_determinism.py``
and ``tests/test_distributed_backends.py``): the
:class:`DistributedResult` is a pure function of
``(instance, order, seed, workers, algorithm, strategy, coordinator,
faults)`` and is bit-identical for every ``max_workers`` setting and
every backend.  The machinery is the
:class:`~repro.analysis.runner.ExperimentRunner` pattern: all per-shard
seeds are pre-drawn serially from one root RNG before any worker
starts, shard work travels as self-contained pickle-clean
:class:`~repro.distributed.backends.ShardTask` records, results are
slotted by shard index (never by completion order), and traces go
through a :class:`~repro.obs.tracer.TraceCollector` whose output is
sorted by label — worker processes return serialized span cells the
parent adopts.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.algorithms import registered_algorithms
from repro.core.solution import verify_certificate
from repro.distributed.backends import (
    Backend,
    ShardOutcome,
    ShardTask,
    make_backend,
    run_tasks_with_recovery,
)
from repro.distributed.comm import (
    CommBudget,
    CommMeter,
    CommReport,
    check_count,
)
from repro.distributed.coordinator import (
    Coordinator,
    CoordinatorOptions,
    make_coordinator,
)
from repro.distributed.router import STRATEGIES, ShardPlan, ShardRouter
from repro.distributed.transport import (
    Transport,
    TransportReport,
    make_transport,
)
from repro.distributed.worker import (
    InstanceShape,
    ShardOutput,
    ShardReport,
)
from repro.errors import (
    InvalidCoverError,
    InvalidParameterError,
)
from repro.faults.injectors import FaultSpec
from repro.faults.resilient import DegradationRecord
from repro.faults.shards import ShardFaultPlan
from repro.obs.events import DEGRADATION, SPAN_MERGE
from repro.obs.tracer import NULL_TRACER, TraceCollector
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import ArrivalOrder, CanonicalOrder
from repro.streaming.stream import FrozenEdges
from repro.types import ElementId, SetId, make_rng

if TYPE_CHECKING:
    from repro.distributed.asyncsim import _ScheduleReplay

_SEED_SPACE = 2**63


def check_seed(parameter: str, seed: Optional[int]) -> int:
    """The integer value of a run seed; ``None`` means 0.

    Executor seeds are recorded on the result and mixed into routing
    and per-shard seeds as integers, so an RNG object (or a bool, or a
    float) is rejected with a typed error before any shard work runs.
    """
    if seed is None:
        return 0
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise InvalidParameterError(
            parameter, seed, "expected an int seed (or None for 0)"
        )
    return int(seed)


def validate_transport(transport: Optional[object]) -> None:
    """Fail fast on a ``transport`` argument that can never resolve.

    Catches unknown registry names and wrong types *before* any shard
    work runs; the transport itself (which may bind a socket) is only
    constructed at merge time by :func:`resolve_transport`.
    """
    if transport is None or isinstance(transport, Transport):
        return
    if isinstance(transport, str):
        from repro.distributed.transport import TRANSPORT_REGISTRY

        if transport not in TRANSPORT_REGISTRY:
            known = ", ".join(sorted(TRANSPORT_REGISTRY))
            raise InvalidParameterError(
                "transport", transport, f"known transports: {known}"
            )
        return
    raise InvalidParameterError(
        "transport",
        transport,
        "expected a registry name or a Transport instance",
    )


def resolve_transport(transport: Optional[object]) -> Transport:
    """Accept a registry name, a built :class:`Transport`, or ``None``.

    ``None`` means ``"inproc"`` — every run measures its wire bytes,
    the default just measures them without moving anything.  Shared by
    the synchronous and asynchronous executors so both accept the same
    ``transport=`` vocabulary.
    """
    validate_transport(transport)
    if isinstance(transport, Transport):
        return transport
    return make_transport(transport if transport is not None else "inproc")


@dataclass
class DistributedResult:
    """Outcome of one distributed run: cover, shard reports, comm report."""

    cover: FrozenSet[SetId]
    certificate: Mapping[ElementId, SetId]
    comm: CommReport
    shards: List[ShardReport]
    algorithm: str = ""
    strategy: str = ""
    coordinator: str = ""
    workers: int = 0
    seed: int = 0
    order_name: str = "canonical"
    diagnostics: Dict[str, float] = field(default_factory=dict)
    #: Per-shard attempt histories under fault-tolerant execution; empty
    #: for plain runs (no resilience knobs set).
    outcomes: Tuple[ShardOutcome, ...] = ()
    #: One record per shard abandoned by a quorum-degraded merge; empty
    #: means the cover is complete.  Mirrors ResilientAlgorithm's
    #: contract: a partial answer always carries its explicit account.
    degradations: Tuple[DegradationRecord, ...] = ()
    #: Elements the (possibly degraded) merge left uncovered, ascending.
    uncovered: Tuple[ElementId, ...] = ()
    # Operational metadata: what the wire carried.  Excluded from
    # equality because the contract is exactly that it must NOT change
    # the result.
    transport: Optional[TransportReport] = field(
        default=None, compare=False, repr=False
    )

    @property
    def cover_size(self) -> int:
        """Number of sets in the merged cover."""
        return len(self.cover)

    @property
    def total_comm_words(self) -> int:
        """Total words moved between shards and coordinator."""
        return self.comm.total_words

    @property
    def max_message_words(self) -> int:
        """Largest single message of the merge — Theorem 2's quantity."""
        return self.comm.max_message_words

    def verify(
        self, instance: SetCoverInstance, allow_partial: bool = False
    ) -> None:
        """Raise :class:`InvalidCoverError` unless this is a valid cover.

        Same three checks as :meth:`StreamingResult.verify`
        (:func:`~repro.core.solution.verify_certificate`): total
        certificate, witnesses inside the cover, witnesses containing
        their elements.  With ``allow_partial`` (quorum-degraded runs)
        the totality check relaxes to *accounted-for* totality: every
        element must either carry a valid witness or appear explicitly
        in :attr:`uncovered` — a silently missing element still fails.
        """
        verify_certificate(
            instance,
            self.cover,
            self.certificate,
            f"distributed[{self.coordinator or 'merge'}]",
            uncovered=set(self.uncovered) if allow_partial else None,
        )

    def is_valid(
        self, instance: SetCoverInstance, allow_partial: bool = False
    ) -> bool:
        """``True`` iff :meth:`verify` passes."""
        try:
            self.verify(instance, allow_partial=allow_partial)
        except InvalidCoverError:
            return False
        return True


def _draw_shard_seeds(
    root_seed: int, workers: int
) -> Tuple[List[int], List[int]]:
    """Pre-draw every per-shard seed serially from one root RNG.

    Fault seeds are drawn even when faults are off — adding a fault
    spec must not shift the algorithm seeds (the ExperimentRunner
    discipline).
    """
    rng = make_rng(root_seed)
    shard_seeds = [rng.randrange(_SEED_SPACE) for _ in range(workers)]
    fault_seeds = [rng.randrange(_SEED_SPACE) for _ in range(workers)]
    return shard_seeds, fault_seeds


def _reseeded_faults(
    faults: Optional[Sequence[FaultSpec]], fault_seed: int
) -> Tuple[FaultSpec, ...]:
    """The shard-local fault plan: each spec re-seeded for this shard."""
    if not faults:
        return ()
    return tuple(
        FaultSpec(
            kind=spec.kind,
            rate=spec.rate,
            seed=(fault_seed ^ spec.seed) % _SEED_SPACE,
        )
        for spec in faults
    )


@dataclass(frozen=True)
class DistributedConfig:
    """The per-run options of both executors, declared once.

    :func:`run_distributed` and
    :func:`~repro.distributed.asyncsim.run_distributed_async` take these
    fields as keywords and build one config per run.  Construction
    validates every option whose check does not need ``workers``, so a
    bad value fails typed before any shard runs; ``seed`` is stored as
    an int (``None`` means 0).
    """

    #: Streaming algorithm each shard runs (registry name).
    algorithm: str = "kk"
    #: Routing strategy (:data:`~repro.distributed.router.STRATEGIES`).
    strategy: str = "by-set"
    #: Merge coordinator (registry name).
    coordinator: str = "chain"
    #: Arrival order applied to the canonical edge enumeration before
    #: routing; defaults to :class:`CanonicalOrder`.
    order: Optional[ArrivalOrder] = None
    #: Root seed of routing and of every per-shard seed.
    seed: Optional[int] = 0
    #: Each shard's α, passed to :func:`~repro.algorithms.make_algorithm`
    #: (``None`` means the algorithm's default).
    alpha: Optional[float] = None
    #: Real executor parallelism (threads or processes, ≥ 1).  This is
    #: an *operational* parameter — it must not, and does not, change
    #: the result.
    max_workers: int = 1
    #: Optional hard cap on total merge communication; crossing it
    #: raises :class:`~repro.errors.CommBudgetError`.
    comm_budget: Optional[CommBudget] = None
    #: Fault specs applied *per shard* to each shard's edge sequence
    #: (each shard re-seeds the specs from its own pre-drawn fault
    #: seed, so shards fail independently as real machines would).
    faults: Optional[Sequence[FaultSpec]] = None
    #: Attach to record per-shard (``shard[i]``) and merge traces.
    collector: Optional[TraceCollector] = None
    #: Protocol coordinators' (chain, tree) fixed greedy take-threshold
    #: override.
    threshold: Optional[float] = None
    #: Re-estimate τ from the forwarded state at every merge step
    #: (chain, tree); mutually exclusive with ``threshold``.
    adaptive_threshold: bool = False
    #: Keep the full per-message log in the comm report (tests only).
    comm_log: bool = False
    #: Execution backend name — ``"serial"``, ``"thread"``, or
    #: ``"process"`` (see :mod:`repro.distributed.backends`).  ``None``
    #: means ``"serial"``, which measured no slower than ``"thread"`` at
    #: every tested width.  Operational: every backend produces the
    #: identical result.
    backend: Optional[str] = None
    #: Wire transport for merge messages — a registry name
    #: (``"inproc"``, ``"loopback"``, ``"socket"``) or a constructed
    #: :class:`~repro.distributed.transport.Transport` (tests inject
    #: fault-configured loopbacks this way).  ``None`` means
    #: ``"inproc"``.  Operational: every transport produces the
    #: identical cover/certificate/comm report; only the
    #: :attr:`DistributedResult.transport` byte accounting differs.  The
    #: transport is closed before the run returns.
    transport: Optional[object] = None
    #: Machine-level fault plan: crashes and stragglers afflicting
    #: specific shards.  Setting any resilience knob (this,
    #: ``min_shards`` or ``deadline_steps``) routes execution through
    #: :func:`~repro.distributed.backends.run_tasks_with_recovery`
    #: (retry-with-backoff on a logical clock).
    shard_faults: Optional[ShardFaultPlan] = None
    #: Quorum policy: the merge proceeds — degraded, with explicit
    #: :class:`~repro.faults.resilient.DegradationRecord`s — as long as
    #: at least this many shards survive.  ``None`` demands all
    #: ``workers`` shards, so any abandoned shard raises its typed
    #: :class:`~repro.errors.ShardCrashError` /
    #: :class:`~repro.errors.ShardTimeoutError`.  Its range check needs
    #: ``workers``, so the executor body runs it.
    min_shards: Optional[int] = None
    #: Per-attempt deadline on the logical clock; an attempt finishing
    #: later times out and is retried, then abandoned.
    deadline_steps: Optional[int] = None
    #: Attempts per shard before abandoning it (retries re-seed via
    #: :func:`~repro.distributed.backends.derive_retry_seed`).
    max_attempts: int = 3
    #: Logical steps between a failed attempt and the next.
    backoff_steps: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_seed("seed", self.seed))
        # An unknown name fails here, before the order and the routing run.
        if self.algorithm not in registered_algorithms():
            raise InvalidParameterError(
                "algorithm",
                self.algorithm,
                "known algorithms: " + ", ".join(registered_algorithms()),
            )
        if self.strategy not in STRATEGIES:
            raise InvalidParameterError(
                "strategy",
                self.strategy,
                "known strategies: " + ", ".join(STRATEGIES),
            )
        if self.order is not None and not isinstance(self.order, ArrivalOrder):
            raise InvalidParameterError(
                "order", self.order, "expected an ArrivalOrder (or None)"
            )
        check_count("max_workers", self.max_workers)
        check_count("max_attempts", self.max_attempts)
        check_count("backoff_steps", self.backoff_steps, minimum=0)
        if self.comm_budget is not None and not isinstance(
            self.comm_budget, CommBudget
        ):
            raise InvalidParameterError(
                "comm_budget",
                self.comm_budget,
                "expected a CommBudget (or None)",
            )
        # An unknown backend or coordinator, or an option the coordinator
        # cannot honour, fails here rather than after W shards have run.
        # The transport name is validated too, but the transport itself
        # is built at merge time so a shard failure cannot leak a bound
        # socket.
        self.build_backend()
        self.build_merger()
        validate_transport(self.transport)

    def build_backend(self) -> Backend:
        """A fresh instance of the configured execution backend."""
        return make_backend(self.backend if self.backend is not None else "serial")

    def build_merger(self) -> Coordinator:
        """A fresh instance of the configured coordinator."""
        return make_coordinator(
            self.coordinator,
            CoordinatorOptions(
                threshold=self.threshold,
                adaptive_threshold=self.adaptive_threshold,
            ),
        )


def build_shard_plan_and_tasks(
    instance: SetCoverInstance,
    workers: int,
    config: DistributedConfig,
    traced: bool = False,
) -> Tuple[ShardPlan, List[ShardTask]]:
    """Route ``instance`` and return the plan plus W self-contained tasks.

    The single source of routing and seed discipline: the shared
    executor body behind :func:`run_distributed` and the asynchronous
    simulator (:mod:`repro.distributed.asyncsim`), and
    :func:`build_shard_tasks`, all build their tasks here, which is what
    makes the async/sync parity guarantee structural rather than
    coincidental.  The edge stream stays in ``int64`` columns from the
    instance through the order and the router into the tasks.
    """
    check_count("workers", workers)
    arrival = config.order if config.order is not None else CanonicalOrder()
    edges = FrozenEdges.from_columns(
        *arrival.apply_columns(*instance.edge_columns())
    )
    router = ShardRouter(
        strategy=config.strategy, workers=workers, seed=config.seed
    )
    plan = router.route_edges(instance, edges, order_name=arrival.name)
    shard_seeds, fault_seeds = _draw_shard_seeds(config.seed, workers)
    shape = InstanceShape.of(instance)
    tasks = [
        ShardTask(
            index=index,
            algorithm=config.algorithm,
            seed=shard_seeds[index],
            shape=shape,
            edges=plan.shard_edges[index],
            set_order=plan.set_order[index],
            alpha=config.alpha,
            fault_specs=_reseeded_faults(config.faults, fault_seeds[index]),
            order_name=arrival.name,
            traced=traced,
        )
        for index in range(workers)
    ]
    return plan, tasks


def build_shard_tasks(
    instance: SetCoverInstance,
    workers: int,
    *,
    traced: bool = False,
    **options: Any,
) -> List[ShardTask]:
    """Route ``instance`` and return the W self-contained shard tasks.

    Exactly the tasks :func:`run_distributed` would execute with the
    same options (:class:`DistributedConfig` fields, by keyword) —
    exposed so tests (and remote transports, eventually) can pickle,
    ship, and replay shard work without the executor.
    """
    config = DistributedConfig(**options)
    return build_shard_plan_and_tasks(instance, workers, config, traced)[1]


def run_distributed(
    instance: SetCoverInstance, workers: int, **options: Any
) -> DistributedResult:
    """Run an algorithm over ``instance`` sharded across ``workers``.

    ``workers`` is the number of simulated shards ``W`` (≥ 1).  This is
    a *semantic* parameter — it changes the partition and hence the
    result.  Every other option is a :class:`DistributedConfig` field,
    passed by keyword; an unknown keyword raises :class:`TypeError`.
    """
    return _run_sharded(instance, workers, DistributedConfig(**options))


def _run_sharded(
    instance: SetCoverInstance,
    workers: int,
    config: DistributedConfig,
    replay: Optional["_ScheduleReplay"] = None,
) -> DistributedResult:
    """The one executor body: validate, run shards, merge, assemble.

    :func:`run_distributed` calls it as is.  The asynchronous simulator
    passes a ``replay``: execution then always goes through the
    recovery layer with its events on ``replay.tracer``, and after the
    merge ``replay(outputs, outcomes, comm)`` plays the merge's messages
    through a delivery schedule and returns the schedule diagnostics
    appended to the result.  The merge runs exactly once either way, on
    the surviving outputs in shard-index order.
    """
    check_count("workers", workers)
    min_shards = config.min_shards
    if min_shards is not None and not 1 <= min_shards <= workers:
        raise InvalidParameterError(
            "min_shards",
            min_shards,
            f"must be between 1 and workers={workers}",
        )
    backend_impl = config.build_backend()
    merger = config.build_merger()
    collector = config.collector
    resilient = replay is not None or (
        config.shard_faults is not None
        or min_shards is not None
        or config.deadline_steps is not None
    )

    plan, tasks = build_shard_plan_and_tasks(
        instance, workers, config, traced=collector is not None
    )
    merge_tracer = (
        collector.tracer_for("merge") if collector is not None else NULL_TRACER
    )
    outcomes: List[ShardOutcome] = []
    if resilient:
        maybe_envelopes, outcomes = run_tasks_with_recovery(
            backend_impl,
            tasks,
            config.max_workers,
            shard_faults=config.shard_faults,
            max_attempts=config.max_attempts,
            backoff_steps=config.backoff_steps,
            deadline_steps=config.deadline_steps,
            tracer=replay.tracer if replay is not None else merge_tracer,
        )
        envelopes = [env for env in maybe_envelopes if env is not None]
    else:
        envelopes = backend_impl.run_tasks(tasks, config.max_workers)

    outputs: Dict[int, ShardOutput] = {}
    for envelope in envelopes:
        # Slot results by shard index, never by completion order.
        outputs[envelope.index] = envelope.output
        if collector is not None and envelope.trace_jsonl is not None:
            collector.adopt_jsonl(
                f"shard[{envelope.index:03d}]", envelope.trace_jsonl
            )
    shard_outputs = [outputs[i] for i in sorted(outputs)]
    lost = [o for o in outcomes if o.abandoned]
    if lost:
        survivors = workers - len(lost)
        required = min_shards if min_shards is not None else workers
        if survivors < required:
            raise lost[0].to_error(
                deadline_steps=config.deadline_steps,
                context=(
                    f"quorum not met: {survivors}/{workers} shard(s) "
                    f"survived, need {required}"
                ),
            )

    comm = CommMeter(budget=config.comm_budget, log_messages=config.comm_log)
    transport_impl = resolve_transport(config.transport)
    try:
        with merge_tracer.span(
            SPAN_MERGE,
            coordinator=config.coordinator,
            strategy=config.strategy,
            workers=workers,
        ):
            outcome = merger.merge(
                instance,
                shard_outputs,
                comm,
                tracer=merge_tracer,
                transport=transport_impl,
                allow_partial=bool(lost),
            )
        schedule = replay(outputs, outcomes, comm) if replay is not None else {}
        comm_report = comm.report()
        transport_report = transport_impl.report(
            metered_words=comm_report.total_words
        )
    finally:
        transport_impl.close()

    degradations: Tuple[DegradationRecord, ...] = ()
    if lost:
        n = instance.n
        fraction = (n - len(outcome.uncovered)) / n if n else 1.0
        records = []
        for o in lost:
            records.append(
                DegradationRecord(
                    policy="quorum-degraded",
                    relaxed_invariant="complete-cover",
                    coverage_fraction=fraction,
                    uncovered_count=len(outcome.uncovered),
                    error_type=o.error_type,
                    error_message=o.error_message,
                    details={
                        "shard": float(o.index),
                        "attempts": float(o.attempts),
                        "completion_step": float(o.completion_step),
                        "survivors": float(workers - len(lost)),
                        "workers": float(workers),
                    },
                )
            )
            if merge_tracer.enabled:
                merge_tracer.event(
                    DEGRADATION,
                    policy="quorum-degraded",
                    shard=o.index,
                    error_type=o.error_type,
                    uncovered_count=len(outcome.uncovered),
                )
        degradations = tuple(records)

    diagnostics: Dict[str, float] = dict(outcome.diagnostics)
    diagnostics["total_edges_routed"] = float(plan.total_edges)
    diagnostics["dropped_invalid_edges"] = float(
        sum(out.report.dropped_invalid for out in shard_outputs)
    )
    diagnostics["peak_shard_space_words"] = float(
        max((out.report.space.peak_words for out in shard_outputs), default=0)
    )
    if resilient:
        diagnostics["shards_lost"] = float(len(lost))
        diagnostics["shard_retries"] = float(
            sum(max(0, o.attempts - 1) for o in outcomes)
        )
    if replay is None and resilient:
        diagnostics["logical_completion_step"] = float(
            max((o.completion_step for o in outcomes), default=0)
        )
    diagnostics.update(schedule)
    return DistributedResult(
        cover=frozenset(outcome.cover),
        certificate=outcome.certificate,
        comm=comm_report,
        shards=[out.report for out in shard_outputs],
        algorithm=config.algorithm,
        strategy=config.strategy,
        coordinator=config.coordinator,
        workers=workers,
        seed=config.seed,
        order_name=plan.order_name,
        diagnostics=diagnostics,
        outcomes=tuple(outcomes),
        degradations=degradations,
        uncovered=tuple(outcome.uncovered),
        transport=transport_report,
    )


def shard_space_reports(result: DistributedResult) -> Tuple[int, ...]:
    """Per-shard peak space in words, by shard index (convenience)."""
    return tuple(report.space.peak_words for report in result.shards)
