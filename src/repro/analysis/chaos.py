"""Chaos harness: fault type × rate × algorithm × order sweeps.

Drives every registered algorithm over fault-injected streams and
classifies each cell's outcome against the global robustness invariant:

    **valid cover**, or **typed** :class:`~repro.errors.ReproError`, or
    **explicit degradation record** — never a bare ``KeyError`` /
    ``IndexError`` and never a silently wrong answer.

Outcomes:

``valid-cover``
    The run returned a result that verifies against the ground truth
    (total certificate, in-range witnesses, witnesses in the cover).
``degraded``
    The resilient wrapper emitted a :class:`DegradationRecord` — the
    relaxed invariant, skipped-edge count, and coverage fraction are all
    explicit.
``typed-error``
    A :class:`ReproError` subclass was raised (the paper-faithful
    response to violated assumptions).
``violation``
    Anything else: a bare builtin exception or a result that claims
    validity but fails verification.  :meth:`ChaosReport.assert_invariant`
    raises if any cell lands here.

Every cell is independently seeded from the master seed, so a failing
cell reproduces in isolation from its row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.algorithms import make_algorithm, registered_algorithms
from repro.analysis.tables import render_table
from repro.distributed.asyncsim import run_distributed_async
from repro.distributed.executor import DistributedResult, run_distributed
from repro.errors import ReproError
from repro.faults.injectors import FAULT_KINDS, FaultSpec, inject
from repro.faults.resilient import ResilientAlgorithm, ResilientResult
from repro.faults.shards import SHARD_FAULT_KINDS, ShardFaultPlan
from repro.generators.planted import planted_partition_instance
from repro.obs.tracer import TraceCollector
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import make_order
from repro.streaming.stream import stream_of
from repro.types import SeedLike, make_rng

#: Arrival orders the sweep contrasts: adversarially spread vs random.
DEFAULT_ORDERS = ("round-robin", "random")

#: Fault intensities exercised by default (mild, moderate, severe).
DEFAULT_RATES = (0.01, 0.1, 0.5)


class _SweepReport:
    """What both sweeps' reports share: the invariant check and the table.

    A subclass is a dataclass with ``rows`` of cells carrying ``seed``,
    ``outcome`` and ``detail``; it names its :attr:`invariant` and
    :attr:`headers` and gives each cell's violation label, table row
    and the table title.
    """

    #: The sweep's name in :meth:`assert_invariant`'s message.
    invariant = ""
    #: Table columns, in :meth:`_row` order.
    headers: Tuple[str, ...] = ()

    def violations(self) -> list:
        """Cells that break the robustness invariant."""
        return [cell for cell in self.rows if cell.outcome == "violation"]

    def outcome_counts(self) -> dict:
        counts: dict = {}
        for cell in self.rows:
            counts[cell.outcome] = counts.get(cell.outcome, 0) + 1
        return counts

    def assert_invariant(self) -> None:
        """Raise ``AssertionError`` listing every violating cell."""
        bad = self.violations()
        if bad:
            lines = [
                f"  {self._label(c)} (seed={c.seed}): {c.detail}" for c in bad
            ]
            raise AssertionError(
                f"{self.invariant} invariant violated in {len(bad)} cell(s):\n"
                + "\n".join(lines)
            )

    def render(self, markdown: bool = False) -> str:
        summary = ", ".join(
            f"{k}={v}" for k, v in sorted(self.outcome_counts().items())
        )
        return (
            render_table(
                list(self.headers),
                [self._row(c) for c in self.rows],
                title=self._title(),
                markdown=markdown,
            )
            + f"\noutcomes: {summary}"
        )


@dataclass
class ChaosCell:
    """Outcome of one (algorithm, fault, rate, order) cell."""

    algorithm: str
    fault_kind: str
    rate: float
    order: str
    policy: str
    seed: int
    outcome: str
    detail: str = ""
    cover_size: int = 0
    coverage_fraction: float = 0.0


@dataclass
class ChaosReport(_SweepReport):
    """All cells of one chaos sweep, plus invariant checking."""

    policy: str
    seed: int
    instance_label: str
    rows: List[ChaosCell] = field(default_factory=list)

    invariant = "chaos"
    headers = (
        "algorithm",
        "fault",
        "rate",
        "order",
        "outcome",
        "cover",
        "coverage",
        "detail",
    )

    def _label(self, c: ChaosCell) -> str:
        return f"{c.algorithm} × {c.fault_kind}@{c.rate} × {c.order}"

    def _row(self, c: ChaosCell) -> list:
        return [
            c.algorithm,
            c.fault_kind,
            c.rate,
            c.order,
            c.outcome,
            c.cover_size,
            c.coverage_fraction,
            c.detail[:48],
        ]

    def _title(self) -> str:
        return (
            f"chaos sweep — policy={self.policy}, seed={self.seed}, "
            f"instance={self.instance_label}"
        )


def run_chaos_cell(
    instance: SetCoverInstance,
    algorithm_name: str,
    fault_kind: str,
    rate: float,
    order_name: str,
    policy: str,
    seed: int,
    collector: Optional[TraceCollector] = None,
) -> ChaosCell:
    """Execute and classify a single chaos cell (fully seed-determined).

    With ``collector`` the cell's run is traced under a label derived
    from the cell coordinates (so the sweep's merged JSONL is stable
    however the cells are scheduled).
    """
    cell = ChaosCell(
        algorithm=algorithm_name,
        fault_kind=fault_kind,
        rate=rate,
        order=order_name,
        policy=policy,
        seed=seed,
        outcome="violation",
    )
    try:
        order = make_order(order_name, seed=seed)
        faulty = inject(
            stream_of(instance, order),
            [FaultSpec(kind=fault_kind, rate=rate, seed=seed)],
        )
        tracer = None
        if collector is not None:
            label = f"{algorithm_name}:{fault_kind}@{rate}:{order_name}"
            tracer = collector.tracer_for(label)
        algorithm = make_algorithm(
            algorithm_name, instance, seed=seed, tracer=tracer
        )
        resilient = ResilientAlgorithm(algorithm, policy=policy)
        outcome: ResilientResult = resilient.run(faulty)
    except ReproError as error:
        cell.outcome = "typed-error"
        cell.detail = f"{type(error).__name__}: {error}"
        return cell
    except Exception as error:  # noqa: BLE001 — the invariant under test
        cell.outcome = "violation"
        cell.detail = f"bare {type(error).__name__}: {error}"
        return cell

    if outcome.degradation is not None:
        cell.outcome = "degraded"
        degradation = outcome.degradation
        cell.detail = degradation.relaxed_invariant
        cell.coverage_fraction = degradation.coverage_fraction
        if outcome.result is not None:
            cell.cover_size = outcome.result.cover_size
        return cell

    result = outcome.result
    if result is None:
        cell.detail = "no result and no degradation record"
        return cell
    # A clean claim must be a genuinely valid cover: total in-range
    # certificate, witnesses in the cover, and no phantom set ids.
    if not all(0 <= s < instance.m for s in result.cover):
        cell.detail = "cover references unknown set ids (silent wrong answer)"
        return cell
    if not result.is_valid(instance):
        cell.detail = "result fails verification (silent wrong answer)"
        return cell
    cell.outcome = "valid-cover"
    cell.cover_size = result.cover_size
    cell.coverage_fraction = 1.0
    return cell


def run_chaos(
    instance: Optional[SetCoverInstance] = None,
    algorithms: Optional[Sequence[str]] = None,
    fault_kinds: Sequence[str] = FAULT_KINDS,
    rates: Sequence[float] = DEFAULT_RATES,
    orders: Sequence[str] = DEFAULT_ORDERS,
    policy: str = "best_effort",
    seed: SeedLike = 0,
    quick: bool = False,
    collector: Optional[TraceCollector] = None,
) -> ChaosReport:
    """Sweep the full fault grid and classify every cell.

    With ``quick=True`` the grid shrinks to two algorithms and one
    moderate rate — the CI smoke tier.  Cell seeds are derived from the
    master seed up front, so the report is reproducible and each cell
    can be re-run standalone via :func:`run_chaos_cell`.
    """
    rng = make_rng(seed)
    if instance is None:
        instance = planted_partition_instance(
            n=36, m=24, opt_size=4, seed=rng.getrandbits(63)
        ).instance
    if algorithms is None:
        algorithms = ["kk", "first-fit"] if quick else registered_algorithms()
    if quick:
        rates = (0.1,)
    report = ChaosReport(
        policy=policy,
        seed=seed if isinstance(seed, int) else -1,
        instance_label=repr(instance),
    )
    for algorithm_name in algorithms:
        for fault_kind in fault_kinds:
            for rate in rates:
                for order_name in orders:
                    cell_seed = rng.getrandbits(63)
                    report.rows.append(
                        run_chaos_cell(
                            instance,
                            algorithm_name,
                            fault_kind,
                            rate,
                            order_name,
                            policy,
                            cell_seed,
                            collector=collector,
                        )
                    )
    return report


# -- shard-fault chaos: crash/straggle/duplicate × coordinator × backend ---

#: Coordinators the shard grid exercises.
DEFAULT_SHARD_COORDINATORS = ("union", "greedy", "chain")

#: Backends the shard grid exercises (process is exercised by the
#: dedicated backend tests; the grid favours cheap iteration).
DEFAULT_SHARD_BACKENDS = ("serial", "thread")

#: Execution modes: the synchronous resilient path and the asynchronous
#: delivery simulator.
SHARD_CHAOS_MODES = ("sync", "async")


@dataclass
class ShardChaosCell:
    """Outcome of one (fault, coordinator, backend, mode) shard cell."""

    coordinator: str
    backend: str
    fault_kind: str
    mode: str
    seed: int
    outcome: str
    detail: str = ""
    cover_size: int = 0
    coverage_fraction: float = 0.0
    shards_lost: int = 0


@dataclass
class ShardChaosReport(_SweepReport):
    """All cells of one shard-fault sweep, plus invariant checking."""

    seed: int
    workers: int
    min_shards: int
    instance_label: str
    rows: List[ShardChaosCell] = field(default_factory=list)

    invariant = "shard chaos"
    headers = (
        "fault",
        "coordinator",
        "backend",
        "mode",
        "outcome",
        "cover",
        "coverage",
        "lost",
        "detail",
    )

    def _label(self, c: ShardChaosCell) -> str:
        return f"{c.fault_kind} × {c.coordinator} × {c.backend} × {c.mode}"

    def _row(self, c: ShardChaosCell) -> list:
        return [
            c.fault_kind,
            c.coordinator,
            c.backend,
            c.mode,
            c.outcome,
            c.cover_size,
            c.coverage_fraction,
            c.shards_lost,
            c.detail[:48],
        ]

    def _title(self) -> str:
        return (
            f"shard chaos sweep — seed={self.seed}, W={self.workers}, "
            f"min_shards={self.min_shards}, instance={self.instance_label}"
        )


def _shard_fault_setup(fault_kind: str, workers: int, seed: int):
    """The seeded fault plan and deadline one grid kind stands for."""
    if fault_kind == "crash":
        # A mix of permanent (abandoned) and transient (healed) crashes.
        return (
            ShardFaultPlan.seeded(
                workers, seed=seed, crash_rate=0.35, flaky_rate=0.3
            ),
            None,
        )
    if fault_kind == "straggle":
        # Stragglers overshoot the deadline on every attempt and time
        # out; punctual shards finish well inside it.
        return (
            ShardFaultPlan.seeded(
                workers, seed=seed, straggle_rate=0.5, straggle_steps=8
            ),
            4,
        )
    if fault_kind == "duplicate":
        # Pure transport noise: every output arrives, some twice.
        return (
            ShardFaultPlan.seeded(workers, seed=seed, duplicate_rate=0.7),
            None,
        )
    known = ", ".join(SHARD_FAULT_KINDS)
    raise ValueError(f"unknown shard fault kind {fault_kind!r}; known: {known}")


def run_shard_chaos_cell(
    instance: SetCoverInstance,
    coordinator: str,
    backend: str,
    fault_kind: str,
    mode: str,
    seed: int,
    workers: int = 4,
    min_shards: int = 2,
) -> ShardChaosCell:
    """Execute and classify one shard-fault cell (fully seed-determined).

    The invariant is the distributed refinement of the global one: a
    cell must end in a **verified valid cover**, a **typed error**, or a
    **degraded-but-consistent** partial cover — one whose reported
    ``uncovered`` set matches the ground truth exactly and which carries
    a :class:`~repro.faults.resilient.DegradationRecord` per lost shard.
    A partial cover that misreports its own coverage is classified as a
    violation, never waved through.
    """
    cell = ShardChaosCell(
        coordinator=coordinator,
        backend=backend,
        fault_kind=fault_kind,
        mode=mode,
        seed=seed,
        outcome="violation",
    )
    try:
        plan, deadline = _shard_fault_setup(fault_kind, workers, seed)
        kwargs = dict(
            workers=workers,
            coordinator=coordinator,
            backend=backend,
            # One pool slot per shard: at max_workers=1 every backend
            # runs the shards serially, so the thread axis would only
            # repeat the serial one.
            max_workers=workers,
            seed=seed,
            shard_faults=plan,
            min_shards=min_shards,
            deadline_steps=deadline,
        )
        if mode == "async":
            result: DistributedResult = run_distributed_async(
                instance, schedule_seed=seed, **kwargs
            )
        else:
            result = run_distributed(instance, **kwargs)
    except ReproError as error:
        cell.outcome = "typed-error"
        cell.detail = f"{type(error).__name__}: {error}"
        return cell
    except Exception as error:  # noqa: BLE001 — the invariant under test
        cell.outcome = "violation"
        cell.detail = f"bare {type(error).__name__}: {error}"
        return cell

    cell.cover_size = result.cover_size
    cell.shards_lost = sum(1 for o in result.outcomes if o.abandoned)
    if result.degradations:
        if cell.shards_lost != len(result.degradations):
            cell.detail = (
                f"{cell.shards_lost} shard(s) lost but "
                f"{len(result.degradations)} degradation record(s)"
            )
            return cell
        if not result.is_valid(instance, allow_partial=True):
            cell.detail = "degraded result fails partial verification"
            return cell
        actual_uncovered = instance.uncovered_by(result.cover)
        if set(result.uncovered) != actual_uncovered:
            cell.detail = (
                "degraded result misreports coverage: claims "
                f"{len(result.uncovered)} uncovered, truth "
                f"{len(actual_uncovered)}"
            )
            return cell
        cell.outcome = "degraded"
        n = instance.n
        cell.coverage_fraction = (n - len(result.uncovered)) / n if n else 1.0
        cell.detail = result.degradations[0].error_type or "quorum-degraded"
        return cell

    if cell.shards_lost:
        cell.detail = (
            f"{cell.shards_lost} shard(s) lost without degradation records"
        )
        return cell
    if not result.is_valid(instance):
        cell.detail = "result fails verification (silent wrong answer)"
        return cell
    cell.outcome = "valid-cover"
    cell.coverage_fraction = 1.0
    return cell


def run_shard_chaos(
    instance: Optional[SetCoverInstance] = None,
    coordinators: Sequence[str] = DEFAULT_SHARD_COORDINATORS,
    backends: Sequence[str] = DEFAULT_SHARD_BACKENDS,
    fault_kinds: Sequence[str] = SHARD_FAULT_KINDS,
    modes: Sequence[str] = SHARD_CHAOS_MODES,
    seed: SeedLike = 0,
    quick: bool = False,
    workers: int = 4,
    min_shards: int = 2,
) -> ShardChaosReport:
    """Sweep the shard-fault grid and classify every cell.

    The distributed twin of :func:`run_chaos`: crash, straggler, and
    duplicate-delivery faults crossed with every coordinator, backend,
    and both execution modes (synchronous resilient path and the async
    delivery simulator).  With ``quick=True`` the grid shrinks to two
    coordinators on the serial backend — the CI smoke tier.  Cell seeds
    derive from the master seed up front, so any cell reproduces
    standalone via :func:`run_shard_chaos_cell`.
    """
    rng = make_rng(seed)
    if instance is None:
        instance = planted_partition_instance(
            n=36, m=24, opt_size=4, seed=rng.getrandbits(63)
        ).instance
    if quick:
        coordinators = ("union", "chain")
        backends = ("serial",)
    report = ShardChaosReport(
        seed=seed if isinstance(seed, int) else -1,
        workers=workers,
        min_shards=min_shards,
        instance_label=repr(instance),
    )
    for fault_kind in fault_kinds:
        for coordinator in coordinators:
            for backend in backends:
                for mode in modes:
                    cell_seed = rng.getrandbits(63)
                    report.rows.append(
                        run_shard_chaos_cell(
                            instance,
                            coordinator,
                            backend,
                            fault_kind,
                            mode,
                            cell_seed,
                            workers=workers,
                            min_shards=min_shards,
                        )
                    )
    return report
