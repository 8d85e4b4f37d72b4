"""Pluggable execution backends: where shard work actually runs.

PR 4's executor hard-wired shard execution to a thread pool, which the
GIL serializes for CPU-bound shard work (``BENCH_perf.json`` showed the
distributed section pinned at the single-thread rate from W=1 through
W=8).  This module turns "how shards execute" into a small pluggable
layer:

``serial``
    Shards run one after another in the calling thread.  The reference
    backend every other backend must match bit-for-bit.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap to spin
    up and shares memory with the parent, but CPU-bound shard work
    serializes behind the GIL — right for I/O-ish or small runs.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  Each shard
    travels as a pickled, self-contained :class:`ShardTask` and is
    resolved against :data:`~repro.algorithms.ALGORITHM_REGISTRY`
    inside the child process; traces come back as serialized span
    cells the parent adopts.  This is the backend that actually breaks
    the GIL ceiling on multi-core hardware.

The determinism contract extends across backends: for a fixed
``(instance, order, seed, workers, …)`` every backend produces a
dataclass-equal :class:`~repro.distributed.executor.DistributedResult`
and byte-identical merged trace JSONL, for every ``max_workers``.
The machinery is the same as PR 4's: seeds are pre-drawn serially
before any task is built, results are slotted by shard index, and
trace cells merge sorted by label.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import InvalidParameterError
from repro.faults.injectors import FaultSpec, apply_faults
from repro.faults.shards import ShardFaultPlan
from repro.obs.events import SHARD_ABANDONED, SHARD_RETRY
from repro.obs.tracer import NULL_TRACER, RecordingTracer
from repro.streaming.stream import FrozenEdges
from repro.types import SetId

from repro.distributed.worker import (
    InstanceShape,
    ShardAccumulator,
    ShardOutput,
    Worker,
)


@dataclass(frozen=True)
class ShardTask:
    """One shard's work, self-contained and pickle-clean.

    Everything a child process needs travels in the task: the instance
    *shape* (not the instance — workers only validate against ``(n, m)``
    and label their local instance), the shard's ordered edge share (a
    column-backed :class:`~repro.streaming.stream.FrozenEdges` slice of
    the routing plan, which pickles as its two columns), the
    router's set enumeration, the pre-drawn algorithm seed, the
    per-shard reseeded fault plan, and the algorithm *name*, resolved
    against the registry on the executing side.  ``traced`` asks the
    executing side to record a span cell and return it serialized.
    """

    index: int
    algorithm: str
    seed: int
    shape: InstanceShape
    edges: FrozenEdges
    set_order: Tuple[SetId, ...]
    alpha: Optional[float] = None
    fault_specs: Tuple[FaultSpec, ...] = ()
    order_name: str = "canonical"
    traced: bool = False

    @property
    def trace_label(self) -> str:
        """The collector cell label this shard's trace merges under."""
        return f"shard[{self.index:03d}]"


@dataclass
class ShardEnvelope:
    """What comes back from executing one :class:`ShardTask`.

    ``trace_jsonl`` is the shard's span cell as canonical JSONL (only
    when the task asked for tracing) — the process-boundary-safe form
    the parent hands to :meth:`~repro.obs.tracer.TraceCollector.adopt_jsonl`.
    Every backend returns this same envelope, so the parent-side merge
    code cannot tell backends apart.
    """

    index: int
    output: ShardOutput
    trace_jsonl: Optional[str] = None


def execute_shard_task(task: ShardTask) -> ShardEnvelope:
    """Run one shard task to completion; the unit every backend executes.

    Module-level (not a method) so :class:`ProcessBackend` can ship it
    to child processes.  Feeds the shard's edge columns into one
    :class:`~repro.distributed.worker.ShardAccumulator`, runs the named
    registry algorithm over the shard, and — when tracing — serializes
    the finished span cell for the parent to adopt.

    A fault plan rewrites the columns first
    (:func:`~repro.faults.injectors.apply_faults`); clean and faulted
    shards alike reach the accumulator as one column pair.
    """
    tracer = RecordingTracer() if task.traced else NULL_TRACER
    worker = Worker(
        index=task.index,
        algorithm=task.algorithm,
        seed=task.seed,
        alpha=task.alpha,
        tracer=tracer,
    )
    shape = task.shape
    accumulator = ShardAccumulator(
        task.index, shape.n, shape.m, base_set_order=task.set_order
    )
    edges, injection = task.edges, None
    if task.fault_specs:
        edges, _, injection = apply_faults(
            edges, shape.n, shape.m, task.fault_specs
        )
    accumulator.feed_columns(*edges.columns())
    output = worker.run_accumulated(
        accumulator, instance_name=shape.name, injection=injection
    )
    trace_jsonl = tracer.to_jsonl() if task.traced else None
    return ShardEnvelope(
        index=task.index, output=output, trace_jsonl=trace_jsonl
    )


class Backend:
    """Interface: execute shard tasks, slotting results by shard index."""

    name = "abstract"

    def run_tasks(
        self, tasks: Sequence[ShardTask], max_workers: int
    ) -> List[ShardEnvelope]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _run_serially(tasks: Sequence[ShardTask]) -> List[ShardEnvelope]:
    return [execute_shard_task(task) for task in tasks]


class SerialBackend(Backend):
    """Shards run in the calling thread, in index order — the reference."""

    name = "serial"

    def run_tasks(
        self, tasks: Sequence[ShardTask], max_workers: int
    ) -> List[ShardEnvelope]:
        return _run_serially(tasks)


class ThreadBackend(Backend):
    """Shards run on a thread pool (the pre-backend-layer behaviour).

    Results are slotted by shard index, never by completion order, so
    the pool size is operational only.
    """

    name = "thread"

    def run_tasks(
        self, tasks: Sequence[ShardTask], max_workers: int
    ) -> List[ShardEnvelope]:
        if max_workers == 1 or len(tasks) <= 1:
            return _run_serially(tasks)
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(execute_shard_task, t) for t in tasks]
            return [future.result() for future in futures]


class ProcessBackend(Backend):
    """Shards run in child processes — CPU-bound shard work in parallel.

    Tasks cross the boundary pickled; algorithm names resolve against
    the registry inside the child; traces come back as serialized span
    cells.  With ``max_workers == 1`` the pool would buy nothing, so
    tasks run inline (the result is identical either way — that *is*
    the contract).  A task's edges pickle as their two ``int64``
    columns (:class:`~repro.streaming.stream.FrozenEdges`), so no
    ``Edge`` record crosses the boundary.
    """

    name = "process"

    def run_tasks(
        self, tasks: Sequence[ShardTask], max_workers: int
    ) -> List[ShardEnvelope]:
        if max_workers == 1 or len(tasks) <= 1:
            return _run_serially(tasks)
        pool_size = min(max_workers, len(tasks))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = [pool.submit(execute_shard_task, t) for t in tasks]
            return [future.result() for future in futures]


#: Public name -> backend class.
BACKEND_REGISTRY: Dict[str, Type[Backend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def registered_backends() -> List[str]:
    """Registry names in deterministic (sorted) order."""
    return sorted(BACKEND_REGISTRY)


def make_backend(name: str) -> Backend:
    """Construct a registered execution backend by name."""
    try:
        cls = BACKEND_REGISTRY[name]
    except KeyError:
        known = ", ".join(registered_backends())
        raise InvalidParameterError(
            "backend", name, f"known backends: {known}"
        ) from None
    return cls()


# -- fault-tolerant execution ----------------------------------------------

#: States a :class:`ShardOutcome` can end in.
SHARD_OK = "ok"
SHARD_CRASHED = "crashed"
SHARD_TIMED_OUT = "timed-out"


@dataclass(frozen=True)
class ShardOutcome:
    """The attempt history of one shard under fault-tolerant execution.

    ``completion_step`` is the logical step at which the shard's last
    attempt finished (successfully or not) on the simulated clock —
    attempt ``k`` starts where attempt ``k-1`` ended plus the backoff,
    and takes ``attempt_steps + straggle_steps`` steps.  ``error_type``
    and ``error_message`` are non-empty only for abandoned shards and
    name the typed error the quorum policy raises when it cannot
    proceed without the shard.
    """

    index: int
    state: str
    attempts: int
    completion_step: int
    error_type: str = ""
    error_message: str = ""

    @property
    def retried(self) -> bool:
        """True iff the shard needed more than one attempt."""
        return self.attempts > 1

    @property
    def abandoned(self) -> bool:
        """True iff every attempt failed and the output was lost."""
        return self.state != SHARD_OK

    def to_error(self, deadline_steps: Optional[int] = None, context: str = ""):
        """The typed error this abandoned outcome stands for."""
        from repro.errors import ShardCrashError, ShardTimeoutError

        if self.state == SHARD_CRASHED:
            return ShardCrashError(self.index, self.attempts, context=context)
        if self.state == SHARD_TIMED_OUT:
            return ShardTimeoutError(
                self.index,
                self.attempts,
                self.completion_step,
                deadline_steps if deadline_steps is not None else -1,
                context=context,
            )
        raise ValueError(f"shard[{self.index}] was not abandoned")


#: Odd 63-bit multiplier (splitmix64's constant) for retry-seed derivation.
_SEED_MIX = 0x9E3779B97F4A7C15


def derive_retry_seed(seed: int, attempt: int) -> int:
    """Seed for retry ``attempt`` of a shard whose task seed is ``seed``.

    Attempts 0 and 1 return ``seed`` unchanged — a transient failure
    retried once reproduces the uninterrupted run exactly.  From the
    second retry on, the seed is remixed deterministically: the original
    seed has now failed twice, so it is presumed deterministically bad.
    The remix is guaranteed to differ from ``seed`` — a fixed point
    would silently replay the failing seed forever.
    """
    if attempt <= 1:
        return seed
    derived = ((seed ^ (attempt * _SEED_MIX)) * _SEED_MIX + attempt) % (2**63)
    while derived == seed:
        derived = (derived * _SEED_MIX + 1) % (2**63)
    return derived


def run_tasks_with_recovery(
    backend: Backend,
    tasks: Sequence[ShardTask],
    max_workers: int,
    shard_faults: Optional[ShardFaultPlan] = None,
    max_attempts: int = 3,
    backoff_steps: int = 1,
    deadline_steps: Optional[int] = None,
    attempt_steps: int = 1,
    tracer=None,
) -> Tuple[List[Optional[ShardEnvelope]], List[ShardOutcome]]:
    """Execute shard tasks under per-shard retry-with-backoff.

    The fault model is *simulated before execution*: each shard's
    attempt history — crashes from its
    :class:`~repro.faults.shards.ShardFaultSpec`, straggler delays, and
    deadline misses — plays out on a logical clock, and only the tasks
    whose surviving attempt succeeds are executed, in **one**
    ``backend.run_tasks`` call so real parallelism is preserved.  A
    retried shard re-executes with :func:`derive_retry_seed` applied to
    its pre-drawn seed (attempt 1 keeps the seed unchanged, so a
    fault-free plan reproduces the plain path bit-for-bit); an abandoned
    shard's slot holds ``None``.

    Returns ``(envelopes, outcomes)``: ``envelopes[i]`` corresponds to
    ``tasks[i]`` (``None`` when abandoned) and ``outcomes`` carries one
    :class:`ShardOutcome` per task, in task order.  ``max_attempts`` and
    ``backoff_steps`` are validated by the executor entry points, before
    any routing.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    if attempt_steps < 1:
        raise InvalidParameterError(
            "attempt_steps", attempt_steps, "must be >= 1"
        )
    if deadline_steps is not None and deadline_steps < 1:
        raise InvalidParameterError(
            "deadline_steps", deadline_steps, "must be >= 1 (or None)"
        )
    plan = shard_faults if shard_faults is not None else ShardFaultPlan()

    to_run: List[ShardTask] = []
    run_slots: List[int] = []
    outcomes: List[ShardOutcome] = []
    for slot, task in enumerate(tasks):
        spec = plan.spec_for(task.index)
        start = 0
        state = SHARD_OK
        finish = 0
        attempt = 0
        for attempt in range(1, max_attempts + 1):
            finish = start + attempt_steps + spec.straggle_steps
            if attempt <= spec.crash_attempts:
                state = SHARD_CRASHED
            elif deadline_steps is not None and finish > deadline_steps:
                state = SHARD_TIMED_OUT
            else:
                state = SHARD_OK
                break
            if attempt < max_attempts and tracer.enabled:
                tracer.event(
                    SHARD_RETRY,
                    shard=task.index,
                    attempt=attempt,
                    reason=state,
                    step=finish,
                )
            start = finish + backoff_steps
        if state == SHARD_OK:
            seed = derive_retry_seed(task.seed, attempt)
            to_run.append(
                task if seed == task.seed else replace(task, seed=seed)
            )
            run_slots.append(slot)
            outcomes.append(
                ShardOutcome(
                    index=task.index,
                    state=SHARD_OK,
                    attempts=attempt,
                    completion_step=finish,
                )
            )
        else:
            outcome = ShardOutcome(
                index=task.index,
                state=state,
                attempts=max_attempts,
                completion_step=finish,
            )
            error = outcome.to_error(deadline_steps=deadline_steps)
            outcomes.append(
                replace(
                    outcome,
                    error_type=type(error).__name__,
                    error_message=str(error),
                )
            )
            if tracer.enabled:
                tracer.event(
                    SHARD_ABANDONED,
                    shard=task.index,
                    attempts=max_attempts,
                    reason=state,
                    step=finish,
                )

    envelopes: List[Optional[ShardEnvelope]] = [None] * len(tasks)
    if to_run:
        for slot, envelope in zip(run_slots, backend.run_tasks(to_run, max_workers)):
            envelopes[slot] = envelope
    return envelopes, outcomes
