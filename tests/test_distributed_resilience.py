"""Shard-level resilience: retries, deadlines, quorum, degradation.

The contracts layered onto the distributed executor by this package's
fault-tolerance work:

1. **Recovery** — :func:`run_tasks_with_recovery` with a clean plan is
   bit-identical to a plain dispatch; a transient crash retries with
   the :func:`derive_retry_seed` discipline (attempt 2's seed is
   remixed, attempt 1's is not); a permanent crash or a blown deadline
   abandons the shard with a typed-error record, never an exception
   from inside the pool.
2. **Quorum** — ``run_distributed`` with survivors below ``min_shards``
   raises the abandoned shard's typed error carrying the quorum
   context; with quorum met it returns a *valid partial* cover whose
   every lost shard is an explicit
   :class:`~repro.faults.resilient.DegradationRecord`.
3. **Chaos invariant** — the shard-fault chaos grid never sees a bare
   crash or a silently-wrong answer in any cell.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.chaos import run_shard_chaos, run_shard_chaos_cell
from repro.distributed.backends import derive_retry_seed
from repro.distributed import (
    SerialBackend,
    backends,
    build_shard_tasks,
    run_distributed,
    run_tasks_with_recovery,
)
from repro.errors import (
    InvalidParameterError,
    ShardCrashError,
    ShardTimeoutError,
)
from repro.faults.shards import (
    PERMANENT,
    SHARD_FAULT_KINDS,
    ShardFaultPlan,
    ShardFaultSpec,
)
from repro.generators.planted import planted_partition_instance


@pytest.fixture(scope="module")
def instance():
    return planted_partition_instance(40, 80, opt_size=4, seed=13).instance


@pytest.fixture
def tasks(instance):
    return build_shard_tasks(instance, workers=4, seed=31)


class TestRunTasksWithRecovery:
    def test_clean_plan_matches_plain_dispatch(self, tasks):
        backend = SerialBackend()
        plain = backend.run_tasks(tasks, max_workers=1)
        envelopes, outcomes = run_tasks_with_recovery(
            backend, tasks, max_workers=1
        )
        assert [e.output for e in envelopes] == [e.output for e in plain]
        assert all(o.state == "ok" for o in outcomes)
        assert all(o.attempts == 1 for o in outcomes)
        assert not any(o.retried or o.abandoned for o in outcomes)

    def test_single_transient_crash_retries_with_same_seed(self, tasks):
        # One crash then success: attempt 2 runs, and derive_retry_seed
        # remixes from the second retry on — attempt 2's seed differs
        # from the pre-drawn one, which is the documented discipline.
        plan = ShardFaultPlan(specs={1: ShardFaultSpec(crash_attempts=1)})

        class Recording(SerialBackend):
            executed_seeds = {}

            def run_tasks(self, run, max_workers):
                Recording.executed_seeds = {t.index: t.seed for t in run}
                return super().run_tasks(run, max_workers)

        envelopes, outcomes = run_tasks_with_recovery(
            Recording(), tasks, 1, shard_faults=plan
        )
        assert all(e is not None for e in envelopes)
        retried = outcomes[1]
        assert retried.state == "ok"
        assert retried.attempts == 2
        assert retried.retried and not retried.abandoned
        assert Recording.executed_seeds[1] == derive_retry_seed(
            tasks[1].seed, 2
        )
        assert Recording.executed_seeds[1] != tasks[1].seed
        # The untouched shards keep their pre-drawn seeds exactly.
        assert Recording.executed_seeds[0] == tasks[0].seed

    def test_permanent_crash_abandons_with_typed_record(self, tasks):
        plan = ShardFaultPlan(
            specs={2: ShardFaultSpec(crash_attempts=PERMANENT)}
        )
        envelopes, outcomes = run_tasks_with_recovery(
            SerialBackend(), tasks, 1, shard_faults=plan, max_attempts=3
        )
        assert envelopes[2] is None
        lost = outcomes[2]
        assert lost.abandoned
        assert lost.attempts == 3
        assert lost.error_type == "ShardCrashError"
        error = lost.to_error()
        assert isinstance(error, ShardCrashError)
        assert "shard[2]" in str(error)

    def test_straggler_past_deadline_times_out(self, tasks):
        plan = ShardFaultPlan(
            specs={0: ShardFaultSpec(straggle_steps=10)}
        )
        envelopes, outcomes = run_tasks_with_recovery(
            SerialBackend(), tasks, 1, shard_faults=plan, deadline_steps=5
        )
        assert envelopes[0] is None
        lost = outcomes[0]
        assert lost.state == "timed-out"
        assert lost.completion_step > 5
        error = lost.to_error(deadline_steps=5)
        assert isinstance(error, ShardTimeoutError)

    def test_straggler_within_deadline_survives(self, tasks):
        plan = ShardFaultPlan(specs={0: ShardFaultSpec(straggle_steps=3)})
        envelopes, outcomes = run_tasks_with_recovery(
            SerialBackend(), tasks, 1, shard_faults=plan, deadline_steps=10
        )
        assert envelopes[0] is not None
        assert outcomes[0].completion_step == 4  # 1 attempt step + 3 straggle

    def test_backoff_accumulates_on_the_logical_clock(self, tasks):
        plan = ShardFaultPlan(specs={0: ShardFaultSpec(crash_attempts=2)})
        _, outcomes = run_tasks_with_recovery(
            SerialBackend(), tasks, 1, shard_faults=plan, backoff_steps=4
        )
        # Three attempts of 1 step each, two backoffs of 4 between them.
        assert outcomes[0].attempts == 3
        assert outcomes[0].completion_step == 3 * 1 + 2 * 4

    # max_attempts and backoff_steps are checked by the executor entry
    # points before routing (tests/test_distributed_backends.py,
    # TestEntryPointValidation).
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempt_steps": -1},
            {"deadline_steps": -1},
            {"attempt_steps": 0},
            {"deadline_steps": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, tasks, kwargs):
        with pytest.raises(InvalidParameterError):
            run_tasks_with_recovery(SerialBackend(), tasks, 1, **kwargs)


class TestQuorumPolicy:
    def test_quorum_met_yields_explicit_degradation(self, instance):
        plan = ShardFaultPlan(
            specs={3: ShardFaultSpec(crash_attempts=PERMANENT)}
        )
        result = run_distributed(
            instance,
            workers=4,
            coordinator="union",
            seed=7,
            backend="serial",
            shard_faults=plan,
            min_shards=2,
        )
        assert result.diagnostics["shards_lost"] == 1.0
        assert len(result.degradations) == 1
        record = result.degradations[0]
        assert record.policy == "quorum-degraded"
        assert record.error_type == "ShardCrashError"
        assert record.details["survivors"] == 3.0
        result.verify(instance, allow_partial=True)
        assert set(result.uncovered) == instance.uncovered_by(result.cover)

    def test_quorum_not_met_raises_with_context(self, instance):
        plan = ShardFaultPlan(
            specs={
                i: ShardFaultSpec(crash_attempts=PERMANENT) for i in range(3)
            }
        )
        with pytest.raises(ShardCrashError, match="quorum not met: 1/4"):
            run_distributed(
                instance,
                workers=4,
                coordinator="union",
                seed=7,
                backend="serial",
                shard_faults=plan,
                min_shards=2,
            )

    def test_default_quorum_is_every_shard(self, instance):
        # Without min_shards, losing any shard is fatal — resilience is
        # opt-in, never a silent relaxation of the cover contract.
        plan = ShardFaultPlan(
            specs={0: ShardFaultSpec(crash_attempts=PERMANENT)}
        )
        with pytest.raises(ShardCrashError, match="need 4"):
            run_distributed(
                instance,
                workers=4,
                coordinator="union",
                seed=7,
                backend="serial",
                shard_faults=plan,
            )

    @pytest.mark.parametrize("coordinator", ("union", "greedy", "chain"))
    def test_partial_cover_is_verified_per_coordinator(
        self, instance, coordinator
    ):
        plan = ShardFaultPlan(
            specs={1: ShardFaultSpec(crash_attempts=PERMANENT)}
        )
        result = run_distributed(
            instance,
            workers=4,
            coordinator=coordinator,
            seed=19,
            backend="serial",
            shard_faults=plan,
            min_shards=1,
        )
        result.verify(instance, allow_partial=True)
        assert result.degradations
        assert 0.0 < result.degradations[0].coverage_fraction <= 1.0

    def test_no_fault_resilient_run_matches_plain(self, instance):
        # Turning the resilience machinery on without faults must not
        # change a byte: attempt-1 seeds are the pre-drawn seeds.
        plain = run_distributed(
            instance, workers=4, coordinator="chain", seed=3, backend="serial"
        )
        resilient = run_distributed(
            instance,
            workers=4,
            coordinator="chain",
            seed=3,
            backend="serial",
            shard_faults=ShardFaultPlan(),
            min_shards=4,
        )
        assert resilient.cover == plain.cover
        assert resilient.certificate == plain.certificate
        assert resilient.comm == plain.comm

    def test_min_shards_out_of_range(self, instance):
        with pytest.raises(InvalidParameterError, match="min_shards"):
            run_distributed(
                instance, workers=4, min_shards=0, backend="serial"
            )

    def test_unknown_coordinator_fails_before_shard_work(self, instance):
        with pytest.raises(InvalidParameterError) as excinfo:
            run_distributed(instance, workers=4, coordinator="nope")
        assert "known coordinators" in str(excinfo.value)


class TestShardChaosGrid:
    def test_quick_grid_holds_the_invariant(self, instance):
        report = run_shard_chaos(instance, seed=5, quick=True)
        report.assert_invariant()
        assert not report.violations()
        # Every fault kind appears in the grid and the crash cells do
        # degrade somewhere (the rates are chosen to make that certain
        # enough at this seed; a change here means the grid went inert).
        kinds = {row.fault_kind for row in report.rows}
        assert kinds == set(SHARD_FAULT_KINDS)
        outcomes = report.outcome_counts()
        assert sum(outcomes.values()) == len(report.rows)

    @pytest.mark.parametrize("fault_kind", SHARD_FAULT_KINDS)
    def test_thread_cell_runs_on_a_pool(self, instance, monkeypatch, fault_kind):
        # At max_workers=1 the thread backend runs shards serially, which
        # would make every thread cell a copy of its serial twin.
        pool_sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pool_sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(backends, "ThreadPoolExecutor", RecordingPool)
        cell = run_shard_chaos_cell(
            instance, "chain", "thread", fault_kind, "sync", seed=5
        )
        assert pool_sizes == [4]
        assert cell.outcome != "violation", cell.detail

    def test_render_mentions_every_cell(self, instance):
        report = run_shard_chaos(instance, seed=5, quick=True)
        text = report.render()
        assert "crash" in text and "straggle" in text and "duplicate" in text
