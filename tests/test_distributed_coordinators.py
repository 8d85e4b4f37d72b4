"""Tests for the merge coordinators and the end-to-end executor.

The load-bearing test is chain-vs-protocol parity: a by-set distributed
run with the chain coordinator must reproduce
:func:`run_simple_protocol`'s cover size and ``max_message_words``
*exactly* — including on the Lemma-1 lower-bound family instances the
acceptance criteria name.
"""

from __future__ import annotations

import math

import pytest

from repro.distributed import (
    CommBudget,
    build_shard_tasks,
    make_coordinator,
    registered_coordinators,
    run_distributed,
)
from repro.distributed.router import STRATEGIES
from repro.errors import (
    CommBudgetError,
    ConfigurationError,
    InvalidCoverError,
    InvalidParameterError,
    ProtocolError,
)
from repro.generators.planted import planted_partition_instance
from repro.lowerbound.family import build_family
from repro.lowerbound.simple_protocol import (
    run_simple_protocol,
    split_instance_among_parties,
)
from repro.streaming.instance import SetCoverInstance


@pytest.fixture
def instance():
    return planted_partition_instance(48, 36, opt_size=6, seed=2).instance


def lb_family_instance(n=64, m=10, t=4, seed=0):
    """A set-cover instance over a Lemma-1 family plus one patch set.

    The complement of T_0 is appended so the instance is feasible —
    the same shape the lower-bound experiments use.
    """
    family = build_family(n, m, t, seed=seed)
    sets = [family.full_set(i) for i in range(family.m)]
    sets.append(family.complement(0))
    return SetCoverInstance(n, sets, name=f"lb-family(n={n},m={m},t={t})")


class TestRegistry:
    def test_four_coordinators(self):
        assert registered_coordinators() == ["chain", "greedy", "tree", "union"]

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_coordinator("quorum")

    def test_threshold_only_for_protocol_merges(self):
        from repro.distributed import CoordinatorOptions

        options = CoordinatorOptions(threshold=3.0)
        assert make_coordinator("chain", options).threshold == 3.0
        assert make_coordinator("tree", options).threshold == 3.0
        for name in ("union", "greedy"):
            with pytest.raises(ConfigurationError, match="--threshold"):
                make_coordinator(name, options)

    def test_adaptive_threshold_mutually_exclusive(self):
        from repro.distributed import CoordinatorOptions

        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            make_coordinator(
                "chain",
                CoordinatorOptions(threshold=3.0, adaptive_threshold=True),
            )

    def test_adaptive_threshold_rejected_by_flag_name(self):
        from repro.distributed import CoordinatorOptions

        with pytest.raises(ConfigurationError, match="--adaptive-threshold"):
            make_coordinator(
                "union", CoordinatorOptions(adaptive_threshold=True)
            )


class TestAllCoordinatorsProduceValidCovers:
    @pytest.mark.parametrize("coordinator", ["union", "greedy", "chain", "tree"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_valid_cover(self, instance, coordinator, strategy):
        result = run_distributed(
            instance,
            workers=3,
            algorithm="kk",
            strategy=strategy,
            coordinator=coordinator,
            seed=4,
        )
        result.verify(instance)
        assert result.is_valid(instance)
        assert result.cover_size >= 1

    @pytest.mark.parametrize("coordinator", ["union", "greedy", "chain", "tree"])
    def test_single_worker(self, instance, coordinator):
        result = run_distributed(
            instance, workers=1, coordinator=coordinator, seed=0
        )
        result.verify(instance)

    def test_more_workers_than_sets(self, instance):
        result = run_distributed(
            instance, workers=instance.m + 4, coordinator="chain", seed=1
        )
        result.verify(instance)

    def test_comm_report_populated(self, instance):
        result = run_distributed(
            instance, workers=3, coordinator="union", seed=4
        )
        assert result.total_comm_words > 0
        assert result.max_message_words > 0
        assert result.comm.num_messages == 3
        assert len(result.shards) == 3

    def test_greedy_no_larger_than_union(self, instance):
        union = run_distributed(
            instance, workers=4, coordinator="union", seed=6
        )
        greedy = run_distributed(
            instance, workers=4, coordinator="greedy", seed=6
        )
        assert greedy.cover_size <= union.cover_size


class TestChainProtocolParity:
    """Chain merge over by-set shards == the t-party simple protocol."""

    def _assert_parity(self, instance, workers, seed):
        result = run_distributed(
            instance,
            workers=workers,
            algorithm="kk",
            strategy="by-set",
            coordinator="chain",
            seed=seed,
        )
        result.verify(instance)
        parties = split_instance_among_parties(instance, workers, seed=seed)
        protocol = run_simple_protocol(instance.n, parties)
        assert result.cover_size == protocol.cover_size
        assert result.max_message_words == protocol.max_message_words

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_planted(self, instance, workers):
        self._assert_parity(instance, workers, seed=11)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_lb_family(self, seed, workers):
        self._assert_parity(lb_family_instance(seed=seed), workers, seed=seed)

    def test_threshold_override_propagates(self, instance):
        result = run_distributed(
            instance, workers=3, coordinator="chain", seed=5, threshold=2.0
        )
        parties = split_instance_among_parties(instance, 3, seed=5)
        protocol = run_simple_protocol(instance.n, parties, threshold=2.0)
        assert result.cover_size == protocol.cover_size
        assert result.max_message_words == protocol.max_message_words


#: (coordinator, adaptive tau) cells; the one-shot union and greedy
#: merges have no tau to adapt.
BUDGET_CELLS = (
    ("union", False),
    ("greedy", False),
    ("chain", False),
    ("chain", True),
    ("tree", False),
    ("tree", True),
)


def budgeted_run(instance, cell, comm_budget=None):
    coordinator, adaptive = cell
    return run_distributed(
        instance,
        workers=4,
        coordinator=coordinator,
        adaptive_threshold=adaptive,
        seed=4,
        comm_budget=comm_budget,
    )


class TestBudgetsAndFailures:
    # Enforcement fires the moment the running total crosses the cap,
    # so each cell's smallest feasible budget is exactly its metered
    # total: the run passes there and fails one word below it.
    def test_comm_budget_enforced(self, instance):
        for cell in BUDGET_CELLS:
            total = budgeted_run(instance, cell).total_comm_words
            with pytest.raises(CommBudgetError):
                budgeted_run(instance, cell, CommBudget(total - 1))

    def test_generous_budget_passes(self, instance):
        for cell in BUDGET_CELLS:
            reference = budgeted_run(instance, cell)
            reference.verify(instance)
            total = reference.total_comm_words
            budgeted = budgeted_run(instance, cell, CommBudget(total))
            assert budgeted.cover == reference.cover, cell
            assert budgeted.total_comm_words == total, cell

    def test_protocol_merges_stay_under_comm_ceiling(self, instance):
        # The full-version t-party analysis: each of the W-1 hand-offs
        # carries at most n uncovered elements, 2n witness words and two
        # words per chosen key, with at most 2*sqrt(nW)*OPT keys chosen.
        n, workers, opt = instance.n, 4, 6  # opt: the fixture's planted OPT
        ceiling = (workers - 1) * (3 * n + 4 * math.sqrt(n * workers) * opt)
        for cell in BUDGET_CELLS:
            if cell[0] in ("chain", "tree"):
                total = budgeted_run(instance, cell).total_comm_words
                assert total <= ceiling, cell

    def test_chain_infeasible_instance_raises_protocol_error(self):
        # Element 3 is in no set: routing succeeds, the chain's last
        # party has no witness to patch with.
        bad = SetCoverInstance(4, [{0, 1}, {2}])
        with pytest.raises(ProtocolError):
            run_distributed(bad, workers=2, coordinator="chain", seed=0)

    def test_greedy_stall_is_typed(self):
        # Shard covers that do not jointly cover the universe make the
        # greedy merge stall; it must raise InvalidCoverError, not loop.
        from repro.distributed.comm import CommMeter as Meter
        from repro.distributed.coordinator import GreedyCoordinator
        from repro.distributed.transport import InprocTransport
        from repro.distributed.chain import SetRows
        from repro.distributed.worker import ShardOutput
        from repro.obs.tracer import NULL_TRACER

        instance = SetCoverInstance(3, [{0, 1, 2}])
        outputs = [
            ShardOutput(
                index=0,
                cover=frozenset({0}),
                certificate={0: 0, 1: 0},
                rows=SetRows.from_mapping({0: {0, 1}}),  # element 2 unseen
            )
        ]
        with pytest.raises(InvalidCoverError):
            GreedyCoordinator().merge(
                instance, outputs, Meter(), NULL_TRACER, InprocTransport()
            )

    def test_invalid_worker_counts(self, instance):
        with pytest.raises(ConfigurationError):
            run_distributed(instance, workers=0)
        with pytest.raises(ConfigurationError):
            run_distributed(instance, workers=2, max_workers=0)

    @pytest.mark.parametrize("workers", [0, 2.0, True])
    def test_task_builder_rejects_bad_worker_counts(self, instance, workers):
        with pytest.raises(InvalidParameterError, match="workers"):
            build_shard_tasks(instance, workers)


class TestFaultsCompose:
    def test_per_shard_faults_run_and_report(self, instance):
        from repro.faults.injectors import FaultSpec

        result = run_distributed(
            instance,
            workers=3,
            coordinator="union",
            seed=4,
            faults=[FaultSpec(kind="duplicate", rate=0.2, seed=1)],
        )
        result.verify(instance)
        assert all(r.injection is not None for r in result.shards)
        touched = sum(
            sum(r.injection.counts.values()) for r in result.shards
        )
        assert touched > 0

    def test_fault_free_runs_unchanged_by_fault_machinery(self, instance):
        # Pre-drawing fault seeds must not shift algorithm seeds: a run
        # with an empty fault list equals a run with faults=None.
        plain = run_distributed(instance, workers=3, seed=9)
        empty = run_distributed(instance, workers=3, seed=9, faults=[])
        assert plain == empty

    def test_corrupt_faults_never_crash(self, instance):
        from repro.faults.injectors import FaultSpec

        result = run_distributed(
            instance,
            workers=3,
            coordinator="union",
            seed=4,
            faults=[FaultSpec(kind="corrupt", rate=0.3, seed=2)],
        )
        # A corrupted stream may degrade the cover; it must not raise
        # on the way there, and the report must count what was dropped.
        assert result.workers == 3
