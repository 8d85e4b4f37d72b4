"""Tests for the fault-injection stream wrappers."""

from __future__ import annotations

import pickle

import pytest

from repro.core.kk import KKAlgorithm
from repro.distributed.backends import ShardTask, execute_shard_task
from repro.distributed.router import ShardRouter
from repro.distributed.worker import InstanceShape
from repro.errors import ConfigurationError, StreamExhaustedError
from repro.faults import (
    FAULT_KINDS,
    FaultSpec,
    FaultyStream,
    ResilientAlgorithm,
    apply_faults,
    fault_plan,
    inject,
)
from repro.generators.planted import planted_partition_instance
from repro.streaming.stream import FrozenEdges, stream_of


@pytest.fixture
def edges(chain_instance):
    return tuple(chain_instance.edges())


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec(kind="meteor", rate=0.1)

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rejects_out_of_range_rate(self, rate):
        with pytest.raises(ConfigurationError, match="rate"):
            FaultSpec(kind="drop", rate=rate)

    def test_all_kinds_constructible(self):
        for kind in FAULT_KINDS:
            FaultSpec(kind=kind, rate=0.5)


class TestApplyFaults:
    def test_deterministic_per_seed(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        spec = [FaultSpec("corrupt", 0.5, seed=9)]
        first = apply_faults(edges, n, m, spec)
        second = apply_faults(edges, n, m, spec)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2].counts == second[2].counts

    def test_different_seeds_differ(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        a, _, _ = apply_faults(edges, n, m, [FaultSpec("drop", 0.5, seed=1)])
        b, _, _ = apply_faults(edges, n, m, [FaultSpec("drop", 0.5, seed=2)])
        assert a != b  # 12 coin flips at p=0.5; collision would be freak luck

    @pytest.mark.parametrize("kind", ["drop", "duplicate", "corrupt", "truncate"])
    def test_rate_zero_is_identity(self, chain_instance, edges, kind):
        n, m = chain_instance.n, chain_instance.m
        out, declared, report = apply_faults(
            edges, n, m, [FaultSpec(kind, 0.0, seed=3)]
        )
        assert tuple(out) == edges
        assert declared is None
        assert report.counts[kind] == 0

    def test_drop_removes_subsequence(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        out, _, report = apply_faults(
            edges, n, m, [FaultSpec("drop", 0.5, seed=4)]
        )
        assert len(out) == len(edges) - report.counts["drop"]
        # Surviving edges keep their relative order.
        positions = [edges.index(edge) for edge in out]
        assert positions == sorted(positions)

    def test_duplicate_adds_adjacent_copies(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        out, _, report = apply_faults(
            edges, n, m, [FaultSpec("duplicate", 1.0, seed=5)]
        )
        assert report.counts["duplicate"] == len(edges)
        records = list(out)
        assert len(records) == 2 * len(edges)
        assert all(records[2 * i] == records[2 * i + 1] for i in range(len(edges)))

    def test_corrupt_produces_only_unknown_ids(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        out, _, report = apply_faults(
            edges, n, m, [FaultSpec("corrupt", 1.0, seed=6)]
        )
        assert report.counts["corrupt"] == len(edges)
        for edge in out:
            assert edge.set_id >= m or edge.element >= n

    def test_truncate_drops_the_tail(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        out, _, report = apply_faults(
            edges, n, m, [FaultSpec("truncate", 0.5, seed=7)]
        )
        keep = len(edges) - int(0.5 * len(edges))
        assert tuple(out) == edges[:keep]
        assert report.counts["truncate"] == len(edges) - keep

    def test_reorder_preserves_multiset(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        out, _, _ = apply_faults(
            edges, n, m, [FaultSpec("reorder", 0.5, seed=8)]
        )
        assert len(out) == len(edges)
        assert sorted(out) == sorted(edges)

    def test_lie_length_inflates_declared_only(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        out, declared, report = apply_faults(
            edges, n, m, [FaultSpec("lie-length", 0.25, seed=9)]
        )
        assert tuple(out) == edges
        assert declared is not None and declared > len(edges)
        assert report.lies_about_length

    def test_pipeline_composes_in_order(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        out, declared, report = apply_faults(
            edges,
            n,
            m,
            [FaultSpec("drop", 0.3, seed=1), FaultSpec("lie-length", 0.5, seed=2)],
        )
        assert len(out) < len(edges)
        assert declared is not None and declared > len(out)
        assert set(report.counts) == {"drop", "lie-length"}

    def test_report_has_isolated_space(self, chain_instance, edges):
        n, m = chain_instance.n, chain_instance.m
        _, _, report = apply_faults(edges, n, m, [FaultSpec("drop", 0.1, seed=1)])
        assert report.space is not None
        assert report.space.peak_words >= 2 * len(edges)
        assert report.space.final_words == 0


class TestFaultyStream:
    def test_behaves_like_edge_stream(self, chain_instance, edges):
        stream = FaultyStream(chain_instance, edges, [FaultSpec("drop", 0.0)])
        assert stream.order_name.endswith("+faults")
        assert tuple(stream) == edges

    def test_one_pass_discipline(self, chain_instance, edges):
        stream = FaultyStream(chain_instance, edges, [FaultSpec("drop", 0.3)])
        stream.reader().take_rest_columns()
        with pytest.raises(StreamExhaustedError):
            stream.reader()

    def test_lie_length_sets_declared(self, chain_instance, edges):
        stream = FaultyStream(
            chain_instance, edges, [FaultSpec("lie-length", 0.5, seed=1)]
        )
        assert stream.length > stream.actual_length
        assert stream.injection.lies_about_length

    def test_injection_cost_not_charged_to_algorithm(self, chain_instance):
        clean = KKAlgorithm(seed=0).run(stream_of(chain_instance))
        faulted_stream = inject(
            stream_of(chain_instance), [FaultSpec("drop", 0.0, seed=0)]
        )
        faulted = KKAlgorithm(seed=0).run(faulted_stream)
        # A no-op fault pipeline leaves the algorithm's own accounting
        # untouched; the injector buffer lives on its private meter.
        assert faulted.space.peak_words == clean.space.peak_words


class TestInject:
    def test_spends_source_pass(self, chain_instance):
        source = stream_of(chain_instance)
        inject(source, [FaultSpec("drop", 0.1, seed=1)])
        with pytest.raises(StreamExhaustedError):
            source.reader()

    def test_preserves_order_name(self, chain_instance):
        faulty = inject(stream_of(chain_instance), [FaultSpec("drop", 0.1)])
        assert faulty.order_name == "canonical+faults"


class TestFaultPlan:
    def test_one_spec_per_kind_with_distinct_seeds(self):
        plan = fault_plan(FAULT_KINDS, rate=0.2, seed=5)
        assert [spec.kind for spec in plan] == list(FAULT_KINDS)
        assert all(spec.rate == 0.2 for spec in plan)
        assert len({spec.seed for spec in plan}) == len(FAULT_KINDS)

    def test_deterministic(self):
        assert fault_plan(FAULT_KINDS, 0.1, seed=3) == fault_plan(
            FAULT_KINDS, 0.1, seed=3
        )


@pytest.fixture
def no_edge_records(monkeypatch):
    """Fail the test if a ``FrozenEdges`` is iterated as records, or if
    a buffer is built from anything but columns or another buffer."""

    def forbidden(self):
        raise AssertionError("the column path built Edge records")

    wrap = FrozenEdges.__init__

    def from_buffer_only(self, edges):
        if not isinstance(edges, FrozenEdges):
            raise AssertionError("the column path froze Edge records")
        wrap(self, edges)

    def patch():
        monkeypatch.setattr(FrozenEdges, "__iter__", forbidden)
        monkeypatch.setattr(FrozenEdges, "__init__", from_buffer_only)

    return patch


class TestFaultsStayOnColumns:
    """Faulted shards and resilient runs never build ``Edge`` records."""

    @pytest.fixture
    def planted(self):
        return planted_partition_instance(80, 30, opt_size=6, seed=11).instance

    @pytest.mark.parametrize("shipping", ["pickled"])
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_faulted_shard_task(self, planted, no_edge_records, kind, shipping):
        plan = ShardRouter("hash", workers=2, seed=1).route_edges(
            planted, FrozenEdges.from_columns(*planted.edge_columns())
        )
        task = ShardTask(
            index=0,
            algorithm="kk",
            seed=3,
            shape=InstanceShape.of(planted),
            edges=plan.shard_edges[0],
            set_order=plan.set_order[0],
            fault_specs=(FaultSpec(kind, 0.3, seed=5),),
        )
        expected = execute_shard_task(task)
        no_edge_records()
        # The task crosses the process boundary as a pickle of its columns.
        envelope = execute_shard_task(pickle.loads(pickle.dumps(task)))
        assert envelope.output == expected.output
        assert list(envelope.output.report.injection.counts) == [kind]

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_inject_then_best_effort(self, planted, no_edge_records, kind):
        def run(source):
            faulty = inject(source, [FaultSpec(kind, 0.3, seed=5)])
            return ResilientAlgorithm(KKAlgorithm(seed=2), "best_effort").run(
                faulty
            )

        expected = run(stream_of(planted))
        source = stream_of(planted)
        no_edge_records()
        outcome = run(source)
        assert outcome.degradation == expected.degradation
        assert outcome.result.cover == expected.result.cover
