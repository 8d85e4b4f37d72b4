"""Tests for the shard worker: local remap, global map-back, edge cases.

Plus the :meth:`ShardAccumulator.feed_columns` fast path, which must
build byte-identical accumulator state to the scalar :meth:`feed`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import registered_algorithms
from repro.distributed.router import ShardRouter
from repro.distributed.worker import ShardAccumulator, Worker
from repro.generators.planted import planted_partition_instance
from repro.obs.events import SPAN_SHARD
from repro.obs.tracer import RecordingTracer
from repro.streaming.orders import CanonicalOrder
from repro.streaming.stream import FrozenEdges
from repro.types import Edge


@pytest.fixture
def instance():
    return planted_partition_instance(36, 24, opt_size=4, seed=3).instance


def _plan(instance, workers=3, strategy="by-set", seed=5):
    edges = CanonicalOrder().apply(list(instance.edges()))
    return ShardRouter(strategy, workers=workers, seed=seed).route_edges(
        instance, edges
    )


def run_shard(worker, instance, edges, set_order):
    """One shard pass: feed the edges in one chunk, then run the shard."""
    accumulator = ShardAccumulator(
        worker.index, instance.n, instance.m, base_set_order=set_order
    )
    accumulator.feed_columns(*FrozenEdges(edges).columns())
    return worker.run_accumulated(accumulator, instance_name=instance.name)


class TestWorkerRun:
    def test_output_uses_global_ids(self, instance):
        plan = _plan(instance)
        out = run_shard(
            Worker(0, algorithm="first-fit", seed=1),
            instance,
            plan.shard_edges[0],
            plan.set_order[0],
        )
        for sid in out.cover:
            assert 0 <= sid < instance.m
        for u, sid in out.certificate.items():
            assert 0 <= u < instance.n
            assert sid in out.cover
            # The witness really contains the element, globally.
            assert instance.contains(sid, u)

    def test_members_view_matches_shard_edges(self, instance):
        plan = _plan(instance)
        out = run_shard(
            Worker(1, algorithm="first-fit", seed=1),
            instance,
            plan.shard_edges[1],
            plan.set_order[1],
        )
        seen = {}
        for edge in plan.shard_edges[1]:
            seen.setdefault(edge[0], set()).add(edge[1])
        for sid in plan.set_order[1]:
            assert out.rows.as_mapping()[sid] == frozenset(seen.get(sid, set()))

    def test_by_set_view_is_full_membership(self, instance):
        plan = _plan(instance, strategy="by-set")
        out = run_shard(
            Worker(2, algorithm="first-fit", seed=1),
            instance,
            plan.shard_edges[2],
            plan.set_order[2],
        )
        for sid in plan.set_order[2]:
            assert out.rows.as_mapping()[sid] == instance.set_members(sid)

    def test_report_shape(self, instance):
        plan = _plan(instance)
        out = run_shard(
            Worker(0, algorithm="kk", seed=9),
            instance,
            plan.shard_edges[0],
            plan.set_order[0],
        )
        report = out.report
        assert report.index == 0
        assert report.edges == len(plan.shard_edges[0])
        assert report.cover_size == len(out.cover)
        assert report.certificate_size == len(out.certificate)
        assert report.space.peak_words > 0
        assert report.dropped_invalid == 0

    @pytest.mark.parametrize("algorithm", sorted(registered_algorithms()))
    def test_every_registry_algorithm_runs_on_a_shard(self, instance, algorithm):
        # Canonical order is set-grouped and by-set shards preserve it,
        # so even the set-arrival baseline is happy on a shard stream.
        plan = _plan(instance, workers=2)
        out = run_shard(
            Worker(0, algorithm=algorithm, seed=4),
            instance,
            plan.shard_edges[0],
            plan.set_order[0],
        )
        # The shard cover must cover every element the shard saw.
        shard_elements = {e[1] for e in plan.shard_edges[0]}
        covered = set()
        for sid in out.cover:
            covered.update(out.rows.as_mapping().get(sid, frozenset()))
        assert shard_elements <= covered

    def test_empty_shard_yields_empty_output(self, instance):
        out = run_shard(Worker(3, algorithm="kk", seed=2), instance, [], [5, 7])
        assert out.cover == frozenset()
        assert out.certificate == {}
        assert out.set_order == (5, 7)
        assert out.report.edges == 0
        assert out.report.local_n == 0
        assert out.report.space.peak_words == 0

    def test_out_of_range_edges_dropped_not_fatal(self, instance):
        plan = _plan(instance, workers=2)
        dirty = list(plan.shard_edges[0]) + [
            Edge(instance.m + 3, 0),
            Edge(0, instance.n + 9),
            Edge(-1, 2),
        ]
        out = run_shard(
            Worker(0, algorithm="first-fit", seed=1),
            instance,
            dirty,
            plan.set_order[0],
        )
        assert out.report.dropped_invalid == 3
        assert out.report.edges == len(plan.shard_edges[0])

    def test_unlisted_set_appended_to_order(self, instance):
        # An edge whose set is not in set_order (corrupt-fault debris
        # with a *valid* id) is kept and its set appended.
        plan = _plan(instance, workers=2)
        foreign = next(
            s for s in range(instance.m) if s not in plan.set_order[0]
        )
        member = min(instance.set_members(foreign))
        dirty = list(plan.shard_edges[0]) + [Edge(foreign, member)]
        out = run_shard(
            Worker(0, algorithm="first-fit", seed=1),
            instance,
            dirty,
            plan.set_order[0],
        )
        assert out.set_order == tuple(plan.set_order[0]) + (foreign,)
        assert out.rows.as_mapping()[foreign] == frozenset({member})

    def test_shard_span_in_trace(self, instance):
        plan = _plan(instance, workers=2)
        tracer = RecordingTracer()
        run_shard(
            Worker(1, algorithm="kk", seed=3, tracer=tracer),
            instance,
            plan.shard_edges[1],
            plan.set_order[1],
        )
        tracer.finish()
        shard_spans = [
            e for e in tracer.events
            if e.etype == "span_begin" and e.attrs.get("kind") == SPAN_SHARD
        ]
        assert len(shard_spans) == 1
        assert shard_spans[0].attrs["worker"] == 1
        assert shard_spans[0].attrs["algorithm"] == "kk"

    def test_deterministic(self, instance):
        plan = _plan(instance)
        a = run_shard(
            Worker(0, algorithm="kk", seed=8),
            instance,
            plan.shard_edges[0],
            plan.set_order[0],
        )
        b = run_shard(
            Worker(0, algorithm="kk", seed=8),
            instance,
            plan.shard_edges[0],
            plan.set_order[0],
        )
        assert a.cover == b.cover
        assert a.certificate == b.certificate
        assert a.report.space == b.report.space


EDGES = st.lists(
    st.tuples(st.integers(-2, 12), st.integers(-2, 15)), max_size=80
)


class TestFeedColumnsEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(pairs=EDGES)
    def test_matches_scalar_feed(self, pairs):
        edges = [Edge(s, u) for s, u in pairs]
        set_ids = np.array([s for s, _ in pairs], dtype=np.int64)
        elements = np.array([u for _, u in pairs], dtype=np.int64)
        scalar = ShardAccumulator(0, n=16, m=13)
        vector = ShardAccumulator(0, n=16, m=13)
        scalar.feed(edges)
        # Feed in two chunks to exercise cross-chunk first-appearance.
        half = len(pairs) // 2
        vector.feed_columns(set_ids[:half], elements[:half])
        vector.feed_columns(set_ids[half:], elements[half:])
        assert vector.edges_fed == scalar.edges_fed
        assert vector.clean == scalar.clean
        assert vector.dropped == scalar.dropped
        assert vector.set_ids == scalar.set_ids
        assert vector.localize().rows == scalar.localize().rows
