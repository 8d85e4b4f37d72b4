"""Tests for EdgeStream / ReplayableStream: one-pass discipline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.errors import StreamExhaustedError
from repro.generators.planted import planted_partition_instance
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import (
    ORDER_REGISTRY,
    ExplicitOrder,
    LocallyShuffledOrder,
    RandomOrder,
    make_order,
)
from repro.streaming.stream import (
    EdgeStream,
    FrozenEdges,
    ReplayableStream,
    concat_streams,
    stream_of,
)
from repro.types import Edge


@pytest.fixture
def no_edge_records(monkeypatch):
    """Fail the test if a buffer's tuple view or the instance's
    :meth:`~SetCoverInstance.edges` is asked for."""

    def forbidden(self):
        raise AssertionError("the column path built Edge records")

    monkeypatch.setattr(FrozenEdges, "edges", property(forbidden))
    monkeypatch.setattr(SetCoverInstance, "edges", forbidden)


class TestEdgeStream:
    def test_iterates_all_edges(self, tiny_instance):
        stream = stream_of(tiny_instance)
        assert len(list(stream)) == tiny_instance.num_edges

    def test_length_matches_instance(self, tiny_instance):
        assert stream_of(tiny_instance).length == tiny_instance.num_edges

    def test_position_tracks_consumption(self, tiny_instance):
        stream = stream_of(tiny_instance)
        it = iter(stream)
        next(it)
        next(it)
        assert stream.position == 2

    def test_second_pass_rejected(self, tiny_instance):
        stream = stream_of(tiny_instance)
        list(stream)
        with pytest.raises(StreamExhaustedError):
            iter(stream)

    def test_second_iter_rejected_even_unconsumed_items(self, tiny_instance):
        stream = stream_of(tiny_instance)
        iter(stream)
        with pytest.raises(StreamExhaustedError):
            iter(stream)

    def test_peek_all_does_not_consume(self, tiny_instance):
        stream = stream_of(tiny_instance)
        assert len(stream.peek_all()) == stream.length
        assert not stream.consumed

    def test_order_name_recorded(self, tiny_instance):
        stream = stream_of(tiny_instance, RandomOrder(seed=1))
        assert stream.order_name == "random"

    def test_default_order_canonical(self, tiny_instance):
        stream = stream_of(tiny_instance)
        assert stream.order_name == "canonical"
        assert list(stream) == list(tiny_instance.edges())


class TestReplayableStream:
    def test_fresh_streams_identical(self, chain_instance):
        replayable = ReplayableStream(chain_instance, RandomOrder(seed=2))
        a = list(replayable.fresh())
        b = list(replayable.fresh())
        assert a == b

    def test_fresh_streams_independent(self, chain_instance):
        replayable = ReplayableStream(chain_instance, RandomOrder(seed=2))
        first = replayable.fresh()
        list(first)
        second = replayable.fresh()
        assert list(second)  # not exhausted by the first view

    def test_edges_accessor(self, chain_instance):
        replayable = ReplayableStream(chain_instance)
        assert len(replayable.edges()) == chain_instance.num_edges

    def test_length(self, chain_instance):
        assert ReplayableStream(chain_instance).length == chain_instance.num_edges

    def test_fresh_is_zero_copy(self, chain_instance):
        # Regression guard: fresh() must hand out a view over the shared
        # frozen buffer, not a defensive copy — O(1) per view is what
        # makes replications over large instances affordable.
        replayable = ReplayableStream(chain_instance, RandomOrder(seed=2))
        view = replayable.fresh()
        assert view.peek_all() is replayable.edges()
        assert view._frozen is replayable._frozen

    def test_fresh_views_share_buffer(self, chain_instance):
        replayable = ReplayableStream(chain_instance, RandomOrder(seed=2))
        first = replayable.fresh()
        second = replayable.fresh()
        assert first.peek_all() is second.peek_all()

    def test_fresh_views_share_columns(self, chain_instance):
        # The lazily-built numpy columns are cached on the frozen buffer,
        # so every view (and every batched reader) reuses one build.
        replayable = ReplayableStream(chain_instance, RandomOrder(seed=2))
        cols_a = replayable.fresh()._frozen.columns()
        cols_b = replayable.fresh()._frozen.columns()
        assert cols_a[0] is cols_b[0]
        assert cols_a[1] is cols_b[1]


class TestConcatStreams:
    def test_concatenates_in_order(self, tiny_instance):
        first = EdgeStream(tiny_instance, [Edge(0, 0)])
        second = EdgeStream(tiny_instance, [Edge(2, 3)])
        combined = concat_streams(first, second)
        assert list(combined) == [Edge(0, 0), Edge(2, 3)]

    def test_rejects_consumed_input(self, tiny_instance):
        first = EdgeStream(tiny_instance, [Edge(0, 0)])
        list(first)
        second = EdgeStream(tiny_instance, [Edge(2, 3)])
        with pytest.raises(StreamExhaustedError):
            concat_streams(first, second)

    def test_order_name_combines(self, tiny_instance):
        first = EdgeStream(tiny_instance, [Edge(0, 0)], order_name="a")
        second = EdgeStream(tiny_instance, [Edge(2, 3)], order_name="b")
        assert concat_streams(first, second).order_name == "a+b"


class TestFrozenEdgesHash:
    def test_tuple_and_column_buffers_hash_equal(self, chain_instance):
        edges = RandomOrder(seed=3).apply(list(chain_instance.edges()))
        from_tuples = FrozenEdges(edges)
        from_columns = FrozenEdges.from_columns(
            np.array([s for s, _ in edges], dtype=np.int64),
            np.array([u for _, u in edges], dtype=np.int64),
        )
        assert from_tuples == from_columns
        assert hash(from_tuples) == hash(from_columns)
        assert hash(from_tuples) != hash(FrozenEdges(edges[::-1]))

    def test_hash_builds_no_edge_records(self, chain_instance, no_edge_records):
        frozen = FrozenEdges.from_columns(*chain_instance.edge_columns())
        assert hash(frozen) == hash(FrozenEdges.from_columns(*frozen.columns()))


#: Every order class, from a seed and the stream length.
ALL_ORDERS = {
    **{
        name: lambda seed, k, name=name: make_order(name, seed=seed)
        for name in ORDER_REGISTRY
    },
    "locally-shuffled": lambda seed, k: LocallyShuffledOrder(0.3, seed=seed),
    "explicit": lambda seed, k: ExplicitOrder(range(k - 1, -1, -1)),
}


class TestBuildersStayOnColumns:
    """The stream builders and a kk solve never build ``Edge`` records."""

    @pytest.fixture
    def planted(self):
        return planted_partition_instance(80, 30, opt_size=6, seed=11).instance

    @pytest.mark.parametrize("order", sorted(ALL_ORDERS))
    def test_builders(self, planted, tiny_instance, no_edge_records, order):
        make = ALL_ORDERS[order]
        k = planted.num_edges
        assert stream_of(planted, make(1, k)).length == k
        assert ReplayableStream(planted, make(2, k)).fresh().length == k
        combined = concat_streams(
            stream_of(planted, make(3, k)),
            stream_of(tiny_instance, make(4, tiny_instance.num_edges)),
        )
        assert combined.length == k + tiny_instance.num_edges

    def test_kk_solve(self, planted, no_edge_records):
        stream = stream_of(planted, RandomOrder(seed=5))
        result = make_algorithm("kk", planted, seed=6).run(stream)
        assert planted.is_cover(result.cover)
