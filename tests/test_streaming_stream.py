"""Tests for EdgeStream / ReplayableStream: one-pass discipline."""

from __future__ import annotations

from itertools import cycle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import make_algorithm
from repro.errors import InvalidStreamError, StreamExhaustedError
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
    """Fail the test if a buffer is iterated as records or the
    instance's :meth:`~SetCoverInstance.edges` is asked for."""

    def forbidden(self):
        raise AssertionError("the column path built Edge records")

    monkeypatch.setattr(FrozenEdges, "__iter__", forbidden)
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
        # The numpy columns live on the frozen buffer, so every view
        # (and every batched reader) reads the same arrays.
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


class TestFrozenEdgesFromRecords:
    @pytest.mark.parametrize(
        "records",
        [
            [(2**63, 0)],
            [(0, 2**63)],
            [(0, 1.5)],
            [("0", 1)],
            [(0, None)],
            [(0, 1, 2)],
            [(0,)],
            [0, 1],
        ],
    )
    def test_bad_records_rejected_at_construction(self, records):
        with pytest.raises(InvalidStreamError):
            FrozenEdges(records)


class _Unscannable(np.ndarray):
    """A column view whose reductions fail the test."""

    def min(self, *args, **kwargs):
        raise AssertionError("the buffer was scanned again")

    max = min


class TestCheckIds:
    def test_names_the_first_edge_outside(self):
        FrozenEdges([(0, 1), (1, 5)]).check_ids(6, 2)
        frozen = FrozenEdges([(0, 1), (1, 5), (-1, 0)])
        with pytest.raises(InvalidStreamError, match=r"edge 1 \(1, 5\)"):
            frozen.check_ids(5, 2)
        with pytest.raises(InvalidStreamError, match=r"edge 2 \(-1, 0\)"):
            frozen.check_ids(6, 3)

    def test_extremes_read_once(self):
        # Later checks of one buffer, against any shape, reuse the
        # extremes its first check found.
        frozen = FrozenEdges([(0, 1), (2, 0)])
        frozen.check_ids(2, 3)
        frozen._set_ids = frozen._set_ids.view(_Unscannable)
        frozen._elements = frozen._elements.view(_Unscannable)
        frozen.check_ids(2, 3)
        with pytest.raises(InvalidStreamError, match=r"edge 0 \(0, 1\)"):
            frozen.check_ids(1, 3)

    def test_empty_buffer_fits_any_shape(self):
        FrozenEdges([]).check_ids(0, 0)


class _FiringRecorder(EdgeStream):
    """Records, at every checkpoint firing, the stream position and the
    number of edges its consumer has been handed."""

    def __init__(self, instance, edges, checkpoints):
        super().__init__(instance, edges)
        self._checkpoints = sorted(checkpoints)
        self.seen = []
        self.fired = []

    def _on_checkpoint(self):
        self.fired.append((self._position, len(self.seen)))


@st.composite
def _checkpointed_walks(draw):
    n = draw(st.integers(0, 30))
    edges = [Edge(draw(st.integers(0, 5)), draw(st.integers(0, 9))) for _ in range(n)]
    checkpoints = draw(st.lists(st.integers(0, n), max_size=8))
    chunks = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    return edges, checkpoints, chunks


class TestOneReadPath:
    """Per-edge iteration and batched column reads advance through the
    same clamped take: same edges, same firing positions, same count."""

    @settings(max_examples=200, deadline=None)
    @given(_checkpointed_walks())
    @example(  # checkpoints around the per-edge chunk boundaries
        (
            [Edge(k % 6, k % 10) for k in range(9000)],
            [0, 4095, 4096, 4096, 8192, 9000],
            [4096, 1],
        )
    )
    def test_per_edge_matches_batched(self, walk):
        edges, checkpoints, chunks = walk
        instance = SetCoverInstance(10, [range(10)] * 6)
        per_edge = _FiringRecorder(instance, edges, checkpoints)
        for edge in per_edge:
            per_edge.seen.append(edge)
        per_edge.flush_checkpoints()

        batched = _FiringRecorder(instance, edges, checkpoints)
        reader = batched.reader()
        for k in cycle(chunks):
            set_ids, elements = reader.take_columns(k)
            if not len(set_ids):
                break
            batched.seen.extend(map(Edge, set_ids.tolist(), elements.tolist()))
        batched.flush_checkpoints()

        assert per_edge.seen == batched.seen == edges
        assert per_edge.fired == batched.fired
        assert [position for position, _ in per_edge.fired] == sorted(checkpoints)
        assert all(position == seen for position, seen in per_edge.fired)
        assert per_edge.position == batched.position == len(edges)
