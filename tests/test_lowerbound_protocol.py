"""Tests for the one-way protocol simulator and boundary probing."""

from __future__ import annotations

import pytest

from repro.core.kk import KKAlgorithm
from repro.errors import ProtocolError
from repro.lowerbound.protocol import (
    Message,
    OneWayChain,
    run_partitioned_stream,
)
from repro.streaming.instance import SetCoverInstance
from repro.streaming.stream import FrozenEdges
from repro.types import Edge


class TestMessage:
    def test_words_recorded(self):
        assert Message(payload="x", words=5).words == 5

    def test_rejects_negative_words(self):
        with pytest.raises(ProtocolError):
            Message(payload="x", words=-1)


class TestOneWayChain:
    def test_sequential_execution(self):
        transcript = []

        def party(index):
            def fn(incoming, party_input):
                received = incoming.payload if incoming else 0
                transcript.append((index, received))
                return Message(payload=received + party_input, words=1)

            return fn

        chain = OneWayChain([party(0), party(1), party(2)])
        result = chain.execute([10, 20, 30])
        assert result.output == 60
        assert transcript == [(0, 0), (1, 10), (2, 30)]

    def test_message_sizes_exclude_output(self):
        def fn(incoming, party_input):
            return Message(payload=None, words=party_input)

        chain = OneWayChain([fn, fn, fn])
        result = chain.execute([5, 7, 100])
        assert result.message_words == [5, 7]
        assert result.max_message_words == 7

    def test_rejects_single_party(self):
        with pytest.raises(ProtocolError):
            OneWayChain([lambda i, x: Message(payload=None, words=0)])

    def test_rejects_input_count_mismatch(self):
        def fn(incoming, party_input):
            return Message(payload=None, words=0)

        with pytest.raises(ProtocolError):
            OneWayChain([fn, fn]).execute([1, 2, 3])

    def test_rejects_non_message_return(self):
        def bad(incoming, party_input):
            return "not a message"

        def good(incoming, party_input):
            return Message(payload=None, words=0)

        with pytest.raises(ProtocolError):
            OneWayChain([bad, good]).execute([1, 2])


class TestRunPartitionedStream:
    @pytest.fixture
    def instance(self):
        return SetCoverInstance(4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}])

    def test_boundary_count(self, instance):
        edges = list(instance.edges())
        parties = [edges[:3], edges[3:6], edges[6:]]
        result, messages = run_partitioned_stream(
            KKAlgorithm(seed=1), instance, parties
        )
        assert len(messages) == 2
        result.verify(instance)

    def test_messages_positive_after_state_builds(self, instance):
        edges = list(instance.edges())
        parties = [edges[:4], edges[4:]]
        _result, messages = run_partitioned_stream(
            KKAlgorithm(seed=2), instance, parties
        )
        assert messages[0] > 0

    def test_messages_monotone_for_kk(self, instance):
        # KK state (counters + first sets) only grows.
        edges = list(instance.edges())
        parties = [edges[:2], edges[2:5], edges[5:]]
        _result, messages = run_partitioned_stream(
            KKAlgorithm(seed=3), instance, parties
        )
        assert messages == sorted(messages)

    def test_empty_middle_party_allowed(self, instance):
        edges = list(instance.edges())
        parties = [edges[:4], [], edges[4:]]
        _result, messages = run_partitioned_stream(
            KKAlgorithm(seed=4), instance, parties
        )
        assert len(messages) == 2
        assert messages[0] == messages[1]  # no edges between boundaries

    @pytest.mark.parametrize("cuts", [(3, 6), (4, 4), (0, 8)])
    def test_column_parties_equal_record_parties(self, instance, cuts):
        # FrozenEdges parties are concatenated as columns; Edge lists
        # reach the same columns.  (4, 4) leaves the middle party empty.
        edges = list(instance.edges())
        first, second = cuts
        records = [edges[:first], edges[first:second], edges[second:]]
        columns = [FrozenEdges(part) for part in records]
        by_records = run_partitioned_stream(KKAlgorithm(seed=7), instance, records)
        by_columns = run_partitioned_stream(KKAlgorithm(seed=7), instance, columns)
        mixed = run_partitioned_stream(
            KKAlgorithm(seed=7), instance, [columns[0], records[1], columns[2]]
        )
        assert by_records == by_columns == mixed

    def test_random_order_messages_hold_every_witness(self):
        # Algorithm 1 on a 1,920-edge random-order stream: epoch 0's
        # detection window is its first 489 edges and the subepochs that
        # follow are 34 edges each.  Cuts at 120 and 300 fall inside
        # epoch 0 and the cut at 540 inside the second subepoch; each
        # message counts every witness written before its boundary.
        from repro.core.random_order import RandomOrderAlgorithm
        from repro.generators.random_instances import fixed_size_instance
        from repro.streaming.orders import RandomOrder
        from repro.streaming.stream import EdgeStream

        instance = fixed_size_instance(60, 240, 8, seed=3)
        edges = RandomOrder(seed=11).apply(list(instance.edges()))
        scaling = RandomOrderAlgorithm(seed=5).scaling
        assert scaling.detection_window(instance.n, instance.m, len(edges)) == 489
        cuts = [0, 120, 300, 540, len(edges)]
        parties = [edges[a:b] for a, b in zip(cuts, cuts[1:])]
        result, messages = run_partitioned_stream(
            RandomOrderAlgorithm(seed=5), instance, parties
        )
        assert messages == [340, 440, 419]
        plain = RandomOrderAlgorithm(seed=5).run(EdgeStream(instance, edges))
        assert result.cover == plain.cover

    def test_rejects_single_party(self, instance):
        with pytest.raises(ProtocolError):
            run_partitioned_stream(
                KKAlgorithm(seed=5), instance, [list(instance.edges())]
            )

    def test_result_matches_plain_run(self, instance):
        from repro.streaming.stream import EdgeStream

        edges = list(instance.edges())
        parties = [edges[: len(edges) // 2], edges[len(edges) // 2 :]]
        protocol_result, _ = run_partitioned_stream(
            KKAlgorithm(seed=6), instance, parties
        )
        plain = KKAlgorithm(seed=6).run(EdgeStream(instance, edges))
        assert protocol_result.cover == plain.cover

    def test_length_oblivious_walks_the_outer_pass(self):
        from repro.core.random_order import StreamLengthOblivious
        from repro.generators.planted import planted_partition_instance
        from repro.streaming.stream import EdgeStream

        planted = planted_partition_instance(40, 80, opt_size=4, seed=1).instance
        edges = list(planted.edges())
        parties = [edges[: len(edges) // 2], edges[len(edges) // 2 :]]
        protocol_result, messages = run_partitioned_stream(
            StreamLengthOblivious(seed=1), planted, parties
        )
        plain = StreamLengthOblivious(seed=1).run(EdgeStream(planted, edges))
        assert len(messages) == 1
        assert protocol_result.cover == plain.cover
