"""Tests for the shard router and the round-robin deal."""

from __future__ import annotations

import pytest

from repro.distributed.router import (
    STRATEGIES,
    ShardRouter,
    deal_round_robin,
    edge_hash_worker,
)
from repro.errors import ConfigurationError, InvalidStreamError
from repro.generators.planted import planted_partition_instance
from repro.lowerbound.simple_protocol import split_instance_among_parties
from repro.streaming.orders import RandomOrder


@pytest.fixture
def instance():
    return planted_partition_instance(40, 30, opt_size=4, seed=7).instance


def _ordered_edges(instance, seed=0):
    return RandomOrder(seed=seed).apply(list(instance.edges()))


class TestDealRoundRobin:
    def test_partitions_all_items(self):
        assignment, per_worker = deal_round_robin(17, 4, seed=3)
        assert sorted(sum(per_worker, [])) == list(range(17))
        for item, worker in enumerate(assignment):
            assert item in per_worker[worker]

    def test_balanced_within_one(self):
        _, per_worker = deal_round_robin(17, 4, seed=3)
        sizes = [len(items) for items in per_worker]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_in_seed(self):
        assert deal_round_robin(20, 3, seed=5) == deal_round_robin(20, 3, seed=5)
        assert deal_round_robin(20, 3, seed=5) != deal_round_robin(20, 3, seed=6)

    def test_more_workers_than_items(self):
        assignment, per_worker = deal_round_robin(3, 8, seed=1)
        assert sorted(sum(per_worker, [])) == [0, 1, 2]
        assert sum(1 for items in per_worker if not items) == 5

    def test_zero_items(self):
        assignment, per_worker = deal_round_robin(0, 4, seed=1)
        assert assignment == []
        assert per_worker == [[], [], [], []]

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            deal_round_robin(5, 0)
        with pytest.raises(ConfigurationError):
            deal_round_robin(-1, 2)

    def test_matches_split_instance_among_parties(self, instance):
        """The by-set deal IS the simple protocol's party split."""
        for t in (2, 3, 5):
            for seed in (0, 9, 42):
                parties = split_instance_among_parties(instance, t, seed=seed)
                _, per_worker = deal_round_robin(instance.m, t, seed=seed)
                assert len(parties) == len(per_worker)
                for party, share in zip(parties, per_worker):
                    assert party.sets == [
                        set(instance.set_members(s)) for s in share
                    ]


class TestShardRouter:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_shards_partition_the_stream(self, instance, strategy):
        edges = _ordered_edges(instance)
        plan = ShardRouter(strategy, workers=4, seed=2).route_edges(
            instance, edges
        )
        assert plan.total_edges == len(edges)
        flat = [e for shard in plan.shard_edges for e in shard]
        assert sorted(flat) == sorted(edges)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_shards_preserve_arrival_order(self, instance, strategy):
        edges = _ordered_edges(instance, seed=5)
        plan = ShardRouter(strategy, workers=3, seed=2).route_edges(
            instance, edges
        )
        position = {edge: i for i, edge in enumerate(edges)}
        for shard in plan.shard_edges:
            positions = [position[e] for e in shard]
            assert positions == sorted(positions)

    def test_by_set_keeps_sets_whole(self, instance):
        edges = _ordered_edges(instance)
        plan = ShardRouter("by-set", workers=4, seed=2).route_edges(
            instance, edges
        )
        owner = {}
        for index, shard in enumerate(plan.shard_edges):
            for edge in shard:
                assert owner.setdefault(edge[0], index) == index

    def test_by_element_keeps_elements_whole(self, instance):
        edges = _ordered_edges(instance)
        plan = ShardRouter("by-element", workers=4, seed=2).route_edges(
            instance, edges
        )
        owner = {}
        for index, shard in enumerate(plan.shard_edges):
            for edge in shard:
                assert owner.setdefault(edge[1], index) == index

    def test_by_set_order_matches_deal(self, instance):
        plan = ShardRouter("by-set", workers=3, seed=11).route_edges(
            instance, _ordered_edges(instance)
        )
        _, per_worker = deal_round_robin(instance.m, 3, seed=11)
        assert [list(order) for order in plan.set_order] == per_worker

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deterministic_in_inputs(self, instance, strategy):
        edges = _ordered_edges(instance)
        a = ShardRouter(strategy, workers=4, seed=3).route_edges(instance, edges)
        b = ShardRouter(strategy, workers=4, seed=3).route_edges(instance, edges)
        assert a == b

    def test_single_worker_gets_everything(self, instance):
        edges = _ordered_edges(instance)
        plan = ShardRouter("by-set", workers=1, seed=0).route_edges(
            instance, edges
        )
        assert list(plan.shard_edges[0]) == edges
        assert sorted(plan.set_order[0]) == list(range(instance.m))

    def test_more_workers_than_sets(self, instance):
        workers = instance.m + 5
        plan = ShardRouter("by-set", workers=workers, seed=1).route_edges(
            instance, _ordered_edges(instance)
        )
        assert plan.workers == workers
        assert sum(1 for order in plan.set_order if not order) == 5
        assert plan.total_edges == instance.num_edges

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardRouter("by-universe", workers=2)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardRouter("by-set", workers=0)

    def test_route_stream_consumes_the_pass(self, instance):
        from repro.streaming.stream import stream_of
        from repro.streaming.orders import CanonicalOrder

        stream = stream_of(instance, CanonicalOrder())
        plan = ShardRouter("hash", workers=2, seed=4).route_stream(stream)
        assert plan.total_edges == instance.num_edges
        assert plan.order_name == "canonical"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("bad", [(-1, 0), (30, 0), (0, -1), (0, 40)])
    def test_edge_outside_instance_rejected(self, instance, strategy, bad):
        edges = _ordered_edges(instance) + [bad]
        with pytest.raises(InvalidStreamError):
            ShardRouter(strategy, workers=3).route_edges(instance, edges)


class TestEdgeHash:
    def test_stable_across_calls(self):
        assert edge_hash_worker(3, 17, 8, 42) == edge_hash_worker(3, 17, 8, 42)

    def test_seed_changes_partition(self):
        pairs = [(s, u) for s in range(20) for u in range(20)]
        a = [edge_hash_worker(s, u, 4, 1) for s, u in pairs]
        b = [edge_hash_worker(s, u, 4, 2) for s, u in pairs]
        assert a != b

    def test_roughly_uniform(self):
        workers = 4
        counts = [0] * workers
        for s in range(50):
            for u in range(50):
                counts[edge_hash_worker(s, u, workers, 7)] += 1
        expected = 50 * 50 / workers
        for count in counts:
            assert 0.8 * expected < count < 1.2 * expected
