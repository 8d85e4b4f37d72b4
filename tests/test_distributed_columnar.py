"""The columnar router and accumulator against a per-edge oracle.

Routing, ingest and localization run on ``int64`` edge columns.  This
module keeps a small per-edge model of the same three steps — one
Python loop per edge, dictionaries for every id map — and checks, on
hypothesis-generated instances, that the columnar code produces
exactly what the model does:

* the per-shard spans (arrival order kept) and ``set_order`` of all
  three strategies, for W = 1..6 (more workers than sets leaves shards
  empty), under canonical, random and set-grouped arrival orders, with
  the column entry point of each order equal to its tuple path;
* for every shard stream, with out-of-range ids, duplicate edges and
  unlisted sets mixed in, the party order, the membership rows, the
  dropped-edge count and the local id maps, fed in arbitrary chunks;
* the vectorized splitmix64 hash equals :func:`edge_hash_worker` on
  arbitrary ``int64`` pairs and seeds up to 2**63 - 1.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.router import (
    STRATEGIES,
    ShardRouter,
    deal_round_robin,
    edge_hash_worker,
    edge_hash_workers_columns,
)
from repro.distributed.worker import ShardAccumulator
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import CanonicalOrder, RandomOrder, SetGroupedOrder

ORDERS = {
    "canonical": lambda seed: CanonicalOrder(),
    "random": lambda seed: RandomOrder(seed=seed),
    "set-grouped": lambda seed: SetGroupedOrder(seed=seed),
}

Pair = Tuple[int, int]


# -- the per-edge oracle -----------------------------------------------------


def oracle_route(
    instance: SetCoverInstance,
    edges: Sequence[Pair],
    strategy: str,
    workers: int,
    seed: int,
) -> Tuple[List[List[Pair]], List[Tuple[int, ...]]]:
    """Route edge by edge into buckets; first-appearance set orders."""
    buckets: List[List[Pair]] = [[] for _ in range(workers)]
    if strategy == "by-set":
        assignment, per_worker = deal_round_robin(instance.m, workers, seed=seed)
        for s, u in edges:
            buckets[assignment[s]].append((s, u))
        return buckets, [tuple(items) for items in per_worker]
    if strategy == "by-element":
        assignment, _ = deal_round_robin(instance.n, workers, seed=seed)
        for s, u in edges:
            buckets[assignment[u]].append((s, u))
    else:
        for s, u in edges:
            buckets[edge_hash_worker(s, u, workers, seed)].append((s, u))
    orders = []
    for bucket in buckets:
        seen: Dict[int, None] = {}
        for s, _ in bucket:
            seen.setdefault(s, None)
        orders.append(tuple(seen))
    return buckets, orders


def oracle_accumulate(
    edges: Sequence[Pair], n: int, m: int, base: Sequence[int]
) -> dict:
    """Validate, discover and relabel edge by edge, with dictionaries."""
    set_ids = list(base)
    members: Dict[int, set] = {s: set() for s in set_ids}
    clean: List[Pair] = []
    dropped = 0
    for s, u in edges:
        if not (0 <= s < m and 0 <= u < n):
            dropped += 1
            continue
        clean.append((s, u))
        if s not in members:
            set_ids.append(s)
            members[s] = set()
        members[s].add(u)
    elements = sorted({u for _, u in clean})
    to_local_set = {g: i for i, g in enumerate(set_ids)}
    to_local_elem = {g: i for i, g in enumerate(elements)}
    return {
        "set_ids": set_ids,
        "elements": elements,
        "members_by_set": {s: frozenset(v) for s, v in members.items()},
        "dropped": dropped,
        "local_edges": [(to_local_set[s], to_local_elem[u]) for s, u in clean],
    }


# -- generators ---------------------------------------------------------------


@st.composite
def instances(draw) -> SetCoverInstance:
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 9))
    sets = [
        draw(st.sets(st.integers(0, n - 1), max_size=n)) for _ in range(m)
    ]
    return SetCoverInstance(n, sets)


def foreign_edges(instance: SetCoverInstance):
    """``(position, set, element)`` insertions: mostly in range, some not."""

    def ids(bound: int):
        return st.one_of(st.integers(0, bound - 1), st.integers(-3, bound + 3))

    return st.lists(
        st.tuples(st.integers(0, 10**6), ids(instance.m), ids(instance.n)),
        max_size=12,
    )


def _pairs(frozen) -> List[Pair]:
    set_ids, elements = frozen.columns()
    return list(zip(set_ids.tolist(), elements.tolist()))


def _chunks(edges: List[Pair], cuts: List[int]):
    bounds = [0] + sorted(c % (len(edges) + 1) for c in cuts) + [len(edges)]
    for a, b in zip(bounds, bounds[1:]):
        chunk = edges[a:b]
        yield (
            np.array([s for s, _ in chunk], dtype=np.int64),
            np.array([u for _, u in chunk], dtype=np.int64),
        )


# -- properties ---------------------------------------------------------------


class TestColumnarRouting:
    @settings(max_examples=120, deadline=None)
    @given(
        instance=instances(),
        strategy=st.sampled_from(STRATEGIES),
        workers=st.integers(1, 6),
        order=st.sampled_from(sorted(ORDERS)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_router_matches_oracle(self, instance, strategy, workers, order, seed):
        tuples = ORDERS[order](seed).apply(list(instance.edges()))
        set_col, elem_col = ORDERS[order](seed).apply_columns(
            *instance.edge_columns()
        )
        ordered = [tuple(edge) for edge in tuples]
        assert list(zip(set_col.tolist(), elem_col.tolist())) == ordered

        router = ShardRouter(strategy, workers=workers, seed=seed)
        plan = router.route_edges(instance, tuples)
        buckets, set_orders = oracle_route(
            instance, ordered, strategy, workers, seed
        )
        assert [_pairs(shard) for shard in plan.shard_edges] == buckets
        assert [list(shard) for shard in plan.shard_edges] == buckets
        assert list(plan.set_order) == set_orders
        assert plan.total_edges == instance.num_edges


class TestColumnarAccumulator:
    @settings(max_examples=200, deadline=None)
    @given(
        case=instances().flatmap(
            lambda inst: st.tuples(st.just(inst), foreign_edges(inst))
        ),
        strategy=st.sampled_from(STRATEGIES),
        workers=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
        duplicates=st.lists(st.integers(0, 10**6), max_size=6),
        cuts=st.lists(st.integers(0, 10**6), max_size=3),
    )
    def test_accumulator_matches_oracle(
        self, case, strategy, workers, seed, duplicates, cuts
    ):
        instance, extras = case
        edges = RandomOrder(seed=seed).apply(list(instance.edges()))
        plan = ShardRouter(strategy, workers=workers, seed=seed).route_edges(
            instance, edges
        )
        for shard, base in zip(plan.shard_edges, plan.set_order):
            stream = _pairs(shard)
            # Duplicates of routed edges, then foreign edges: out-of-range
            # ids (dropped) and in-range sets the shard was not dealt
            # (appended to the party order by first appearance).
            for position in duplicates:
                if stream:
                    stream.insert(
                        position % (len(stream) + 1),
                        stream[position % len(stream)],
                    )
            for position, s, u in extras:
                stream.insert(position % (len(stream) + 1), (s, u))
            expected = oracle_accumulate(stream, instance.n, instance.m, base)

            columnar = ShardAccumulator(0, instance.n, instance.m, base)
            for set_ids, elements in _chunks(stream, cuts):
                columnar.feed_columns(set_ids, elements)
            adapter = ShardAccumulator(0, instance.n, instance.m, base)
            adapter.feed(stream)
            for accumulator in (columnar, adapter):
                local = accumulator.localize()
                assert accumulator.edges_fed == len(stream)
                assert accumulator.dropped == expected["dropped"]
                assert accumulator.set_ids == expected["set_ids"]
                assert local.set_ids.tolist() == expected["set_ids"]
                assert local.elements.tolist() == expected["elements"]
                assert local.rows.as_mapping() == expected["members_by_set"]
                assert list(local.rows.as_mapping()) == expected["set_ids"]
                assert (
                    list(
                        zip(
                            local.local_sets.tolist(),
                            local.local_elements.tolist(),
                        )
                    )
                    == expected["local_edges"]
                )

    def test_listed_twice_keeps_last_position(self):
        # A set listed twice in the base order: its edges relabel to the
        # later position, as a dict built over the order would.
        accumulator = ShardAccumulator(0, n=3, m=4, base_set_order=(2, 0, 2))
        accumulator.feed([(2, 1), (0, 0), (3, 2)])
        local = accumulator.localize()
        assert local.set_ids.tolist() == [2, 0, 2, 3]
        assert local.local_sets.tolist() == [2, 1, 3]
        assert local.rows.as_mapping() == {
            2: frozenset({1}),
            0: frozenset({0}),
            3: frozenset({2}),
        }


class TestVectorizedHash:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(-(2**63), 2**63 - 1),
                st.integers(-(2**63), 2**63 - 1),
            ),
            min_size=1,
            max_size=40,
        ),
        workers=st.integers(1, 97),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_matches_scalar_hash(self, pairs, workers, seed):
        set_ids = np.array([s for s, _ in pairs], dtype=np.int64)
        elements = np.array([u for _, u in pairs], dtype=np.int64)
        vectorized = edge_hash_workers_columns(set_ids, elements, workers, seed)
        assert vectorized.tolist() == [
            edge_hash_worker(s, u, workers, seed) for s, u in pairs
        ]
