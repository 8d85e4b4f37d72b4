"""Tests for arrival-order policies: permutation property, model shapes.

Also here: on arbitrary edge lists — repeated, unordered, ids anywhere
in ``int64`` — every order's column path draws and returns exactly
what its per-edge reference in ``orders_reference.py`` does.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orders_reference as reference

from repro.errors import InvalidStreamError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import (
    ORDER_REGISTRY,
    CanonicalOrder,
    ExplicitOrder,
    LargeSetsLastOrder,
    LocallyShuffledOrder,
    RandomOrder,
    RoundRobinInterleaveOrder,
    SetGroupedOrder,
    check_permutation,
    make_order,
)
from repro.types import Edge


@pytest.fixture
def edges(chain_instance):
    return list(chain_instance.edges())


ALL_SEEDED_ORDERS = [
    RandomOrder,
    SetGroupedOrder,
    RoundRobinInterleaveOrder,
    LargeSetsLastOrder,
]


class TestPermutationProperty:
    @pytest.mark.parametrize("order_cls", ALL_SEEDED_ORDERS)
    def test_is_permutation(self, order_cls, edges):
        reordered = order_cls(seed=1).apply(edges)
        check_permutation(edges, reordered)

    def test_canonical_is_identity(self, edges):
        assert CanonicalOrder().apply(edges) == edges

    @pytest.mark.parametrize("order_cls", ALL_SEEDED_ORDERS)
    def test_deterministic_under_seed(self, order_cls, edges):
        assert order_cls(seed=5).apply(edges) == order_cls(seed=5).apply(edges)

    def test_random_order_seeds_differ(self, edges):
        # Not guaranteed in general, but these seeds do differ.
        assert RandomOrder(seed=1).apply(edges) != RandomOrder(seed=2).apply(edges)


class TestSetGroupedOrder:
    def test_sets_contiguous(self, edges):
        reordered = SetGroupedOrder(seed=3).apply(edges)
        seen_closed = set()
        current = None
        for edge in reordered:
            if edge.set_id != current:
                assert edge.set_id not in seen_closed
                if current is not None:
                    seen_closed.add(current)
                current = edge.set_id
        # every set appears
        assert {e.set_id for e in reordered} == {e.set_id for e in edges}


class TestRoundRobin:
    def test_prefix_spreads_sets(self):
        # 3 sets with 3 elements each: the first 3 edges must name 3
        # distinct sets.
        instance = SetCoverInstance(
            9, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}]
        )
        reordered = RoundRobinInterleaveOrder(seed=0).apply(
            list(instance.edges())
        )
        assert len({e.set_id for e in reordered[:3]}) == 3

    def test_unequal_sizes_handled(self):
        instance = SetCoverInstance(4, [{0}, {1, 2, 3}])
        reordered = RoundRobinInterleaveOrder(seed=0).apply(
            list(instance.edges())
        )
        check_permutation(list(instance.edges()), reordered)


class TestLargeSetsLast:
    def test_small_sets_first(self):
        instance = SetCoverInstance(5, [{0, 1, 2, 3}, {4}])
        reordered = LargeSetsLastOrder(seed=0).apply(list(instance.edges()))
        assert reordered[0].set_id == 1
        assert reordered[-1].set_id == 0


class TestLocallyShuffledOrder:
    def test_is_permutation(self, edges):
        from repro.streaming.orders import LocallyShuffledOrder

        for randomness in (0.0, 0.3, 1.0):
            reordered = LocallyShuffledOrder(randomness, seed=1).apply(edges)
            check_permutation(edges, reordered)

    def test_zero_randomness_keeps_round_robin_spread(self, edges):
        from repro.streaming.orders import LocallyShuffledOrder

        # Zero randomness leaves the adversarial round-robin base
        # untouched: the first k edges come from k distinct sets.
        reordered = LocallyShuffledOrder(0.0, seed=2).apply(edges)
        prefix_sets = {e.set_id for e in reordered[:3]}
        assert len(prefix_sets) == 3

    def test_rejects_bad_randomness(self):
        from repro.errors import InvalidStreamError
        from repro.streaming.orders import LocallyShuffledOrder

        with pytest.raises(InvalidStreamError):
            LocallyShuffledOrder(-0.1)
        with pytest.raises(InvalidStreamError):
            LocallyShuffledOrder(1.5)

    def test_deterministic(self, edges):
        from repro.streaming.orders import LocallyShuffledOrder

        a = LocallyShuffledOrder(0.5, seed=4).apply(edges)
        b = LocallyShuffledOrder(0.5, seed=4).apply(edges)
        assert a == b

    def test_full_randomness_differs_from_base(self):
        from repro.streaming.instance import SetCoverInstance
        from repro.streaming.orders import LocallyShuffledOrder

        instance = SetCoverInstance(
            30, [set(range(i, i + 10)) for i in range(0, 21, 2)]
        )
        edges = list(instance.edges())
        zero = LocallyShuffledOrder(0.0, seed=5).apply(edges)
        full = LocallyShuffledOrder(1.0, seed=5).apply(edges)
        assert zero != full


class TestExplicitOrder:
    def test_applies_positions(self, edges):
        reversed_positions = list(range(len(edges)))[::-1]
        reordered = ExplicitOrder(reversed_positions).apply(edges)
        assert reordered == edges[::-1]

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidStreamError):
            ExplicitOrder([0, 0, 1])

    def test_rejects_length_mismatch(self, edges):
        order = ExplicitOrder(list(range(3)))
        with pytest.raises(InvalidStreamError):
            order.apply(edges)

    def test_rejects_non_integer_positions(self):
        with pytest.raises(InvalidStreamError):
            ExplicitOrder([1.0, 0.0])

    def test_accepts_numpy_integer_positions(self, edges):
        positions = np.arange(len(edges))[::-1]
        assert ExplicitOrder(positions).apply(edges) == edges[::-1]


class TestEdgeAdapter:
    @pytest.mark.parametrize("name", sorted(ORDER_REGISTRY))
    def test_rejects_ids_outside_int64(self, name):
        with pytest.raises(InvalidStreamError):
            make_order(name, seed=1).apply([Edge(0, 1), Edge(2**63, 0)])


class TestRegistry:
    def test_all_registered_constructible(self):
        for name in ORDER_REGISTRY:
            order = make_order(name, seed=1)
            assert order.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidStreamError):
            make_order("bogus")


class TestCheckPermutation:
    def test_accepts_shuffle(self, edges):
        check_permutation(edges, list(reversed(edges)))

    def test_rejects_length_change(self, edges):
        with pytest.raises(InvalidStreamError):
            check_permutation(edges, edges[:-1])

    def test_rejects_substitution(self, edges):
        tampered = list(edges)
        tampered[0] = Edge(99, 99)
        with pytest.raises(InvalidStreamError):
            check_permutation(edges, tampered)

    def test_rejects_duplication(self, edges):
        tampered = list(edges)
        tampered[1] = tampered[0]
        with pytest.raises(InvalidStreamError):
            check_permutation(edges, tampered)


#: name -> (order on a generator and a permutation, per-edge reference).
COLUMN_CASES = {
    "canonical": (lambda rng, p: CanonicalOrder(), lambda p: reference.canonical),
    "random": (lambda rng, p: RandomOrder(seed=rng), lambda p: reference.random_order),
    "set-grouped": (
        lambda rng, p: SetGroupedOrder(seed=rng),
        lambda p: reference.set_grouped,
    ),
    "round-robin": (
        lambda rng, p: RoundRobinInterleaveOrder(seed=rng),
        lambda p: reference.round_robin,
    ),
    "large-sets-last": (
        lambda rng, p: LargeSetsLastOrder(seed=rng),
        lambda p: reference.large_sets_last,
    ),
    **{
        f"locally-shuffled-{r}": (
            lambda rng, p, r=r: LocallyShuffledOrder(r, seed=rng),
            lambda p, r=r: reference.locally_shuffled(r),
        )
        for r in (0.0, 0.01, 0.3, 1.0)
    },
    "explicit": (lambda rng, p: ExplicitOrder(p), reference.explicit),
}

int64s = st.integers(-(2**63), 2**63 - 1)


@st.composite
def edge_lists(draw):
    """Edge lists over few set ids (so groups form), some far out in int64."""
    set_ids = draw(st.lists(st.one_of(st.integers(0, 6), int64s), max_size=5))
    if not set_ids:
        return []
    pairs = st.tuples(st.sampled_from(set_ids), st.one_of(st.integers(0, 9), int64s))
    return [Edge(s, u) for s, u in draw(st.lists(pairs, max_size=40))]


class TestColumnsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(
        edges=edge_lists(),
        case=st.sampled_from(sorted(COLUMN_CASES)),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def test_apply_columns_matches_reference(self, edges, case, seed, data):
        make, make_reference = COLUMN_CASES[case]
        positions = data.draw(st.permutations(range(len(edges))))
        expected_rng = random.Random(seed)
        expected = make_reference(positions)(list(edges), expected_rng)

        rng = random.Random(seed)
        set_ids = np.array([s for s, _ in edges], dtype=np.int64)
        elements = np.array([u for _, u in edges], dtype=np.int64)
        got_sets, got_elements = make(rng, positions).apply_columns(set_ids, elements)
        assert got_sets.dtype == got_elements.dtype == np.int64
        assert list(zip(got_sets.tolist(), got_elements.tolist())) == expected
        assert rng.getstate() == expected_rng.getstate()

        rng = random.Random(seed)
        assert make(rng, positions).apply(edges) == expected
        assert rng.getstate() == expected_rng.getstate()
