"""Tests for SetCoverInstance: shape, feasibility, covers, certificates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.solution import verify_certificate
from repro.errors import (
    InfeasibleInstanceError,
    InvalidCoverError,
    InvalidInstanceError,
)
from repro.streaming.instance import SetCoverInstance, instance_from_edges
from repro.types import Edge


class TestConstruction:
    def test_basic_shape(self, tiny_instance):
        assert tiny_instance.n == 4
        assert tiny_instance.m == 3
        assert tiny_instance.num_edges == 6

    def test_rejects_zero_universe(self):
        with pytest.raises(InvalidInstanceError):
            SetCoverInstance(0, [{0}])

    def test_rejects_no_sets(self):
        with pytest.raises(InvalidInstanceError):
            SetCoverInstance(3, [])

    def test_rejects_out_of_range_element(self):
        with pytest.raises(InvalidInstanceError):
            SetCoverInstance(3, [{0, 3}])

    def test_rejects_negative_element(self):
        with pytest.raises(InvalidInstanceError):
            SetCoverInstance(3, [{-1}])

    def test_empty_sets_allowed(self):
        instance = SetCoverInstance(2, [{0, 1}, set()])
        assert instance.set_size(1) == 0

    def test_duplicate_members_collapse(self):
        instance = SetCoverInstance(3, [[0, 0, 1]])
        assert instance.set_size(0) == 2

    def test_name_recorded(self):
        assert SetCoverInstance(1, [{0}], name="x").name == "x"


class TestAccessors:
    def test_set_members(self, tiny_instance):
        assert tiny_instance.set_members(1) == frozenset({1, 2})

    def test_set_members_out_of_range(self, tiny_instance):
        with pytest.raises(InvalidInstanceError):
            tiny_instance.set_members(3)

    @pytest.mark.parametrize("set_id", [-1, -3, -4])
    def test_set_members_rejects_negative_ids(self, tiny_instance, set_id):
        # A negative id must not index from the end of the family.
        with pytest.raises(InvalidInstanceError):
            tiny_instance.set_members(set_id)
        with pytest.raises(InvalidInstanceError):
            tiny_instance.contains(set_id, 3)

    def test_contains(self, tiny_instance):
        assert tiny_instance.contains(0, 1)
        assert not tiny_instance.contains(0, 2)

    def test_sets_tuple(self, tiny_instance):
        assert len(tiny_instance.sets()) == 3

    def test_element_degrees(self, tiny_instance):
        # element 0: set 0 only; 1: sets 0,1; 2: sets 1,2; 3: set 2.
        assert list(tiny_instance.element_degrees()) == [1, 2, 2, 1]

    def test_element_degree_single(self, tiny_instance):
        assert tiny_instance.element_degree(1) == 2

    def test_element_degree_out_of_range(self, tiny_instance):
        with pytest.raises(InvalidInstanceError):
            tiny_instance.element_degree(4)

    def test_covering_sets(self, tiny_instance):
        assert tiny_instance.covering_sets(2) == frozenset({1, 2})

    def test_covering_sets_out_of_range(self, tiny_instance):
        with pytest.raises(InvalidInstanceError):
            tiny_instance.covering_sets(9)


class TestEdges:
    def test_edges_enumeration(self, tiny_instance):
        edges = list(tiny_instance.edges())
        assert len(edges) == 6
        assert edges[0] == Edge(0, 0)
        assert all(isinstance(e, Edge) for e in edges)

    def test_edges_sorted_within_set(self, tiny_instance):
        edges = list(tiny_instance.edges())
        by_set = {}
        for e in edges:
            by_set.setdefault(e.set_id, []).append(e.element)
        for elements in by_set.values():
            assert elements == sorted(elements)

    def test_edges_match_membership(self, chain_instance):
        for set_id, element in chain_instance.edges():
            assert chain_instance.contains(set_id, element)

    def test_edge_mask_matches_contains(self, chain_instance):
        # Every pair over ids one past each end of both ranges, in a
        # shuffled order: in-range pairs agree with contains, the rest
        # are not edges.
        n, m = chain_instance.n, chain_instance.m
        pairs = [(s, u) for s in range(-1, m + 1) for u in range(-1, n + 1)]
        np.random.default_rng(0).shuffle(pairs)
        set_ids = np.array([s for s, _ in pairs], dtype=np.int64)
        elements = np.array([u for _, u in pairs], dtype=np.int64)
        mask = chain_instance.edge_mask(set_ids, elements)
        expected = [
            0 <= s < m and 0 <= u < n and chain_instance.contains(s, u)
            for s, u in pairs
        ]
        assert mask.tolist() == expected
        assert chain_instance.edge_mask(set_ids[:0], elements[:0]).size == 0


class TestFeasibility:
    def test_feasible_instance_validates(self, tiny_instance):
        tiny_instance.validate()

    def test_infeasible_raises(self):
        instance = SetCoverInstance(3, [{0, 1}])
        with pytest.raises(InfeasibleInstanceError):
            instance.validate()

    def test_is_feasible_flags(self):
        assert SetCoverInstance(2, [{0, 1}]).is_feasible()
        assert not SetCoverInstance(2, [{0}]).is_feasible()


class TestCovers:
    def test_is_cover_true(self, tiny_instance):
        assert tiny_instance.is_cover([0, 2])

    def test_is_cover_false(self, tiny_instance):
        assert not tiny_instance.is_cover([0, 1])

    def test_coverage_of(self, tiny_instance):
        assert tiny_instance.coverage_of([1]) == {1, 2}

    def test_uncovered_by(self, tiny_instance):
        assert tiny_instance.uncovered_by([0]) == {2, 3}

    def test_uncovered_by_full_cover_empty(self, tiny_instance):
        assert tiny_instance.uncovered_by([0, 1, 2]) == set()


def _check_certificate(instance, certificate):
    """The one certificate check, over the cover the witnesses name."""
    verify_certificate(instance, set(certificate.values()), certificate, "test")


class TestCertificates:
    def test_valid_certificate(self, tiny_instance):
        _check_certificate(tiny_instance, {0: 0, 1: 0, 2: 2, 3: 2})

    def test_missing_entry_rejected(self, tiny_instance):
        with pytest.raises(InvalidCoverError, match="element 3 has no witness"):
            _check_certificate(tiny_instance, {0: 0, 1: 0, 2: 2})

    def test_wrong_witness_rejected(self, tiny_instance):
        with pytest.raises(
            InvalidCoverError, match="set 2 does not contain element 0"
        ):
            _check_certificate(tiny_instance, {0: 2, 1: 0, 2: 2, 3: 2})

    @pytest.mark.parametrize("witness", [-1, 3])
    def test_out_of_range_witness_rejected(self, tiny_instance, witness):
        with pytest.raises(
            InvalidCoverError, match=f"witness {witness} for element 3 "
        ):
            _check_certificate(tiny_instance, {0: 0, 1: 0, 2: 2, 3: witness})


class TestDerivedInstances:
    def test_restrict_to_sets(self, tiny_instance):
        sub = tiny_instance.restrict_to_sets([0, 2])
        assert sub.m == 2
        assert sub.set_members(1) == frozenset({2, 3})

    def test_with_extra_sets(self, tiny_instance):
        ext = tiny_instance.with_extra_sets([{0, 3}])
        assert ext.m == 4
        assert ext.set_members(3) == frozenset({0, 3})

    def test_original_unmodified(self, tiny_instance):
        tiny_instance.with_extra_sets([{0}])
        assert tiny_instance.m == 3


class TestEquality:
    def test_equal_instances(self):
        a = SetCoverInstance(3, [{0}, {1, 2}])
        b = SetCoverInstance(3, [{0}, {1, 2}])
        assert a == b
        assert hash(a) == hash(b)

    def test_different_sets_unequal(self):
        a = SetCoverInstance(3, [{0}, {1, 2}])
        b = SetCoverInstance(3, [{0}, {1}])
        assert a != b

    def test_different_universe_unequal(self):
        a = SetCoverInstance(3, [{0}])
        b = SetCoverInstance(4, [{0}])
        assert a != b


class TestInstanceFromEdges:
    def test_roundtrip(self, tiny_instance):
        rebuilt = instance_from_edges(
            tiny_instance.n, tiny_instance.m, tiny_instance.edges()
        )
        assert rebuilt == tiny_instance

    def test_missing_sets_become_empty(self):
        instance = instance_from_edges(2, 3, [(0, 0), (0, 1)])
        assert instance.set_size(1) == 0
        assert instance.set_size(2) == 0

    def test_rejects_set_id_beyond_m(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_edges(2, 1, [(1, 0)])

    def test_duplicate_edges_collapse(self):
        instance = instance_from_edges(2, 1, [(0, 0), (0, 0), (0, 1)])
        assert instance.num_edges == 2


class TestNonIntegralIds:
    """Every id must be a Python or numpy integer; anything else is typed."""

    @pytest.mark.parametrize(
        "element", [1.5, 2.0, np.float64(1.0), "3", None, float("nan"), b"1"]
    )
    def test_constructor_rejects_element(self, element):
        with pytest.raises(InvalidInstanceError, match="is not an integer"):
            SetCoverInstance(5, [[element, 0]])

    def test_constructor_rejects_a_string_set(self):
        # A string iterates as characters, which are not ids.
        with pytest.raises(InvalidInstanceError, match="is not an integer"):
            SetCoverInstance(5, ["12"])

    @pytest.mark.parametrize("set_id", [0.5, 1.0, "0", None])
    def test_edges_reject_set_id(self, set_id):
        with pytest.raises(InvalidInstanceError, match="is not an integer"):
            instance_from_edges(5, 2, [(0, 1), (set_id, 0)])

    @pytest.mark.parametrize("element", [0.5, "0", None])
    def test_edges_reject_element(self, element):
        with pytest.raises(InvalidInstanceError, match="is not an integer"):
            instance_from_edges(5, 2, [(0, element)])

    @pytest.mark.parametrize("n", [2.0, "3", None])
    def test_rejects_non_integral_shape(self, n):
        with pytest.raises(InvalidInstanceError, match="must be integers"):
            SetCoverInstance(n, [[0]])
        with pytest.raises(InvalidInstanceError, match="must be integers"):
            instance_from_edges(3, n, [(0, 0)])

    def test_numpy_shape_keys_do_not_wrap(self):
        # A numpy m must not make n * m wrap past the int64 check.
        with pytest.raises(InvalidInstanceError, match="int64"):
            instance_from_edges(2**62, np.int64(3), [(0, 0)])

    def test_negative_set_id_names_the_range(self):
        with pytest.raises(
            InvalidInstanceError, match=r"set id -1 out of range\(0, 2\)"
        ):
            instance_from_edges(5, 2, [(-1, 0)])

    @pytest.mark.parametrize("edge", [(0,), (0, 1, 2)])
    def test_edges_must_be_pairs(self, edge):
        with pytest.raises(InvalidInstanceError, match="pair"):
            instance_from_edges(5, 2, [(0, 1), edge])

    def test_shape_beyond_int64_keys(self):
        # The largest key, (m - 1) * n + n - 1, must fit in int64.
        with pytest.raises(InvalidInstanceError, match="int64"):
            SetCoverInstance(2**62, [[0], [2**62 - 1]])
        widest = SetCoverInstance(2**62, [[2**62 - 1]])
        assert widest.contains(0, 2**62 - 1)


class TestColumnStore:
    def test_edge_columns_are_stored(self, chain_instance):
        first = chain_instance.edge_columns()
        second = chain_instance.edge_columns()
        assert all(a is b for a, b in zip(first, second))
        assert not any(column.flags.writeable for column in first)

    def test_sets_view_reads_slices(self, tiny_instance):
        view = tiny_instance.sets()
        assert list(view) == [{0, 1}, {1, 2}, {2, 3}]
        assert view[-1] == frozenset({2, 3})
        assert view[1:] == (frozenset({1, 2}), frozenset({2, 3}))
        assert all(isinstance(members, frozenset) for members in view)
        with pytest.raises(IndexError):
            view[3]

    def test_contains_out_of_universe_is_false(self, tiny_instance):
        assert not tiny_instance.contains(0, 4)
        assert not tiny_instance.contains(0, -1)
        assert not tiny_instance.contains(0, 2**70)

    def test_readers_agree_with_members(self):
        instance = SetCoverInstance(6, [[5, 1, 1], [], [0, 5, 3], [2]])
        degrees = instance.element_degrees()
        for u in range(instance.n):
            holders = {s for s in range(instance.m) if u in instance.set_members(s)}
            assert instance.covering_sets(u) == holders
            assert degrees[u] == instance.element_degree(u) == len(holders)
        assert instance.coverage_of([0, 3]) == {1, 2, 5}
        assert instance.uncovered_by([0, 3]) == {0, 3, 4}
        with pytest.raises(InfeasibleInstanceError, match=r"1 element\(s\)"):
            instance.validate()

    def test_equality_ignores_name_and_input_order(self):
        a = SetCoverInstance(3, [[2, 0], [1]], name="a")
        b = instance_from_edges(3, 2, [(1, 1), (0, 0), (0, 2)], name="b")
        assert a == b and hash(a) == hash(b)
        assert a != SetCoverInstance(3, [[2, 0], [1], []])

    def test_pickle_round_trip(self, chain_instance):
        import pickle

        restored = pickle.loads(pickle.dumps(chain_instance))
        assert restored == chain_instance
        assert not any(column.flags.writeable for column in restored.edge_columns())
