"""``first_occurrences`` against ``np.unique``, and the run paths built on it.

The scatter-min replaces every ``np.unique(..., return_index=True)`` on
the run path; :class:`TestRunPathsAvoidUnique` fails if one comes back.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_algorithm
from repro.distributed import run_distributed
from repro.distributed.asyncsim import run_distributed_async
from repro.generators.planted import planted_partition_instance
from repro.streaming.orders import RandomOrder
from repro.streaming.stream import stream_of
from repro.types import first_occurrences


@st.composite
def ids_below_bound(draw):
    bound = draw(st.integers(1, 40))
    values = draw(st.lists(st.integers(0, bound - 1), max_size=60))
    return np.array(values, dtype=np.int64), bound


class TestFirstOccurrences:
    @settings(max_examples=300, deadline=None)
    @given(case=ids_below_bound())
    def test_matches_unique(self, case):
        values, bound = case
        distinct, first = first_occurrences(values, bound)
        expected_distinct, expected_first = np.unique(values, return_index=True)
        assert distinct.tolist() == expected_distinct.tolist()
        assert first.tolist() == expected_first.tolist()

    def test_empty(self):
        distinct, first = first_occurrences(np.empty(0, dtype=np.int64), 5)
        assert distinct.tolist() == [] and first.tolist() == []

    def test_bound_one(self):
        distinct, first = first_occurrences(np.zeros(4, dtype=np.int64), 1)
        assert distinct.tolist() == [0] and first.tolist() == [0]


@pytest.fixture
def no_unique(monkeypatch):
    """Fail the test if anything calls ``numpy.unique``."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the run path called np.unique")

    monkeypatch.setattr(np, "unique", forbidden)


@pytest.fixture(scope="module")
def planted():
    return planted_partition_instance(80, 60, opt_size=6, seed=3).instance


class TestRunPathsAvoidUnique:
    @pytest.mark.parametrize(
        "name", ["kk", "adversarial", "random-order", "element-sampling"]
    )
    def test_algorithms(self, planted, no_unique, name):
        stream = stream_of(planted, RandomOrder(seed=2))
        result = make_algorithm(name, planted, seed=4).run(stream)
        assert planted.is_cover(result.cover)

    @pytest.mark.parametrize(
        "options",
        [
            {"coordinator": "chain"},
            {"coordinator": "tree"},
            {"coordinator": "greedy"},
            {"coordinator": "chain", "strategy": "by-element"},
        ],
    )
    def test_run_distributed(self, planted, no_unique, options):
        result = run_distributed(
            planted, 3, order=RandomOrder(seed=5), seed=6, **options
        )
        assert planted.is_cover(result.cover)

    def test_async_tree_over_loopback(self, planted, no_unique):
        result = run_distributed_async(
            planted,
            4,
            coordinator="tree",
            transport="loopback",
            order=RandomOrder(seed=5),
            seed=6,
        )
        assert planted.is_cover(result.cover)
