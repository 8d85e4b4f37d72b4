"""``repro.types.shuffle`` against ``random.Random.shuffle``.

The helper replays the stdlib's ``getrandbits`` draws without its
per-draw Python call, so the permutation and the final RNG state must
be the stdlib's for every length, most of all at the powers of two
where the number of bits per draw changes.
:class:`TestRunPathsAvoidStdlibShuffle` fails if any seeded
permutation under ``src`` goes back to the stdlib method.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.router import deal_round_robin
from repro.faults.injectors import FaultSpec, apply_faults
from repro.generators.hard import layered_hard_instance, needle_in_haystack
from repro.generators.planted import (
    disjoint_blocks_with_noise,
    planted_partition_instance,
)
from repro.generators.random_instances import two_tier_instance
from repro.lowerbound.disjointness import (
    disjoint_instance,
    intersecting_instance,
    random_promise_instance,
)
from repro.lowerbound.family import build_family
from repro.lowerbound.reduction import DisjointnessReduction
from repro.streaming.orders import ORDER_REGISTRY, LocallyShuffledOrder, make_order
from repro.streaming.stream import FrozenEdges
from repro.types import shuffle

#: Lengths where ``(i + 1).bit_length()`` changes, and their neighbours.
BAND_EDGES = sorted({2**b + d for b in range(14) for d in (-1, 0, 1)})

seeds = st.integers(0, 2**64)


def stdlib_shuffled(rng: random.Random, items: list) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


class TestMatchesStdlib:
    @settings(max_examples=200, deadline=None)
    @given(length=st.integers(0, 5000), seed=seeds)
    def test_permutation_and_state(self, length, seed):
        items, rng = list(range(length)), random.Random(seed)
        reference_rng = random.Random(seed)
        expected = stdlib_shuffled(reference_rng, items)
        shuffle(rng, items)
        assert items == expected
        assert rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize("length", BAND_EDGES)
    def test_band_edges(self, length):
        items, rng = list(range(length)), random.Random(length)
        reference_rng = random.Random(length)
        expected = stdlib_shuffled(reference_rng, items)
        shuffle(rng, items)
        assert items == expected
        assert rng.getstate() == reference_rng.getstate()

    @settings(max_examples=100, deadline=None)
    @given(items=st.lists(st.text(max_size=3)), seed=seeds)
    def test_any_items(self, items, seed):
        # The draws depend only on the length; the items are moved, not read.
        expected = stdlib_shuffled(random.Random(seed), items)
        shuffle(random.Random(seed), items)
        assert items == expected

    def test_subclass_delegates_to_its_own_shuffle(self):
        class OwnRandom(random.Random):
            # Overriding random() alone makes the stdlib draw without
            # getrandbits, so the inlined loop would diverge.
            def random(self):
                return super().random()

        items = list(range(300))
        rng, reference_rng = OwnRandom(7), OwnRandom(7)
        expected = stdlib_shuffled(reference_rng, items)
        shuffle(rng, items)
        assert items == expected
        assert rng.getstate() == reference_rng.getstate()
        assert items != stdlib_shuffled(random.Random(7), list(range(300)))


@pytest.fixture
def no_stdlib_shuffle(monkeypatch):
    """Fail the test if anything calls ``random.Random.shuffle``."""

    def forbidden(self, items):
        raise AssertionError("a seeded permutation called random.Random.shuffle")

    monkeypatch.setattr(random.Random, "shuffle", forbidden)


@pytest.mark.usefixtures("no_stdlib_shuffle")
class TestRunPathsAvoidStdlibShuffle:
    @pytest.fixture
    def columns(self):
        set_ids = np.repeat(np.arange(12, dtype=np.int64), np.arange(1, 13))
        return set_ids, np.arange(len(set_ids), dtype=np.int64) % 20

    @pytest.mark.parametrize("name", sorted(ORDER_REGISTRY))
    def test_registered_orders(self, columns, name):
        set_ids, _ = make_order(name, seed=3).apply_columns(*columns)
        assert sorted(set_ids.tolist()) == sorted(columns[0].tolist())

    @pytest.mark.parametrize("randomness", [0.01, 0.3, 1.0])
    def test_locally_shuffled(self, columns, randomness):
        set_ids, _ = LocallyShuffledOrder(randomness, seed=3).apply_columns(*columns)
        assert sorted(set_ids.tolist()) == sorted(columns[0].tolist())

    def test_deal_round_robin(self):
        _, per_worker = deal_round_robin(50, 4, seed=1)
        assert sorted(sum(per_worker, [])) == list(range(50))

    def test_reorder_fault(self, columns):
        edges = FrozenEdges.from_columns(*columns)
        _, _, report = apply_faults(edges, 20, 12, [FaultSpec("reorder", 0.3, 5)])
        assert report.counts["reorder"] == len(columns[0])

    def test_generators(self):
        two_tier_instance(60, 30, 2, seed=1)
        planted_partition_instance(40, 20, opt_size=4, seed=1)
        disjoint_blocks_with_noise(40, 4, 2, seed=1)
        needle_in_haystack(64, 8, seed=1)
        layered_hard_instance(40, 3, 4, seed=1)

    def test_disjointness_builders_and_reduction(self):
        disjoint_instance(16, 4, 3, seed=2).check_promise()
        intersecting_instance(16, 4, 3, seed=2).check_promise()
        random_promise_instance(16, 4, 3, seed=2).check_promise()
        reduction = DisjointnessReduction(build_family(100, 16, 4, seed=1))
        disjointness = disjoint_instance(16, 4, 3, seed=2)
        assert len(reduction.party_edges(disjointness, seed=2)) == 4
