"""Tests for the element-sampling algorithm (Table 1 row 1)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedy_reference
from repro.core.element_sampling import ElementSamplingAlgorithm
from repro.core.solution import greedy_picks
from repro.errors import ConfigurationError
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance
from repro.streaming.orders import RandomOrder, RoundRobinInterleaveOrder
from repro.streaming.stream import ReplayableStream, stream_of


class TestCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_cover(self, seed):
        instance = fixed_size_instance(60, 200, set_size=8, seed=seed)
        result = ElementSamplingAlgorithm(alpha=10, seed=seed).run(
            stream_of(instance, RandomOrder(seed=seed))
        )
        result.verify(instance)

    def test_valid_on_adversarial_order(self):
        instance = fixed_size_instance(60, 200, set_size=8, seed=3)
        result = ElementSamplingAlgorithm(alpha=10, seed=3).run(
            stream_of(instance, RoundRobinInterleaveOrder(seed=3))
        )
        result.verify(instance)

    def test_tiny_instance(self, tiny_instance):
        result = ElementSamplingAlgorithm(alpha=2, seed=4).run(
            stream_of(tiny_instance)
        )
        result.verify(tiny_instance)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            ElementSamplingAlgorithm(alpha=0.5)

    def test_rejects_bad_constant(self):
        with pytest.raises(ConfigurationError):
            ElementSamplingAlgorithm(alpha=4, sample_constant=0)


class TestSampleProbability:
    def test_formula(self):
        algorithm = ElementSamplingAlgorithm(alpha=20, sample_constant=1.0)
        assert algorithm.sample_probability(2**10) == pytest.approx(10 / 20)

    def test_capped_at_one(self):
        algorithm = ElementSamplingAlgorithm(alpha=2)
        assert algorithm.sample_probability(2**20) == 1.0

    def test_shrinks_with_alpha(self):
        small = ElementSamplingAlgorithm(alpha=50).sample_probability(2**12)
        large = ElementSamplingAlgorithm(alpha=100).sample_probability(2**12)
        assert large == pytest.approx(small / 2)


class TestSpaceScaling:
    def test_projection_space_shrinks_with_alpha(self):
        instance = fixed_size_instance(200, 1000, set_size=20, seed=5)
        replayable = ReplayableStream(instance, RandomOrder(seed=5))
        small = ElementSamplingAlgorithm(alpha=20, seed=5).run(
            replayable.fresh()
        )
        large = ElementSamplingAlgorithm(alpha=80, seed=5).run(
            replayable.fresh()
        )
        assert (
            large.space.peak_of("projections")
            < small.space.peak_of("projections") / 2
        )

    def test_full_storage_when_p_one(self):
        instance = fixed_size_instance(50, 100, set_size=10, seed=6)
        result = ElementSamplingAlgorithm(alpha=1, seed=6).run(
            stream_of(instance, RandomOrder(seed=6))
        )
        # p = 1: every distinct edge is stored (2 words each).
        assert (
            result.space.peak_of("projections") == 2 * instance.num_edges
        )


class TestQuality:
    def test_small_alpha_near_greedy(self):
        from repro.baselines.greedy import greedy_cover_size

        planted = planted_partition_instance(100, 500, opt_size=10, seed=7)
        result = ElementSamplingAlgorithm(alpha=1, seed=7).run(
            stream_of(planted.instance, RandomOrder(seed=7))
        )
        # alpha = 1 -> p = 1 -> offline greedy on the full instance.
        assert result.cover_size <= 2 * greedy_cover_size(planted.instance)

    def test_cover_within_alpha_opt_band(self):
        planted = planted_partition_instance(100, 800, opt_size=10, seed=8)
        alpha = 8.0
        result = ElementSamplingAlgorithm(alpha=alpha, seed=8).run(
            stream_of(planted.instance, RoundRobinInterleaveOrder(seed=8))
        )
        log_m = math.log2(planted.instance.m)
        assert result.cover_size <= alpha * log_m * planted.opt_upper_bound

    def test_cover_grows_with_alpha(self):
        planted = planted_partition_instance(200, 1000, opt_size=10, seed=9)
        replayable = ReplayableStream(planted.instance, RandomOrder(seed=9))
        small = ElementSamplingAlgorithm(
            alpha=10, sample_constant=0.5, seed=9
        ).run(replayable.fresh())
        large = ElementSamplingAlgorithm(
            alpha=80, sample_constant=0.5, seed=9
        ).run(replayable.fresh())
        assert large.cover_size >= small.cover_size


class TestDiagnostics:
    def test_keys_present(self):
        instance = fixed_size_instance(50, 100, set_size=10, seed=10)
        result = ElementSamplingAlgorithm(alpha=5, seed=10).run(
            stream_of(instance, RandomOrder(seed=10))
        )
        for key in (
            "alpha",
            "sample_probability",
            "sampled_elements",
            "stored_projection_edges",
            "greedy_picks",
            "cached_certifications",
            "patched_elements",
        ):
            assert key in result.diagnostics

    def test_deterministic_under_seed(self):
        instance = fixed_size_instance(50, 100, set_size=10, seed=11)
        replayable = ReplayableStream(instance, RandomOrder(seed=11))
        a = ElementSamplingAlgorithm(alpha=12, seed=11).run(replayable.fresh())
        b = ElementSamplingAlgorithm(alpha=12, seed=11).run(replayable.fresh())
        assert a.cover == b.cover


class TestGreedyPicksEquivalence:
    """The vectorized offline greedy must replay the dict-scan oracle.

    :func:`~repro.core.solution.greedy_picks` is the one plain greedy
    behind this algorithm's offline phase, ``greedy_cover`` and the
    greedy merge coordinator.  Byte-identity includes the tie-break rule
    (earliest-stored set wins) and the exact pick sequence, gains and
    covered lists, not just the final cover.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_vectorized_matches_reference(self, data):
        # A small element pool makes tied gains and shared members
        # common; far-out ids exercise the mask sizing.
        element = st.one_of(st.integers(0, 12), st.integers(0, 10**5))
        # Arbitrary, unsorted set ids: insertion order is the tie-break,
        # so ids must not accidentally encode it.
        set_ids = data.draw(
            st.lists(st.integers(0, 10**9), unique=True, max_size=14),
            label="set_ids",
        )
        projections = {}
        for set_id in set_ids:
            if projections and data.draw(st.booleans(), label="copy"):
                # Identical membership under another id: a certain tie.
                members = data.draw(
                    st.sampled_from(list(projections.values())), label="copied"
                )
            else:
                members = data.draw(
                    st.frozensets(element, max_size=10), label="members"
                )
            projections[set_id] = members
        uncovered = data.draw(
            st.frozensets(element, max_size=30), label="uncovered"
        )
        fast = list(greedy_picks(projections, uncovered))
        reference = list(greedy_reference.greedy_picks(projections, uncovered))
        assert fast == reference

    def test_empty_inputs(self):
        assert list(greedy_picks({}, {1, 2})) == []
        assert list(greedy_picks({1: {2}}, set())) == []
        assert list(greedy_picks({1: set(), 2: {3}}, {4})) == []
