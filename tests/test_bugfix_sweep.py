"""Regression tests for the determinism bugfix sweep.

Four small fixes, each with the failure mode it prevents pinned down:
tie-broken dominant components, finite-only coin probabilities,
ceiling-rounded shuffle windows, and bounded non-colliding retry seeds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.distributed.backends import derive_retry_seed
from repro.core.kk import KKAlgorithm
from repro.streaming.orders import LocallyShuffledOrder, check_permutation
from repro.streaming.space import SpaceReport
from repro.types import Edge


class TestDominantComponentTieBreak:
    def test_tie_independent_of_insertion_order(self):
        forward = SpaceReport(
            peak_words=10,
            final_words=10,
            components_at_peak={"alpha": 5, "beta": 5},
        )
        backward = SpaceReport(
            peak_words=10,
            final_words=10,
            components_at_peak={"beta": 5, "alpha": 5},
        )
        assert forward.dominant_component() == backward.dominant_component()
        # The deterministic (size, name) key picks the lexicographic
        # minimum — the same tie-break CommReport.busiest_link uses.
        assert forward.dominant_component() == "alpha"

    def test_strict_max_still_wins(self):
        report = SpaceReport(
            peak_words=9,
            final_words=9,
            components_at_peak={"zzz": 2, "aaa": 7},
        )
        assert report.dominant_component() == "aaa"

    def test_empty_is_none(self):
        assert SpaceReport(peak_words=0, final_words=0).dominant_component() is None


class TestCoinRejectsNonFinite:
    @pytest.mark.parametrize(
        "probability", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_raises(self, probability):
        algorithm = KKAlgorithm(seed=0)
        with pytest.raises(ValueError, match="finite"):
            algorithm._coin(probability)

    def test_boundaries_still_deterministic(self):
        algorithm = KKAlgorithm(seed=0)
        assert algorithm._coin(1.0) is True
        assert algorithm._coin(1.5) is True
        assert algorithm._coin(0.0) is False
        assert algorithm._coin(-0.5) is False

    def test_interior_probability_draws(self):
        algorithm = KKAlgorithm(seed=0)
        draws = {algorithm._coin(0.5) for _ in range(64)}
        assert draws == {True, False}


class TestLocallyShuffledWindow:
    def _edges(self, count=10):
        return [Edge(i, i % 3) for i in range(count)]

    def test_small_positive_randomness_perturbs_short_stream(self):
        # With floor rounding, randomness=0.11 on 10 edges collapsed to
        # window 1 — a no-op shuffle for *every* seed.  Ceiling gives
        # window 2, so some seed must transpose at least one pair.
        edges = self._edges(10)
        baselines = [
            LocallyShuffledOrder(0.0, seed=seed).apply(edges)
            for seed in range(10)
        ]
        shuffled = [
            LocallyShuffledOrder(0.11, seed=seed).apply(edges)
            for seed in range(10)
        ]
        assert any(a != b for a, b in zip(baselines, shuffled))

    def test_output_is_a_permutation(self):
        edges = self._edges(10)
        for randomness in (0.11, 0.5, 1.0):
            out = LocallyShuffledOrder(randomness, seed=3).apply(edges)
            check_permutation(edges, out)

    def test_zero_randomness_is_pure_base(self):
        edges = self._edges(10)
        assert LocallyShuffledOrder(0.0, seed=7).apply(
            edges
        ) == LocallyShuffledOrder(0.0, seed=7).apply(edges)


class TestDeriveRetrySeed:
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        attempt=st.integers(min_value=0, max_value=16),
    )
    def test_derived_seed_in_range(self, seed, attempt):
        derived = derive_retry_seed(seed, attempt)
        assert 0 <= derived < 2**63

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_first_retry_reuses_spec_seed(self, seed):
        assert derive_retry_seed(seed, 0) == seed
        assert derive_retry_seed(seed, 1) == seed

    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        attempt=st.integers(min_value=2, max_value=16),
    )
    def test_later_retries_differ_from_spec_seed(self, seed, attempt):
        assert derive_retry_seed(seed, attempt) != seed

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_later_retries_differ_across_attempts(self, seed):
        derived = [derive_retry_seed(seed, attempt) for attempt in (2, 3, 4, 5)]
        assert len(set(derived)) == len(derived)

    def test_deterministic(self):
        assert derive_retry_seed(12345, 3) == derive_retry_seed(12345, 3)

    def test_zero_seed_attempt_without_mixing_still_differs(self):
        # seed=0, attempt whose remix happens to land on 0 must be bumped
        # by the collision guard, never returned as-is.
        for attempt in range(2, 64):
            assert derive_retry_seed(0, attempt) != 0
