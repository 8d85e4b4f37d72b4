"""Tests for the multi-pass fractional MWU algorithm and rounding."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ConfigurationError, InvalidCoverError
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance
from repro.multipass import (
    FractionalCover,
    FractionalMWU,
    randomized_rounding,
)
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import RandomOrder
from repro.streaming.stream import ReplayableStream


class TestFractionalCover:
    def test_value(self):
        cover = FractionalCover({0: 0.5, 3: 1.5})
        assert cover.value == 2.0

    def test_coverage_of(self, tiny_instance):
        cover = FractionalCover({0: 0.5, 1: 0.25})
        # element 1 is in sets 0 and 1.
        assert cover.coverage_of(tiny_instance, 1) == pytest.approx(0.75)

    def test_min_coverage(self, tiny_instance):
        cover = FractionalCover({0: 1.0, 1: 1.0, 2: 1.0})
        # element 0 only in set 0 -> coverage 1.
        assert cover.min_coverage(tiny_instance) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_min_coverage_matches_per_element_sums(self, seed):
        # The per-element coverage_of loop is the reference.
        instance = fixed_size_instance(60, 90, set_size=7, seed=seed)
        rng = random.Random(seed)
        cover = FractionalCover(
            {s: rng.random() for s in rng.sample(range(90), 40)}
        )
        expected = min(cover.coverage_of(instance, u) for u in range(instance.n))
        assert cover.min_coverage(instance) == pytest.approx(expected, rel=1e-12)

    def test_scaling_to_feasible(self, tiny_instance):
        cover = FractionalCover({0: 0.5, 2: 0.5})
        scaled = cover.scaled_to_feasible(tiny_instance)
        assert scaled.min_coverage(tiny_instance) >= 1.0 - 1e-9
        assert scaled.value == pytest.approx(2.0)

    def test_scaling_rejects_zero_floor(self, tiny_instance):
        cover = FractionalCover({0: 1.0})  # elements 2, 3 untouched
        with pytest.raises(InvalidCoverError):
            cover.scaled_to_feasible(tiny_instance)

    def test_already_feasible_untouched(self, tiny_instance):
        cover = FractionalCover({0: 2.0, 2: 2.0})
        scaled = cover.scaled_to_feasible(tiny_instance)
        assert scaled.value == pytest.approx(4.0)


class TestFractionalMWU:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            FractionalMWU(increments=0)
        with pytest.raises(ConfigurationError):
            FractionalMWU(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            FractionalMWU(epsilon=1.0)

    def test_fractional_solution_feasible(self):
        instance = fixed_size_instance(30, 60, set_size=6, seed=1)
        replayable = ReplayableStream(instance, RandomOrder(seed=1))
        algorithm = FractionalMWU(increments=20, seed=1)
        fractional = algorithm.solve_fractional(replayable)
        assert fractional.min_coverage(instance) >= 1.0 - 1e-9

    def test_integral_run_valid(self):
        instance = fixed_size_instance(30, 60, set_size=6, seed=2)
        replayable = ReplayableStream(instance, RandomOrder(seed=2))
        result = FractionalMWU(increments=16, seed=2).run(replayable)
        result.verify(instance)

    def test_few_increments_still_valid_via_patching(self):
        instance = fixed_size_instance(40, 80, set_size=4, seed=3)
        replayable = ReplayableStream(instance, RandomOrder(seed=3))
        result = FractionalMWU(increments=2, seed=3).run(replayable)
        result.verify(instance)

    def test_diagnostics(self):
        instance = fixed_size_instance(20, 40, set_size=5, seed=4)
        replayable = ReplayableStream(instance, RandomOrder(seed=4))
        result = FractionalMWU(increments=8, seed=4).run(replayable)
        for key in ("increments", "epsilon", "fractional_value", "support_size"):
            assert key in result.diagnostics

    def test_fractional_value_reasonable(self):
        """Scaled value stays within O(log n/ε) of the planted optimum."""
        planted = planted_partition_instance(60, 120, opt_size=6, seed=5)
        replayable = ReplayableStream(planted.instance, RandomOrder(seed=5))
        algorithm = FractionalMWU(increments=40, epsilon=0.5, seed=5)
        fractional = algorithm.solve_fractional(replayable)
        bound = planted.opt_upper_bound * (math.log(60) / 0.5 + 2)
        assert fractional.value <= bound

    def test_deterministic(self):
        instance = fixed_size_instance(20, 40, set_size=5, seed=6)
        replayable = ReplayableStream(instance, RandomOrder(seed=6))
        a = FractionalMWU(increments=8, seed=6).run(replayable)
        b = FractionalMWU(increments=8, seed=6).run(replayable)
        assert a.cover == b.cover


class TestRandomizedRounding:
    def test_rounds_to_cover(self, tiny_instance):
        fractional = FractionalCover({0: 1.0, 2: 1.0})
        cover = randomized_rounding(fractional, tiny_instance, seed=1)
        assert tiny_instance.is_cover(cover)

    def test_patches_missed_elements(self, tiny_instance):
        # Support misses element 3 entirely with low probability draws;
        # patching guarantees a cover regardless.
        fractional = FractionalCover({0: 1.0})
        cover = randomized_rounding(fractional, tiny_instance, seed=2)
        assert tiny_instance.is_cover(cover)

    def test_rejects_empty(self, tiny_instance):
        with pytest.raises(InvalidCoverError):
            randomized_rounding(FractionalCover(), tiny_instance, seed=3)

    def test_expected_size_scales_with_value(self, star_instance):
        fractional = FractionalCover({0: 1.0})
        cover = randomized_rounding(fractional, star_instance, seed=4)
        assert cover == {0}

    def test_deterministic_under_seed(self, tiny_instance):
        fractional = FractionalCover({0: 1.0, 1: 0.5, 2: 1.0})
        a = randomized_rounding(fractional, tiny_instance, seed=5)
        b = randomized_rounding(fractional, tiny_instance, seed=5)
        assert a == b
