"""Tests for the Scaling constant pack: formulas, presets, clamps."""

from __future__ import annotations

import math

import pytest

from repro.core.scaling import Scaling
from repro.errors import ConfigurationError


class TestPresets:
    def test_paper_preset_name(self):
        assert Scaling.paper().name == "paper"

    def test_practical_preset_name(self):
        assert Scaling.practical().name == "practical"

    def test_practical_preset_is_one_shared_object(self):
        assert Scaling.practical() is Scaling.practical()
        assert Scaling.practical() == Scaling(
            name="practical",
            sample_constant=1.0,
            special_threshold_log_exp=0.0,
            special_threshold_factor=2.0,
            detect_log_exp=1.0,
            subepoch_log_exp=0.0,
            subepoch_factor=2.0,
            sample_log_exp=1.0,
            min_tracking_mark=3.0,
            min_algorithms=1,
            min_epochs=2,
            min_subepochs=1,
            max_epochs=4,
            budget_derived_algorithms=True,
            phase_budget_fraction=0.5,
        )

    def test_presets_frozen(self):
        with pytest.raises(Exception):
            Scaling.paper().name = "x"

    def test_with_overrides(self):
        scaled = Scaling.practical().with_overrides(sample_constant=2.0)
        assert scaled.sample_constant == 2.0
        assert scaled.name == "practical"


class TestValidation:
    def test_rejects_nonpositive_sample_constant(self):
        with pytest.raises(ConfigurationError):
            Scaling(sample_constant=0)

    def test_rejects_nonpositive_threshold_factor(self):
        with pytest.raises(ConfigurationError):
            Scaling(special_threshold_factor=0)

    def test_rejects_bad_min_counts(self):
        with pytest.raises(ConfigurationError):
            Scaling(min_epochs=0)

    def test_rejects_bad_budget_fraction(self):
        with pytest.raises(ConfigurationError):
            Scaling(phase_budget_fraction=0.0)
        with pytest.raises(ConfigurationError):
            Scaling(phase_budget_fraction=1.5)

    def test_rejects_bad_max_epochs(self):
        with pytest.raises(ConfigurationError):
            Scaling(max_epochs=0)


class TestPaperFormulas:
    """The paper preset reproduces the listings' expressions."""

    def test_special_threshold_is_j_log6(self):
        scaling = Scaling.paper()
        m = 2**16  # log2 m = 16
        assert scaling.special_threshold(3, m) == pytest.approx(3 * 16**6)

    def test_epoch0_probability(self):
        scaling = Scaling.paper()
        n, m = 100, 2**10
        assert scaling.epoch0_sample_probability(n, m) == pytest.approx(
            math.sqrt(100) * 10 / m
        )

    def test_special_probability_doubles(self):
        scaling = Scaling.paper()
        p1 = scaling.special_sample_probability(1, 100, 10**6)
        p2 = scaling.special_sample_probability(2, 100, 10**6)
        assert p2 == pytest.approx(2 * p1)

    def test_tracking_probability(self):
        scaling = Scaling.paper()
        assert scaling.tracking_sample_probability(3, 100) == pytest.approx(
            8 / 100
        )

    def test_tracking_probability_capped(self):
        assert Scaling.paper().tracking_sample_probability(30, 100) == 1.0

    def test_subepoch_length_formula(self):
        scaling = Scaling.paper()
        n, m, big_n = 256, 2**12, 10**6
        expected = (2**3) * big_n / (n * 12)
        assert scaling.subepoch_length(3, n, m, big_n) == int(expected)

    def test_num_algorithms_paper_formula_positive_regime(self):
        scaling = Scaling.paper()
        # Huge n so the formula is positive: K = 0.5*log2(n) - 3*log2(log2 m) - 2
        n = 2**40
        m = 2**20
        expected = int(0.5 * 40 - 3 * math.log2(20) - 2)
        assert scaling.num_algorithms(n, m) == expected

    def test_num_algorithms_clamped_small_n(self):
        assert Scaling.paper().num_algorithms(100, 10**4) == 1

    def test_num_epochs_formula(self):
        scaling = Scaling.paper()
        n, m = 2**8, 2**20
        assert scaling.num_epochs(n, m) == 20 - 4


class TestProbabilityCaps:
    @pytest.mark.parametrize("j", [1, 5, 20, 60])
    def test_special_probability_capped(self, j):
        p = Scaling.practical().special_sample_probability(j, 100, 1000)
        assert 0.0 <= p <= 1.0

    def test_epoch0_probability_capped(self):
        assert Scaling.practical().epoch0_sample_probability(10**6, 10) == 1.0

    def test_kk_inclusion_capped(self):
        assert Scaling.practical().kk_inclusion_probability(100, 100, 10) == 1.0


class TestPracticalDerivations:
    def test_max_epochs_clamp(self):
        scaling = Scaling.practical()
        assert scaling.num_epochs(100, 10**8) <= scaling.max_epochs

    def test_budget_derived_algorithms_grow_with_n(self):
        scaling = Scaling.practical()
        small = scaling.num_algorithms(100, 10**4)
        large = scaling.num_algorithms(10**6, 10**12)
        assert large > small

    def test_min_algorithms_floor(self):
        assert Scaling.practical().num_algorithms(4, 16) >= 1

    def test_tracking_mark_threshold_floor(self):
        scaling = Scaling.practical()
        # Tiny m: the paper value is << 1, the floor bites.
        assert scaling.tracking_mark_threshold(1, 100, 1000) == pytest.approx(
            scaling.min_tracking_mark
        )

    def test_tracking_mark_threshold_paper_value_dominates(self):
        scaling = Scaling.practical()
        value = scaling.tracking_mark_threshold(10, 10, 10**9)
        assert value > scaling.min_tracking_mark


class TestDetection:
    def test_detection_window_bounded_by_stream(self):
        scaling = Scaling.practical()
        assert scaling.detection_window(100, 10, 50) <= 50

    def test_detection_window_positive(self):
        assert Scaling.practical().detection_window(4, 10**6, 100) >= 1

    def test_high_degree_cutoff(self):
        scaling = Scaling.practical()
        assert scaling.high_degree_cutoff(100, 1000) == pytest.approx(
            1.1 * 1000 / 10
        )

    def test_detection_mark_count_at_least_one(self):
        assert Scaling.practical().detection_mark_count(100, 10**6, 10**4) >= 1.0

    def test_mark_count_below_cutoff_expectation(self):
        scaling = Scaling.practical()
        n, m, big_n = 400, 10**5, 10**6
        window = scaling.detection_window(n, m, big_n)
        expected_at_cutoff = (
            scaling.high_degree_cutoff(n, m) * window / big_n
        )
        mark = scaling.detection_mark_count(n, m, big_n)
        if expected_at_cutoff > 1.5:
            assert mark < expected_at_cutoff


class TestKKParameters:
    def test_level_width_sqrt_n(self):
        assert Scaling.paper().kk_level_width(100) == 10

    def test_level_width_min_one(self):
        assert Scaling.paper().kk_level_width(1) == 1

    def test_inclusion_probability_doubles(self):
        scaling = Scaling.paper()
        p1 = scaling.kk_inclusion_probability(1, 100, 10**5)
        p2 = scaling.kk_inclusion_probability(2, 100, 10**5)
        assert p2 == pytest.approx(2 * p1)

    def test_inclusion_probability_formula(self):
        scaling = Scaling.paper()
        assert scaling.kk_inclusion_probability(3, 100, 10**5) == pytest.approx(
            8 * 10 / 10**5
        )
