"""Tests for Algorithm 2 (Theorem 4): levels, inclusion, space."""

from __future__ import annotations

import math
import random

import pytest
from adversarial_reference import ScalarAdversarialAlgorithm
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adversarial import LowSpaceAdversarialAlgorithm
from repro.errors import ConfigurationError, ReproError
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance
from repro.obs.tracer import RecordingTracer
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import RandomOrder, RoundRobinInterleaveOrder
from repro.streaming.space import SpaceBudget
from repro.streaming.stream import EdgeStream, ReplayableStream, stream_of


def run_on(instance, alpha, seed=1, order=None):
    order = order if order is not None else RandomOrder(seed=seed)
    algorithm = LowSpaceAdversarialAlgorithm(alpha=alpha, seed=seed)
    return algorithm.run(stream_of(instance, order))


class TestCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_cover(self, seed):
        instance = fixed_size_instance(64, 256, set_size=8, seed=seed)
        result = run_on(instance, alpha=16, seed=seed)
        result.verify(instance)

    def test_valid_on_adversarial_order(self):
        instance = fixed_size_instance(64, 256, set_size=8, seed=3)
        result = run_on(
            instance, alpha=16, seed=3, order=RoundRobinInterleaveOrder(seed=3)
        )
        result.verify(instance)

    def test_tiny_instance(self, tiny_instance):
        result = run_on(tiny_instance, alpha=2, seed=4)
        result.verify(tiny_instance)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ConfigurationError):
            LowSpaceAdversarialAlgorithm(alpha=0.5)


class TestInclusionProbability:
    def test_p0_is_alpha_over_m(self):
        algorithm = LowSpaceAdversarialAlgorithm(alpha=20)
        assert algorithm.inclusion_probability(0, 100, 1000) == pytest.approx(
            20 / 1000
        )

    def test_level_formula(self):
        """p_ℓ = α^(2ℓ+1)/(m·nˡ) — line 20 of Algorithm 2."""
        alpha, n, m = 20.0, 100, 10**6
        algorithm = LowSpaceAdversarialAlgorithm(alpha=alpha)
        for level in (1, 2, 3):
            expected = alpha ** (2 * level + 1) / (m * n**level)
            assert algorithm.inclusion_probability(level, n, m) == pytest.approx(
                min(1.0, expected), rel=1e-9
            )

    def test_geometric_ratio_alpha2_over_n(self):
        """p_ℓ / p_{ℓ-1} = α²/n, the (α²/n)ˡ·p₀ form."""
        alpha, n, m = 30.0, 144, 10**7
        algorithm = LowSpaceAdversarialAlgorithm(alpha=alpha)
        p1 = algorithm.inclusion_probability(1, n, m)
        p2 = algorithm.inclusion_probability(2, n, m)
        assert p2 / p1 == pytest.approx(alpha * alpha / n)

    def test_capped_at_one(self):
        algorithm = LowSpaceAdversarialAlgorithm(alpha=1000)
        assert algorithm.inclusion_probability(5, 10, 10) == 1.0

    def test_no_overflow_at_huge_level(self):
        algorithm = LowSpaceAdversarialAlgorithm(alpha=50)
        p = algorithm.inclusion_probability(500, 100, 10**6)
        assert 0.0 <= p <= 1.0


class TestSpaceScaling:
    def test_level_map_shrinks_with_alpha(self):
        """Doubling α should shrink the level map ~4x (Õ(m·n/α²))."""
        instance = fixed_size_instance(100, 2000, set_size=10, seed=5)
        replayable = ReplayableStream(instance, RandomOrder(seed=5))
        small = LowSpaceAdversarialAlgorithm(alpha=20, seed=5).run(
            replayable.fresh()
        )
        big = LowSpaceAdversarialAlgorithm(alpha=80, seed=5).run(
            replayable.fresh()
        )
        ratio = small.diagnostics["level_map_peak"] / max(
            1.0, big.diagnostics["level_map_peak"]
        )
        assert ratio > 4  # theory predicts 16; leave stochastic headroom

    def test_promotion_rate_is_one_over_alpha(self):
        """Promotions over uncovered-edge arrivals ≈ 1/α."""
        instance = fixed_size_instance(200, 500, set_size=10, seed=6)
        alpha = 25.0
        result = run_on(instance, alpha=alpha, seed=6)
        promotions = result.diagnostics["promotions"]
        # Uncovered arrivals <= total edges; promotions <= N/alpha ish.
        assert promotions <= 2 * instance.num_edges / alpha
        assert promotions > 0


class TestQuality:
    def test_cover_grows_with_alpha(self):
        planted = planted_partition_instance(100, 1000, opt_size=10, seed=7)
        replayable = ReplayableStream(planted.instance, RandomOrder(seed=7))
        small = LowSpaceAdversarialAlgorithm(alpha=20, seed=7).run(
            replayable.fresh()
        )
        big = LowSpaceAdversarialAlgorithm(alpha=160, seed=7).run(
            replayable.fresh()
        )
        assert big.cover_size >= small.cover_size

    def test_ratio_bounded_by_alpha_logm(self):
        n = 100
        alpha = 2 * math.sqrt(n)
        planted = planted_partition_instance(n, 800, opt_size=10, seed=8)
        result = run_on(planted.instance, alpha=alpha, seed=8)
        ratio = result.cover_size / planted.opt_upper_bound
        assert ratio <= alpha * math.log2(planted.instance.m)


class TestMechanism:
    def test_d0_size_near_alpha(self):
        instance = fixed_size_instance(100, 4000, set_size=10, seed=9)
        result = run_on(instance, alpha=40, seed=9)
        # E|D0| = alpha; allow wide stochastic band.
        assert 10 <= result.diagnostics["d0_size"] <= 120

    def test_diagnostics_present(self):
        instance = fixed_size_instance(50, 100, set_size=5, seed=10)
        result = run_on(instance, alpha=14, seed=10)
        for key in ("alpha", "promotions", "max_level", "level_map_peak"):
            assert key in result.diagnostics

    def test_deterministic_under_seed(self):
        instance = fixed_size_instance(50, 100, set_size=5, seed=11)
        replayable = ReplayableStream(instance, RandomOrder(seed=11))
        a = LowSpaceAdversarialAlgorithm(alpha=14, seed=11).run(
            replayable.fresh()
        )
        b = LowSpaceAdversarialAlgorithm(alpha=14, seed=11).run(
            replayable.fresh()
        )
        assert a.cover == b.cover


# -- the scalar oracle ----------------------------------------------------

#: α choices named by their relation to n; α = 1 lands every Coin(1/α)
#: without a draw.
ALPHAS = {
    "1": lambda n: 1.0,
    "2sqrtn": lambda n: 2 * math.sqrt(n),
    "n": lambda n: float(n),
}


def _traced_run(cls, instance, edges, alpha, seed, budget_words):
    """Everything one run leaves behind, as comparable values."""
    rng = random.Random(seed)
    budget = SpaceBudget(budget_words, context="oracle") if budget_words else None
    algorithm = cls(alpha=alpha, seed=rng, space_budget=budget)
    tracer = RecordingTracer()
    algorithm.set_tracer(tracer)
    try:
        result = algorithm.run(EdgeStream(instance, edges, order_name="oracle"))
        outcome = (
            result.cover,
            list(result.certificate.items()),
            result.space,
            result.diagnostics,
        )
    except ReproError as error:
        outcome = (type(error).__name__, str(error), error.partial)
    tracer.finish()
    return outcome, tracer.to_jsonl(), rng.getstate()


@st.composite
def streams(draw):
    """A small instance (feasible or not) and any arrival of its edges.

    The arrival may repeat edges and may stop early, so runs end in a
    cover, an unpatchable element or, under a budget, a crossing.
    """
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=1, max_value=25))
    sets = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        for _ in range(m)
    ]
    instance = SetCoverInstance(n, sets, name="oracle")
    edges = list(instance.edges())
    edges = draw(st.permutations(edges)) if edges else edges
    repeats = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    edges = edges + repeats
    cut = draw(st.integers(min_value=0, max_value=len(edges)))
    return instance, edges[: len(edges) - cut // 4]


class TestScalarOracle:
    """The tape-driven pass equals the per-edge ``_coin`` loop exactly."""

    @given(
        case=streams(),
        alpha=st.sampled_from(sorted(ALPHAS)),
        seed=st.integers(min_value=0, max_value=2**32),
        budget_words=st.sampled_from([None, 8, 20, 45, 90]),
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_streams(self, case, alpha, seed, budget_words):
        instance, edges = case
        value = ALPHAS[alpha](instance.n)
        fast, ref = (
            _traced_run(cls, instance, edges, value, seed, budget_words)
            for cls in (LowSpaceAdversarialAlgorithm, ScalarAdversarialAlgorithm)
        )
        assert fast == ref

    @pytest.mark.parametrize("budget_words", [None, 300, 1500])
    @pytest.mark.parametrize("alpha", [*sorted(ALPHAS), "3.7"])
    def test_streams_spanning_chunks(self, alpha, budget_words):
        # ~24k edges: three chunks, many rescan windows.
        instance = fixed_size_instance(300, 1200, set_size=20, seed=8)
        edges = RandomOrder(seed=2).apply(list(instance.edges()))
        value = ALPHAS[alpha](instance.n) if alpha in ALPHAS else float(alpha)
        for seed in (0, 1):
            fast, ref = (
                _traced_run(cls, instance, edges, value, seed, budget_words)
                for cls in (LowSpaceAdversarialAlgorithm, ScalarAdversarialAlgorithm)
            )
            assert fast == ref
