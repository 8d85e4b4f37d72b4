"""Byte-identity of the vectorized KK kernel against its scalar oracle.

``KKAlgorithm`` (registry name ``"kk"``) was rewritten as a chunked
numpy kernel; the original per-edge loop is kept verbatim as the test
oracle ``KKReferenceAlgorithm`` (``tests/kk_reference.py``).  The
contract this module pins is *byte-identity*, not approximate
agreement: for every
(instance, arrival order, seed) the two must produce identical covers,
certificates, diagnostics, space reports and trace JSONL — the kernel
draws its inclusion coins one promotion at a time in stream order from
the same seeded RNG precisely so this holds.

The grids deliberately cross the kernel's internal boundaries: streams
longer than one ``_CHUNK``, inclusion-dense instances whose
post-inclusion rescan windows (sized to the expected gap to the next
inclusion, floored at ``_MIN_WINDOW``) stay small, sparse ones where
the window regrows to full chunks, and level widths of 1–3 where
a set crosses several levels in one window (the kernel ranks only the
edges of sets that can promote).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kk_reference import KKReferenceAlgorithm

from repro.core.kk import _CHUNK, KKAlgorithm, _occurrence_ranks
from repro.core.scaling import Scaling
from repro.errors import SpaceBudgetExceededError
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import fixed_size_instance
from repro.obs.events import COIN_FLIP, LEVEL_PROMOTED, SET_ADMITTED
from repro.obs.tracer import RecordingTracer
from repro.streaming.orders import RandomOrder, RoundRobinInterleaveOrder
from repro.streaming.space import SpaceBudget
from repro.streaming.stream import EdgeStream, FrozenEdges, ReplayableStream


def _run_pair(
    instance, order, seed, traced=False, scaling=None, edges=None, budget=None
):
    """Run both implementations on identical stream views.

    The reference instance's ``name`` is shadowed to ``"kk"`` so the
    result's ``algorithm`` field and the trace attributes — which embed
    the name — compare byte-for-byte rather than differing on the label
    alone.  ``edges`` replaces the ordered stream with the given
    columns (e.g. one holding repeated edges); ``scaling`` and
    ``budget`` go to both constructors.
    """
    if edges is None:
        fresh = ReplayableStream(instance, order).fresh
    else:
        def fresh():
            return EdgeStream(instance, edges, order_name="explicit")
    outputs = []
    for cls in (KKAlgorithm, KKReferenceAlgorithm):
        algorithm = cls(
            scaling=scaling,
            seed=seed,
            space_budget=None if budget is None else SpaceBudget(words=budget),
        )
        if cls is KKReferenceAlgorithm:
            algorithm.name = "kk"
        tracer = RecordingTracer() if traced else None
        if tracer is not None:
            algorithm.set_tracer(tracer)
        result = algorithm.run(fresh())
        if tracer is not None:
            tracer.finish()
        outputs.append((result, tracer))
    return outputs


def _assert_identical(fast, ref):
    assert fast.cover == ref.cover
    assert fast.certificate == ref.certificate
    assert fast.diagnostics == ref.diagnostics
    assert fast.space == ref.space
    assert fast.algorithm == ref.algorithm
    assert fast == ref


class TestRegistry:
    def test_reference_shares_the_contract(self):
        # Same constructor surface: the reference is a drop-in.
        assert issubclass(KKReferenceAlgorithm, KKAlgorithm)


class TestDeterministicGrid:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 13])
    @pytest.mark.parametrize(
        "order_factory", [RandomOrder, RoundRobinInterleaveOrder]
    )
    def test_random_instances(self, seed, order_factory):
        instance = fixed_size_instance(120, 400, set_size=10, seed=seed)
        (fast, _), (ref, _) = _run_pair(
            instance, order_factory(seed=seed + 1), seed
        )
        _assert_identical(fast, ref)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_planted_instances(self, seed):
        planted = planted_partition_instance(80, 300, opt_size=8, seed=seed)
        (fast, _), (ref, _) = _run_pair(
            planted.instance, RandomOrder(seed=seed), seed
        )
        _assert_identical(fast, ref)

    def test_tiny_instance(self, tiny_instance):
        (fast, _), (ref, _) = _run_pair(tiny_instance, RandomOrder(seed=0), 4)
        _assert_identical(fast, ref)

    def test_multi_chunk_stream(self):
        # > one _CHUNK of edges so the chunk boundary (and the window
        # regrowth across it) is genuinely exercised.
        instance = fixed_size_instance(500, 2000, set_size=20, seed=5)
        stream = ReplayableStream(instance, RandomOrder(seed=5))
        assert stream.length > _CHUNK
        (fast, _), (ref, _) = _run_pair(instance, RandomOrder(seed=5), 5)
        _assert_identical(fast, ref)

    def test_inclusion_dense_instance(self):
        # Small universe, many sets: promotions (and inclusions) fire
        # constantly, so the scan restarts on nearly every window — the
        # adversarial regime for the restart discipline.
        instance = fixed_size_instance(40, 600, set_size=6, seed=2)
        (fast, _), (ref, _) = _run_pair(instance, RandomOrder(seed=2), 2)
        _assert_identical(fast, ref)
        assert fast.diagnostics["inclusion_events"] > 0


class TestTraces:
    @pytest.mark.parametrize("seed", [0, 6])
    def test_trace_jsonl_identical(self, seed):
        instance = fixed_size_instance(100, 350, set_size=9, seed=seed)
        (fast, fast_tracer), (ref, ref_tracer) = _run_pair(
            instance, RandomOrder(seed=seed), seed, traced=True
        )
        _assert_identical(fast, ref)
        assert fast_tracer.to_jsonl() == ref_tracer.to_jsonl()
        assert len(fast_tracer.events) > 0

    @pytest.mark.parametrize("seed", [0, 6])
    def test_trace_jsonl_identical_when_sets_reach_levels(self, seed):
        # A small universe makes sets reach KK levels, so the traces
        # compared hold promotions, admissions and coin counts.
        instance = fixed_size_instance(40, 600, set_size=6, seed=seed)
        (fast, fast_tracer), (ref, ref_tracer) = _run_pair(
            instance, RandomOrder(seed=seed), seed, traced=True
        )
        _assert_identical(fast, ref)
        assert fast_tracer.to_jsonl() == ref_tracer.to_jsonl()
        kinds = [event.etype for event in fast_tracer.events]
        assert LEVEL_PROMOTED in kinds
        assert SET_ADMITTED in kinds
        assert sum(event.attrs.get(COIN_FLIP, 0) for event in fast_tracer.events) > 0


class TestSpaceBudget:
    def test_both_exceed_a_tiny_budget(self):
        instance = fixed_size_instance(100, 400, set_size=10, seed=1)
        stream = ReplayableStream(instance, RandomOrder(seed=1))
        for cls in (KKAlgorithm, KKReferenceAlgorithm):
            algorithm = cls(seed=1, space_budget=SpaceBudget(words=4))
            with pytest.raises(SpaceBudgetExceededError):
                algorithm.run(stream.fresh())


class TestOccurrenceRanks:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(0, 50), max_size=200))
    def test_matches_counter_scan(self, values):
        array = np.asarray(values, dtype=np.int64)
        counts = {}
        expected = []
        for value in values:
            counts[value] = counts.get(value, 0) + 1
            expected.append(counts[value])
        # Comparison sort and uint16 radix path, with and without the
        # caller's (longer) positions.
        for bound in (0, 51):
            for positions in (None, np.arange(len(values) + 3, dtype=np.int64)):
                ranks = _occurrence_ranks(array, bound, positions)
                assert ranks.tolist() == expected


class TestPropertyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=90),
        m=st.integers(min_value=10, max_value=150),
        set_size=st.integers(min_value=2, max_value=9),
        instance_seed=st.integers(min_value=0, max_value=2**16),
        order_seed=st.integers(min_value=0, max_value=2**16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_grid(
        self, n, m, set_size, instance_seed, order_seed, seed
    ):
        set_size = min(set_size, n)
        instance = fixed_size_instance(n, m, set_size, seed=instance_seed)
        (fast, _), (ref, _) = _run_pair(
            instance, RandomOrder(seed=order_seed), seed
        )
        _assert_identical(fast, ref)


def _scaling(n, width, sample_constant=1.0):
    """The practical preset with kk's level width pinned to ``width``.

    ``sample_constant`` scales every inclusion probability: tiny values
    leave sets promoting level after level without an inclusion, huge
    ones make every promotion an inclusion (p = 1).
    """
    scaling = dataclasses.replace(
        Scaling.practical(),
        kk_level_width_factor=(width + 0.5) / math.sqrt(n),
        sample_constant=sample_constant,
    )
    assert scaling.kk_level_width(n) == width
    return scaling


def _with_repeats(instance, order, rate, seed):
    """The ordered stream with each edge repeated with probability ``rate``."""
    set_ids, elements = ReplayableStream(instance, order).edges().columns()
    copies = 1 + (np.random.default_rng(seed).random(len(set_ids)) < rate)
    return FrozenEdges.from_columns(
        np.repeat(set_ids, copies), np.repeat(elements, copies)
    )


def _assert_pair(outputs):
    """Full result and trace JSONL identical; returns the kernel's pair."""
    (fast, fast_tracer), (ref, ref_tracer) = outputs
    _assert_identical(fast, ref)
    assert fast_tracer.to_jsonl() == ref_tracer.to_jsonl()
    return fast, fast_tracer


def _count(tracer, kind):
    return sum(event.etype == kind for event in tracer.events)


class TestCandidateRanking:
    """Cells for ranking only the edges that can promote in a window.

    With a level width of 1–3 a set crosses several levels inside one
    window, so every promotion of a candidate set — not only its first
    crossing — must be walked, in stream order, with its coin.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=60),
        m=st.integers(min_value=2, max_value=80),
        set_size=st.integers(min_value=1, max_value=12),
        width=st.integers(min_value=1, max_value=3),
        sample_constant=st.sampled_from([1e-3, 0.05, 1.0, 1e9]),
        repeat_rate=st.sampled_from([0.0, 0.3, 1.0]),
        instance_seed=st.integers(min_value=0, max_value=2**16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_narrow_levels_grid(
        self, n, m, set_size, width, sample_constant, repeat_rate,
        instance_seed, seed,
    ):
        instance = fixed_size_instance(n, m, min(set_size, n), seed=instance_seed)
        order = RandomOrder(seed=instance_seed + 1)
        edges = _with_repeats(instance, order, repeat_rate, seed)
        _assert_pair(
            _run_pair(
                instance, order, seed, traced=True,
                scaling=_scaling(n, width, sample_constant), edges=edges,
            )
        )

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_sets_cross_several_levels_in_one_window(self, width, seed):
        # Rare inclusions keep the first window a whole chunk, in which
        # every set crosses many levels.
        instance = fixed_size_instance(50, 120, set_size=12, seed=seed)
        fast, tracer = _assert_pair(
            _run_pair(
                instance, RandomOrder(seed=seed), seed, traced=True,
                scaling=_scaling(50, width, sample_constant=1e-3),
            )
        )
        assert fast.diagnostics["max_level_reached"] >= 12 // width - 1
        assert _count(tracer, LEVEL_PROMOTED) > 2 * instance.m

    @pytest.mark.parametrize("rate", [0.5, 1.0])
    def test_duplicate_edges(self, rate):
        # A repeated edge counts again while its element is uncovered.
        instance = fixed_size_instance(40, 150, set_size=8, seed=3)
        order = RandomOrder(seed=4)
        fast, tracer = _assert_pair(
            _run_pair(
                instance, order, 5, traced=True,
                scaling=_scaling(40, 2, sample_constant=0.05),
                edges=_with_repeats(instance, order, rate, seed=6),
            )
        )
        assert _count(tracer, SET_ADMITTED) > 0

    @pytest.mark.parametrize("width", [1, 3])
    def test_every_promotion_is_an_inclusion(self, width):
        instance = fixed_size_instance(60, 300, set_size=10, seed=8)
        fast, tracer = _assert_pair(
            _run_pair(
                instance, RandomOrder(seed=8), 8, traced=True,
                scaling=_scaling(60, width, sample_constant=1e9),
            )
        )
        assert _count(tracer, LEVEL_PROMOTED) == _count(tracer, SET_ADMITTED)
        assert fast.diagnostics["inclusion_events"] > 1

    def test_sparse_stream_over_several_chunks(self):
        # Few edges per element and the default width: most windows hold
        # no candidate at all, and the stream spans several chunks.
        instance = fixed_size_instance(3000, 12000, set_size=3, seed=9)
        stream = ReplayableStream(instance, RandomOrder(seed=9))
        assert stream.length > 2 * _CHUNK
        fast, _ = _assert_pair(
            _run_pair(instance, RandomOrder(seed=9), 9, traced=True)
        )
        assert fast.diagnostics["patched_elements"] > 0

    @pytest.mark.parametrize("width", [1, 2])
    def test_budgets(self, width):
        # A budget the run fits in changes nothing; one word less fails
        # both implementations.  (The kernel bills the meter once per
        # chunk, so a budget crossed mid-chunk raises at a different
        # edge than the per-edge reference; only the type is shared.)
        instance = fixed_size_instance(40, 200, set_size=6, seed=10)
        scaling = _scaling(40, width, sample_constant=0.05)
        stream = ReplayableStream(instance, RandomOrder(seed=10))
        peak = KKReferenceAlgorithm(scaling=scaling, seed=10).run(
            stream.fresh()
        ).space.peak_words
        _assert_pair(
            _run_pair(
                instance, None, 10, traced=True, scaling=scaling,
                edges=stream.edges(), budget=peak,
            )
        )
        for words in (peak - 1, peak // 2):
            for cls in (KKAlgorithm, KKReferenceAlgorithm):
                algorithm = cls(
                    scaling=scaling, seed=10, space_budget=SpaceBudget(words=words)
                )
                with pytest.raises(SpaceBudgetExceededError):
                    algorithm.run(stream.fresh())
