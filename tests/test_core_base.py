"""Tests for the shared algorithm base machinery."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_algorithm, registered_algorithms
from repro.core.adversarial import LowSpaceAdversarialAlgorithm
from repro.core.base import (
    CoinTape,
    FirstSetStore,
    StreamingSetCoverAlgorithm,
    uniforms,
)
from repro.core.element_sampling import ElementSamplingAlgorithm
from repro.core.kk import KKAlgorithm
from repro.core.solution import StreamingResult
from repro.errors import (
    ConfigurationError,
    InvalidCoverError,
    InvalidStreamError,
    SpaceBudgetExceededError,
)
from repro.streaming.instance import SetCoverInstance
from repro.streaming.space import SpaceBudget, SpaceMeter
from repro.streaming.stream import EdgeStream, stream_of


class TestFirstSetStore:
    def test_records_first_only(self):
        store = FirstSetStore(SpaceMeter())
        store.observe(5, 0)
        store.observe(7, 0)
        assert store.get(0) == 5

    def test_get_missing_none(self):
        store = FirstSetStore(SpaceMeter())
        assert store.get(3) is None

    def test_len(self):
        store = FirstSetStore(SpaceMeter())
        store.observe(1, 0)
        store.observe(2, 1)
        store.observe(3, 1)
        assert len(store) == 2

    def test_space_charged(self):
        meter = SpaceMeter()
        store = FirstSetStore(meter)
        store.observe(1, 0)
        store.observe(2, 1)
        assert meter.component(FirstSetStore.COMPONENT) == 4  # 2 words each

    def test_patch_completes_cover(self):
        store = FirstSetStore(SpaceMeter())
        store.observe(1, 0)
        store.observe(2, 1)
        certificate = {0: 9}
        cover = {9}
        patched = store.patch(certificate, cover, universe_size=2)
        assert patched == 1
        assert certificate[1] == 2
        assert cover == {9, 2}

    def test_patch_raises_for_unseen_element(self):
        store = FirstSetStore(SpaceMeter())
        store.observe(1, 0)
        with pytest.raises(InvalidCoverError):
            store.patch({}, set(), universe_size=2)

    def test_patch_idempotent_on_complete(self):
        store = FirstSetStore(SpaceMeter())
        certificate = {0: 4}
        cover = {4}
        assert store.patch(certificate, cover, universe_size=1) == 0


class CountingMeter(SpaceMeter):
    """A meter that counts its ``set_component`` calls."""

    __slots__ = ("calls",)

    def __init__(self, budget=None) -> None:
        super().__init__(budget=budget)
        self.calls = 0

    def set_component(self, name, words) -> None:
        self.calls += 1
        super().set_component(name, words)


class TestFirstSetStoreBatching:
    def test_observe_columns_charges_once_per_chunk(self):
        # A chunk of k new elements is one meter update, not k: the
        # columnar path must never fall back to per-element charging.
        meter = CountingMeter()
        store = FirstSetStore(meter, universe_size=50)
        elements = np.array([3, 1, 3, 7, 1, 9, 0, 42], dtype=np.int64)
        set_ids = np.arange(len(elements), dtype=np.int64) + 100
        store.observe_columns(set_ids, elements)
        assert meter.calls <= 1
        assert dict(store.mapping) == {0: 106, 1: 101, 3: 100, 7: 103, 9: 105, 42: 107}
        assert list(store.mapping) == [0, 1, 3, 7, 9, 42]
        assert meter.component(FirstSetStore.COMPONENT) == 12
        # A chunk of known elements does not touch the meter at all.
        store.observe_columns(set_ids, elements)
        assert meter.calls <= 1

    def test_budget_error_mid_chunk_keeps_store_consistent(self):
        # The third element's 2 words cross a 5-word budget: the store
        # keeps elements 0..2 and treats exactly those as seen, so a
        # later chunk records only element 3, as per-edge observe would.
        meter = SpaceMeter(budget=SpaceBudget(5))
        store = FirstSetStore(meter, universe_size=10)
        elements = np.array([0, 1, 2, 3], dtype=np.int64)
        with pytest.raises(SpaceBudgetExceededError) as caught:
            store.observe_columns(elements + 100, elements)
        assert caught.value.used == 6
        assert dict(store.mapping) == {0: 100, 1: 101, 2: 102}
        meter.budget = None
        store.observe_columns(elements + 200, elements)
        assert dict(store.mapping) == {0: 100, 1: 101, 2: 102, 3: 203}

    def test_patch_fills_lower_elements_before_raising(self):
        store = FirstSetStore(SpaceMeter())
        for set_id, element in [(5, 0), (6, 1), (7, 3)]:
            store.observe(set_id, element)
        certificate = {1: 9}
        cover = {9}
        with pytest.raises(InvalidCoverError, match="element 2 "):
            store.patch(certificate, cover, universe_size=5)
        assert certificate == {1: 9, 0: 5}
        assert cover == {9, 5}

    def test_patch_ignores_out_of_range_certificate_keys(self):
        store = FirstSetStore(SpaceMeter())
        store.observe(4, 0)
        certificate = {-1: 8, 7: 8}
        cover = set()
        assert store.patch(certificate, cover, universe_size=1) == 1
        assert certificate[0] == 4 and cover == {4}


class _ConstantAlgorithm(StreamingSetCoverAlgorithm):
    """Test double: covers everything with the first set seen per element."""

    name = "constant"

    def _run(self, stream):
        from repro.core.base import FirstSetStore

        store = FirstSetStore(self._meter)
        for set_id, element in stream:
            store.observe(set_id, element)
        certificate = {}
        cover = set()
        store.patch(certificate, cover, stream.instance.n)
        return StreamingResult(
            cover=frozenset(cover),
            certificate=certificate,
            space=self._meter.report(),
        )


class TestBaseContract:
    def test_run_sets_algorithm_name(self, tiny_instance):
        result = _ConstantAlgorithm(seed=1).run(stream_of(tiny_instance))
        assert result.algorithm == "constant"

    def test_meter_reset_between_runs(self, tiny_instance):
        algorithm = _ConstantAlgorithm(seed=1)
        first = algorithm.run(stream_of(tiny_instance))
        second = algorithm.run(stream_of(tiny_instance))
        assert first.space.peak_words == second.space.peak_words

    def test_coin_extremes(self):
        algorithm = _ConstantAlgorithm(seed=1)
        assert algorithm._coin(1.0) is True
        assert algorithm._coin(0.0) is False
        assert algorithm._coin(1.5) is True
        assert algorithm._coin(-0.5) is False

    def test_coin_seeded(self):
        a = _ConstantAlgorithm(seed=9)
        b = _ConstantAlgorithm(seed=9)
        assert [a._coin(0.5) for _ in range(20)] == [
            b._coin(0.5) for _ in range(20)
        ]

    def test_repr(self):
        assert "constant" in repr(_ConstantAlgorithm(seed=1))

    def test_abstract_run_raises(self, tiny_instance):
        algorithm = StreamingSetCoverAlgorithm(seed=1)
        with pytest.raises(NotImplementedError):
            algorithm.run(stream_of(tiny_instance))


class TestRegistry:
    @pytest.mark.parametrize("name", ["no-such-algorithm", "kk-reference"])
    def test_unknown_name_rejected(self, name):
        instance = SetCoverInstance(3, [{0, 1, 2}, {0}])
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            make_algorithm(name, instance)


class TestOutOfRangeEdges:
    """A run rejects an edge outside its instance before the pass starts."""

    @pytest.mark.parametrize("name", registered_algorithms())
    @pytest.mark.parametrize(
        "bad", [(0, -1), (0, 3), (-1, 0), (2, 0)], ids=["u-1", "u3", "s-1", "s2"]
    )
    def test_typed_error(self, name, bad):
        instance = SetCoverInstance(3, [{0, 1, 2}, {0}])
        edges = list(stream_of(instance).peek_all()) + [bad]
        stream = EdgeStream(instance, edges)
        with pytest.raises(InvalidStreamError, match=f"edge {len(edges) - 1} "):
            make_algorithm(name, instance, seed=1).run(stream)
        assert not stream.consumed


# -- exact batched draws ------------------------------------------------

#: Ways to move a generator before the batch: whole doubles, or single
#: 32-bit words, which leave the twister at an odd word offset.
ADVANCES = st.lists(st.sampled_from(["random", "word"]), max_size=6)


def _seeded(seed: int, advances) -> random.Random:
    rng = random.Random(seed)
    for step in advances:
        if step == "random":
            rng.random()
        else:
            rng.getrandbits(32)
    return rng


class _Boom(Exception):
    pass


class TestUniforms:
    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        advances=ADVANCES,
        k=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_draws_and_state(self, seed, advances, k):
        batched = _seeded(seed, advances)
        scalar = _seeded(seed, advances)
        draws = uniforms(batched, k)
        assert draws.dtype == np.float64
        assert draws.tolist() == [scalar.random() for _ in range(k)]
        assert batched.getstate() == scalar.getstate()

    def test_negative_count_draws_nothing(self):
        rng = random.Random(3)
        state = rng.getstate()
        assert len(uniforms(rng, -1)) == 0
        assert rng.getstate() == state


TAPE_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["peek", "advance"]), st.integers(0, 400)),
        st.tuples(st.sampled_from(["commit", "raise"]), st.just(0)),
    ),
    max_size=25,
)


class TestCoinTape:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        advances=ADVANCES,
        ops=TAPE_OPS,
        block=st.sampled_from([8, CoinTape.BLOCK]),
    )
    @settings(max_examples=80, deadline=None)
    def test_program_leaves_rng_after_consumed_draws(
        self, seed, advances, ops, block
    ):
        rng = _seeded(seed, advances)
        oracle = _seeded(seed, advances)
        values = [oracle.random() for _ in range(25 * 400)]
        consumed = 0

        def after(count):
            expected = _seeded(seed, advances)
            for _ in range(count):
                expected.random()
            return expected.getstate()

        tape = CoinTape(rng)
        # A small block refills often, so commits land between marks.
        tape.BLOCK = block
        try:
            try:
                for op, k in ops:
                    if op == "peek":
                        assert tape.peek(k).tolist() == values[consumed : consumed + k]
                    elif op == "advance":
                        tape.advance(k)
                        consumed += k
                    elif op == "commit":
                        tape.commit()
                        assert rng.getstate() == after(consumed)
                    else:
                        raise _Boom
            finally:
                tape.commit()
        except _Boom:
            pass
        assert rng.getstate() == after(consumed)

    def test_untouched_tape_leaves_rng_alone(self):
        rng = random.Random(5)
        state = rng.getstate()
        CoinTape(rng).commit()
        assert rng.getstate() == state


class _OverriddenRandom(random.Random):
    def random(self):
        return 0.5


class TestConstructionBoundaries:
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), True])
    @pytest.mark.parametrize(
        "cls", [LowSpaceAdversarialAlgorithm, ElementSamplingAlgorithm]
    )
    def test_rejects_non_finite_or_bool_alpha(self, cls, alpha):
        with pytest.raises(ConfigurationError, match="alpha"):
            cls(alpha=alpha)

    @pytest.mark.parametrize(
        "seed",
        [random.SystemRandom(), _OverriddenRandom(4)],
        ids=lambda seed: type(seed).__name__,
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda seed: KKAlgorithm(seed=seed),
            lambda seed: LowSpaceAdversarialAlgorithm(alpha=4, seed=seed),
            lambda seed: _ConstantAlgorithm(seed=seed),
        ],
        ids=["kk", "adversarial", "base"],
    )
    def test_rejects_random_subclass_seed(self, build, seed):
        with pytest.raises(ConfigurationError, match="random.Random"):
            build(seed)

    def test_accepts_plain_random(self, tiny_instance):
        rng = random.Random(7)
        _ConstantAlgorithm(seed=rng).run(stream_of(tiny_instance))
