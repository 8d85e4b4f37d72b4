"""Deferred space charges (``DeferredCharges``) against per-item charging.

Algorithm 2 keeps containers that grow one item at a time as plain
``set``/``dict`` objects and lets a :class:`DeferredCharges` settle their
charges in batches.  The property here drives both disciplines through
the same event programs, under arbitrary budgets, inside a real
:class:`StreamingSetCoverAlgorithm` run: the per-item side charges
through :class:`ChargedDict`, :class:`ChargedSet` and ``set_component``,
the deferred side reports each charge's words to one
:class:`DeferredCharges`.  The events cover one-component items whose
components can start in either order (Algorithm 2's ``levels`` and
``covered``), an item with two charges (``marked`` then
``certificate``) and writes to another component, which settle first.
Each event draws one coin before its charge, so the final RNG state
shows where a run stopped.  A second property drives the column form,
:meth:`DeferredCharges.grow_columns`, against one ``set_component``
call per item.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from adversarial_reference import ScalarAdversarialAlgorithm
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adversarial import LowSpaceAdversarialAlgorithm
from repro.core.base import StreamingSetCoverAlgorithm
from repro.core.solution import StreamingResult
from repro.errors import SpaceBudgetExceededError
from repro.generators.random_instances import fixed_size_instance
from repro.streaming.instance import SetCoverInstance
from repro.streaming.orders import RandomOrder
from repro.streaming.space import (
    ChargedDict,
    ChargedSet,
    DeferredCharges,
    SpaceBudget,
    SpaceMeter,
)
from repro.streaming.stream import EdgeStream, ReplayableStream

EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["level", "cover", "witness", "other"]),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=60,
)


class _EventAlgorithm(StreamingSetCoverAlgorithm):
    """Applies a fixed event program; the stream only starts the run."""

    name = "events"

    def __init__(self, events, seed, space_budget) -> None:
        super().__init__(seed=seed, space_budget=space_budget)
        self.events = events

    def _result(self, certificate) -> StreamingResult:
        return StreamingResult(
            cover=frozenset(certificate.values()),
            certificate=dict(certificate),
            space=self._meter.report(),
            algorithm=self.name,
        )


class _PerItem(_EventAlgorithm):
    def _run(self, stream):
        meter = self._meter
        levels = ChargedDict(meter, "levels", 2, charge_initial=False)
        covered = ChargedSet(meter, "covered", 1, charge_initial=False)
        marked, certificate = set(), {}
        self._register_salvage(cover=covered, certificate=certificate)
        for kind, key in self.events:
            self._rng.random()
            if kind == "level":
                levels[key] = levels.get(key, 0) + 1
            elif kind == "cover":
                covered.add(key)
            elif kind == "witness":
                marked.add(key)
                certificate.setdefault(key, key % 3)
                meter.set_component("marked", len(marked))
                meter.set_component("certificate", 2 * len(certificate))
            else:
                meter.add_to_component("other", key)
        return self._result(certificate)


class _Deferred(_EventAlgorithm):
    def _run(self, stream):
        meter = self._meter
        levels, covered, marked, certificate = {}, set(), set(), {}
        self._register_salvage(cover=covered, certificate=certificate)
        charges = DeferredCharges(
            meter, ("levels", "covered", "marked", "certificate")
        )
        for kind, key in self.events:
            self._rng.random()
            if kind == "level":
                grew = key not in levels
                levels[key] = levels.get(key, 0) + 1
                charges.grow(0, 2 * grew)
            elif kind == "cover":
                grew = key not in covered
                covered.add(key)
                charges.grow(1, int(grew))
            elif kind == "witness":
                # Both containers change before either is charged, as
                # in the per-item loop.
                new_mark, new_witness = key not in marked, key not in certificate
                marked.add(key)
                certificate.setdefault(key, key % 3)
                charges.grow(2, int(new_mark))
                charges.grow(3, 2 * new_witness)
            else:
                charges.settle()
                meter.add_to_component("other", key)
        charges.settle()
        return self._result(certificate)


def _outcome(cls, events, budget, seed):
    rng = random.Random(seed)
    algorithm = cls(
        events,
        seed=rng,
        space_budget=None if budget is None else SpaceBudget(budget),
    )
    instance = SetCoverInstance(2, [[0, 1]])
    stream = EdgeStream(instance, [(0, 0), (0, 1)])
    try:
        result = algorithm.run(stream)
    except SpaceBudgetExceededError as error:
        outcome = (
            "raised",
            type(error),
            error.used,
            error.budget,
            error.partial,
        )
    else:
        space = result.space
        outcome = (
            "ran",
            result.cover,
            list(result.certificate.items()),
            space,
            # Order-sensitive: components enter the breakdown in stream order.
            list(space.components_at_peak.items()),
            list(space.component_peaks.items()),
        )
    return outcome, rng.getstate()


class TestDeferredCharges:
    @given(
        events=EVENTS,
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=80)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_to_per_item_charging(self, events, budget, seed):
        assert _outcome(_Deferred, events, budget, seed) == _outcome(
            _PerItem, events, budget, seed
        )

    def test_settle_charges_only_changed_components(self):
        meter = SpaceMeter(budget=SpaceBudget(3))
        charges = DeferredCharges(meter, ("a", "b"))
        charges.grow(1, 2)  # a first grow is charged at once
        charges.grow(0, 0)  # no words: no empty component
        charges.settle()
        assert meter.report().components_at_peak == {"b": 2}
        charges.grow(1, 1)
        assert meter.current_words == 2  # pending until settled
        charges.settle()
        assert meter.current_words == 3
        with pytest.raises(SpaceBudgetExceededError) as raised:
            charges.grow(0, 2)  # crosses the budget: charged at once
        assert raised.value.used == 5
        # A tripped meter is not charged again by a settle with nothing
        # pending.
        charges.settle()
        assert meter.current_words == 5

    def test_crossing_grow_is_charged_after_the_pending_ones(self):
        meter = SpaceMeter(budget=SpaceBudget(6))
        charges = DeferredCharges(meter, ("a", "b"))
        charges.grow(0, 1)
        charges.grow(1, 1)
        charges.grow(1, 2)
        with pytest.raises(SpaceBudgetExceededError) as raised:
            charges.grow(0, 3)
        assert raised.value.used == 7
        assert (meter.component("a"), meter.component("b")) == (4, 3)

    def test_headroom(self):
        assert SpaceMeter().headroom == float("inf")
        meter = SpaceMeter(budget=SpaceBudget(10))
        meter.set_component("a", 4)
        assert meter.headroom == 6


NAMES = ("a", "b", "c", "d")

#: Meter states a run can start from: components absent, present at
#: zero, or already grown.
STARTS = st.fixed_dictionaries(
    {name: st.one_of(st.none(), st.integers(0, 6)) for name in NAMES}
)

#: Batches of ``(component, words)`` items; the deferred side charges
#: each batch with one ``grow_columns`` call and settles after it, and
#: an ``("other", words)`` write between batches settles first.
BATCHES = st.lists(
    st.one_of(
        st.lists(
            st.tuples(st.integers(0, len(NAMES) - 1), st.integers(0, 5)),
            max_size=25,
        ),
        st.integers(0, 6).map(lambda words: ("other", words)),
    ),
    max_size=8,
)


def _started_meter(start, budget):
    meter = SpaceMeter()
    for name in NAMES:
        if start[name] is not None:
            meter.set_component(name, start[name])
    meter.budget = None if budget is None else SpaceBudget(budget)
    return meter


def _meter_outcome(meter, raised):
    space = meter.report()
    return (
        raised,
        space,
        list(space.components_at_peak.items()),
        list(space.component_peaks.items()),
        meter.current_words,
    )


def _per_item(start, batches, budget):
    meter = _started_meter(start, budget)
    item = 0
    try:
        for batch in batches:
            if isinstance(batch, tuple):
                meter.add_to_component("other", batch[1])
                continue
            for index, words in batch:
                if words:
                    name = NAMES[index]
                    meter.set_component(name, meter.component(name) + words)
                item += 1
    except SpaceBudgetExceededError as error:
        return _meter_outcome(meter, (item, error.used, error.budget))
    return _meter_outcome(meter, None)


def _columns(start, batches, budget):
    meter = _started_meter(start, budget)
    if budget is not None and meter.current_words > budget:
        # The per-item side raises at its first positive charge; the
        # column side's budget test is its cumulative sum from here.
        return None
    charges = DeferredCharges(meter, NAMES)
    item = 0
    try:
        for batch in batches:
            if isinstance(batch, tuple):
                charges.settle()
                meter.add_to_component("other", batch[1])
                continue
            indices = np.array([index for index, _ in batch], dtype=np.int64)
            words = np.array([words for _, words in batch], dtype=np.int64)
            stop = charges.grow_columns(indices, words)
            item += stop
            if stop < len(batch):
                charges.grow(int(indices[stop]), int(words[stop]))
                raise AssertionError("the crossing item did not raise")
            charges.settle()
    except SpaceBudgetExceededError as error:
        return _meter_outcome(meter, (item, error.used, error.budget))
    return _meter_outcome(meter, None)


class TestGrowColumns:
    @given(
        start=STARTS,
        batches=BATCHES,
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=120)),
    )
    @settings(max_examples=400, deadline=None)
    def test_equal_to_per_item_set_component(self, start, batches, budget):
        columns = _columns(start, batches, budget)
        if columns is not None:
            assert columns == _per_item(start, batches, budget)

    def test_first_grows_enter_the_breakdown_in_item_order(self):
        meter = SpaceMeter()
        meter.set_component("a", 1)
        charges = DeferredCharges(meter, NAMES)
        stop = charges.grow_columns(
            np.array([0, 3, 1, 0], dtype=np.int64),
            np.array([1, 0, 4, 2], dtype=np.int64),
        )
        assert stop == 4
        # "b"'s first grow charged the pending word of "a", then itself;
        # a zero-word item creates nothing, and the last item pends.
        assert list(meter.report().components_at_peak) == ["a", "b"]
        assert meter.current_words == 6
        charges.settle()
        assert meter.current_words == 8

    def test_stops_before_the_crossing_item(self):
        meter = SpaceMeter(budget=SpaceBudget(10))
        meter.set_component("a", 4)
        charges = DeferredCharges(meter, NAMES)
        indices = np.array([0, 0, 0, 0], dtype=np.int64)
        words = np.array([2, 0, 4, 1], dtype=np.int64)
        assert charges.grow_columns(indices, words) == 3
        assert meter.current_words == 4  # the fitting items pend
        with pytest.raises(SpaceBudgetExceededError) as raised:
            charges.grow(0, 1)
        assert raised.value.used == 11
        assert meter.component("a") == 11


class TestAdversarialBreakdownOrder:
    """Algorithm 2's deferred components enter the meter in stream order.

    ``levels`` and ``covered`` start in either order, depending on
    whether the first promotion or the first hit comes first; the
    scalar oracle charges per item, so its breakdown's key order is the
    stream order (``SpaceReport`` equality alone ignores it).
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("alpha_power", [0.5, 1.0])
    def test_component_order_matches_the_scalar_oracle(self, seed, alpha_power):
        instance = fixed_size_instance(60, 400, 8, seed=seed)
        stream = ReplayableStream(instance, RandomOrder(seed=seed))
        reports = []
        for cls in (LowSpaceAdversarialAlgorithm, ScalarAdversarialAlgorithm):
            algorithm = cls(alpha=2 * math.sqrt(instance.n) ** alpha_power, seed=seed)
            space = algorithm.run(stream.fresh()).space
            reports.append(
                (list(space.components_at_peak), list(space.component_peaks))
            )
        assert reports[0] == reports[1]
