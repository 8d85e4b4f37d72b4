"""Equivalence of the O(1) SpaceMeter against the original re-summing one.

The meter was rewritten to maintain ``current_words`` incrementally and
to defer the breakdown-at-peak copy (see ``repro/streaming/space.py``).
Every report field must stay byte-identical: the invariant benchmarks
compare space numbers across PRs, so even a one-word drift is a bug.
This module keeps a verbatim copy of the original implementation as the
oracle and drives both meters through random charge/set/release traces,
including budget-enforced traces where the *ordering* (apply the update,
record the peak, then raise) is part of the contract.

A characterization grid at the end pins every registry algorithm that
keeps a first-set store (the per-element witness map every algorithm
patches its cover from) across space budgets and truncated streams:
the result, or the budget error's ``used`` and the salvaged
:class:`~repro.errors.PartialState`.  Its literals were recorded from
the code that charged the store one element at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kk_reference import KKReferenceAlgorithm

from repro.baselines.trivial import FirstFitAlgorithm
from repro.core.adversarial import LowSpaceAdversarialAlgorithm
from repro.core.element_sampling import ElementSamplingAlgorithm
from repro.core.kk import KKAlgorithm
from repro.core.random_order import RandomOrderAlgorithm
from repro.errors import ReproError, SpaceBudgetExceededError
from repro.generators.planted import planted_partition_instance
from repro.generators.random_instances import uniform_instance
from repro.streaming.orders import RandomOrder
from repro.streaming.space import ChargedDict, ChargedSet, SpaceBudget, SpaceMeter
from repro.streaming.stream import EdgeStream


class LegacySpaceMeter:
    """The original meter: re-sums components and copies at every peak."""

    def __init__(self, budget: Optional[SpaceBudget] = None) -> None:
        self._components: Dict[str, int] = {}
        self._anonymous = 0
        self._peak = 0
        self._components_at_peak: Dict[str, int] = {}
        self._component_peaks: Dict[str, int] = {}
        self.budget = budget

    def set_component(self, name: str, words: int) -> None:
        if words < 0:
            raise ValueError(f"component size must be >= 0, got {words} for {name!r}")
        self._components[name] = words
        if words > self._component_peaks.get(name, 0):
            self._component_peaks[name] = words
        self._after_update()

    def add_to_component(self, name: str, delta: int) -> None:
        new = self._components.get(name, 0) + delta
        if new < 0:
            raise ValueError(f"component {name!r} would become negative ({new} words)")
        self._components[name] = new
        if new > self._component_peaks.get(name, 0):
            self._component_peaks[name] = new
        self._after_update()

    def charge(self, words: int) -> None:
        if words < 0:
            raise ValueError("use release() to free space")
        self._anonymous += words
        self._after_update()

    def release(self, words: int) -> None:
        if words < 0:
            raise ValueError("use charge() to add space")
        if words > self._anonymous:
            raise ValueError("releasing more than charged")
        self._anonymous -= words
        self._after_update()

    @property
    def current_words(self) -> int:
        return self._anonymous + sum(self._components.values())

    @property
    def peak_words(self) -> int:
        return self._peak

    def snapshot(self):
        return (
            self._peak,
            self.current_words,
            dict(self._components_at_peak),
            dict(self._component_peaks),
        )

    def _after_update(self) -> None:
        current = self.current_words
        if current > self._peak:
            self._peak = current
            self._components_at_peak = dict(self._components)
            if self._anonymous:
                self._components_at_peak["<anonymous>"] = self._anonymous
        if self.budget is not None and current > self.budget.words:
            raise SpaceBudgetExceededError(
                used=current, budget=self.budget.words, context=self.budget.context
            )


NAMES = ["sol", "marked", "tracked", "counters", "cover"]

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"), st.sampled_from(NAMES), st.integers(0, 40)
        ),
        st.tuples(
            st.just("add"), st.sampled_from(NAMES), st.integers(-15, 15)
        ),
        st.tuples(st.just("charge"), st.integers(0, 25)),
        st.tuples(st.just("release"), st.integers(0, 25)),
    ),
    min_size=0,
    max_size=60,
)


def apply_op(meter, op):
    kind = op[0]
    if kind == "set":
        meter.set_component(op[1], op[2])
    elif kind == "add":
        meter.add_to_component(op[1], op[2])
    elif kind == "charge":
        meter.charge(op[1])
    else:
        meter.release(op[1])


def new_snapshot(meter: SpaceMeter):
    report = meter.report()
    return (
        report.peak_words,
        report.final_words,
        report.components_at_peak,
        report.component_peaks,
    )


class TestTraceEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(ops=OPS)
    def test_unbudgeted_traces_match(self, ops):
        legacy = LegacySpaceMeter()
        current = SpaceMeter()
        for op in ops:
            legacy_error = current_error = None
            try:
                apply_op(legacy, op)
            except ValueError as error:
                legacy_error = str(error)
            try:
                apply_op(current, op)
            except ValueError as error:
                current_error = str(error)
            assert (legacy_error is None) == (current_error is None)
            assert legacy.current_words == current.current_words
            assert legacy.peak_words == current.peak_words
        assert legacy.snapshot() == new_snapshot(current)

    @settings(max_examples=300, deadline=None)
    @given(ops=OPS, budget_words=st.integers(1, 60))
    def test_budgeted_traces_raise_identically(self, ops, budget_words):
        legacy = LegacySpaceMeter(budget=SpaceBudget(words=budget_words, context="t"))
        current = SpaceMeter(budget=SpaceBudget(words=budget_words, context="t"))
        legacy_stop = current_stop = None
        legacy_used = current_used = None
        for index, op in enumerate(ops):
            if legacy_stop is None:
                try:
                    apply_op(legacy, op)
                except SpaceBudgetExceededError as error:
                    legacy_stop, legacy_used = index, error.used
                except ValueError:
                    break
            if current_stop is None:
                try:
                    apply_op(current, op)
                except SpaceBudgetExceededError as error:
                    current_stop, current_used = index, error.used
                except ValueError:
                    break
            if legacy_stop is not None or current_stop is not None:
                break
        # Same op raises, with the same reported usage, and the update
        # was applied before raising in both implementations.
        assert legacy_stop == current_stop
        assert legacy_used == current_used
        assert legacy.current_words == current.current_words
        assert legacy.snapshot() == new_snapshot(current)

    def test_budget_checked_on_no_op_update(self):
        # The legacy meter checked the budget on every update, even one
        # that left the total unchanged; the rewrite must too.
        legacy = LegacySpaceMeter(budget=SpaceBudget(words=5))
        current = SpaceMeter(budget=SpaceBudget(words=5))
        for meter in (legacy, current):
            with pytest.raises(SpaceBudgetExceededError):
                meter.set_component("a", 9)  # applied, then raised
            with pytest.raises(SpaceBudgetExceededError):
                meter.set_component("a", 9)  # no-op value, still over budget


class TestChargedContainersMatchHandCharging:
    def test_charged_set_trace(self):
        legacy = LegacySpaceMeter()
        hand = set()
        current = SpaceMeter()
        charged = ChargedSet(current, "c", words_per_entry=1)
        legacy.set_component("c", 0)
        for item, action in [(1, "add"), (1, "add"), (2, "add"), (1, "discard")]:
            getattr(charged, action)(item)
            getattr(hand, action)(item)
            legacy.set_component("c", len(hand))
        assert legacy.snapshot() == new_snapshot(current)

    def test_charged_dict_trace(self):
        legacy = LegacySpaceMeter()
        hand = {}
        current = SpaceMeter()
        charged = ChargedDict(current, "d", words_per_entry=2)
        legacy.set_component("d", 0)
        for key, value in [(1, 10), (1, 11), (2, 5), (3, 1)]:
            charged[key] = value
            hand[key] = value
            legacy.set_component("d", 2 * len(hand))
        del charged[2]
        del hand[2]
        legacy.set_component("d", 2 * len(hand))
        assert charged == hand
        assert legacy.snapshot() == new_snapshot(current)


def _run_batches(
    kind, words_per_entry, initial, drop, other_words, slack, batches, form, per_item
):
    """Drive one charged container through ``batches``.

    ``per_item`` applies each batch as one ``d[k] = v`` / ``s.add(x)``
    per item, the oracle; otherwise as one :meth:`update` call.  Returns
    the contents, the report, and ``(batch index, used)`` of the budget
    error, if one fired.
    """
    meter = SpaceMeter()
    meter.set_component("other", other_words)
    if kind == "dict":
        container = ChargedDict(
            meter, "c", words_per_entry=words_per_entry, charge_initial=False
        )
        for key in initial:
            container[key] = -key
    else:
        container = ChargedSet(
            meter, "c", words_per_entry=words_per_entry, charge_initial=False
        )
        for key in initial:
            container.add(key)
    # Release a few entries so the recorded peak is not the current state.
    for key in list(container)[:drop]:
        if kind == "dict":
            del container[key]
        else:
            container.discard(key)
    if slack is not None:
        meter.budget = SpaceBudget(meter.current_words + slack + 1, context="t")
    failure = None
    for index, pairs in enumerate(batches):
        try:
            if per_item:
                if kind == "dict":
                    source = dict(pairs).items() if form == "mapping" else pairs
                    for key, value in source:
                        container[key] = value
                else:
                    for key, _ in pairs:
                        container.add(key)
            elif kind == "dict":
                if form == "mapping":
                    container.update(dict(pairs))
                elif form == "generator":
                    container.update(pair for pair in pairs)
                else:
                    container.update(pairs)
            elif form == "generator":
                container.update(key for key, _ in pairs)
            else:
                container.update([key for key, _ in pairs])
        except SpaceBudgetExceededError as error:
            failure = (index, error.used)
            break
    contents = list(container.items()) if kind == "dict" else sorted(container)
    return contents, new_snapshot(meter), failure


class TestBatchUpdateMatchesPerItemCharging:
    """``update`` charges exactly as one insertion per item would.

    Batches mix duplicate keys, keys already present and fresh keys,
    arrive as lists, generators or mappings, and run with and without
    a budget.  Under a budget the batch must stop at the crossing item:
    the same contents in the same insertion order, the same report,
    and the same ``error.used``.
    """

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(["dict", "set"]),
        words_per_entry=st.integers(1, 3),
        initial=st.lists(st.integers(0, 30), max_size=12),
        drop=st.integers(0, 4),
        other_words=st.integers(0, 10),
        slack=st.one_of(st.none(), st.integers(0, 40)),
        batches=st.lists(
            st.lists(
                st.tuples(st.integers(0, 40), st.integers(0, 5)), max_size=15
            ),
            max_size=4,
        ),
        form=st.sampled_from(["list", "generator", "mapping"]),
    )
    def test_batches_match_per_item(
        self, kind, words_per_entry, initial, drop, other_words, slack, batches, form
    ):
        args = (kind, words_per_entry, initial, drop, other_words, slack, batches, form)
        batched = _run_batches(*args, per_item=False)
        assert batched == _run_batches(*args, per_item=True)

    @pytest.mark.parametrize("kind", ["dict", "set"])
    def test_budget_crossing_batch_stops_at_crossing_item(self, kind):
        # Seven words of budget, ten new two-word entries (one word for
        # the set): the batch stops where per-item charging stops.
        words = 2 if kind == "dict" else 1
        meter = SpaceMeter(budget=SpaceBudget(7))
        if kind == "dict":
            container = ChargedDict(meter, "c", words_per_entry=2)
            batch = [(key, key) for key in range(10)]
        else:
            container = ChargedSet(meter, "c", words_per_entry=1)
            batch = list(range(10))
        with pytest.raises(SpaceBudgetExceededError) as caught:
            container.update(batch)
        assert caught.value.used == 8
        assert len(container) == 8 // words
        assert meter.current_words == 8


#: (method, args) for every size-changing method of ``set``.
SET_MUTATORS = [
    ("add", (9,)),
    ("discard", (1,)),
    ("remove", (1,)),
    ("pop", ()),
    ("clear", ()),
    ("update", ([7, 8], {9})),
    ("difference_update", ([1], {2})),
    ("intersection_update", ({1, 2, 9},)),
    ("symmetric_difference_update", ([1, 2, 9, 9],)),
    ("__ior__", ({7, 8},)),
    ("__isub__", ({1, 2},)),
    ("__iand__", ({1, 9},)),
    ("__ixor__", ({1, 2, 9},)),
]

#: (method, args) for every size-changing method of ``dict``.
DICT_MUTATORS = [
    ("__setitem__", (9, 0)),
    ("__delitem__", (1,)),
    ("setdefault", (9,)),
    ("pop", (1,)),
    ("popitem", ()),
    ("clear", ()),
    ("update", ({9: 0, 1: 5},)),
    ("__ior__", ([(9, 0), (8, 1)],)),
]


class TestEveryMutatorCharges:
    """Each size-changing method, in-place operators included, recharges."""

    @pytest.mark.parametrize(
        "kind,method,args",
        [("set", method, args) for method, args in SET_MUTATORS]
        + [("dict", method, args) for method, args in DICT_MUTATORS],
    )
    def test_component_tracks_size(self, kind, method, args):
        meter = SpaceMeter()
        if kind == "set":
            plain = {1, 2, 3}
            charged = ChargedSet(meter, "c", words_per_entry=3, iterable=plain)
        else:
            plain = {1: 10, 2: 20, 3: 30}
            charged = ChargedDict(meter, "c", words_per_entry=3, mapping=plain)
        expected = getattr(plain, method)(*args)
        returned = getattr(charged, method)(*args)
        if method.startswith("__i"):
            assert returned is charged
        else:
            assert returned == expected
        assert charged == plain
        assert len(charged) != 3  # every case changes the size
        assert meter.component("c") == 3 * len(charged)
        report = meter.report()
        assert report.peak_words == max(9, 3 * len(charged))
        assert report.component_peaks["c"] == report.peak_words

    def test_every_mutator_is_overridden(self):
        for cls, mutators in (
            (ChargedSet, SET_MUTATORS),
            (ChargedDict, DICT_MUTATORS),
        ):
            for method, _ in mutators:
                assert method in vars(cls), (cls.__name__, method)

    def test_in_place_operators_reject_non_sets(self):
        charged = ChargedSet(SpaceMeter(), "c")
        with pytest.raises(TypeError):
            charged |= [1, 2]


# -- characterization grid: the first-set store under budgets ------------

#: Registry name -> constructor with the registry's shape defaults and a
#: space budget (the registry builders take no budget); ``kk-reference``
#: is the scalar kk oracle of ``tests/kk_reference.py``.
GRID_ALGORITHMS = {
    "kk": lambda inst, seed, budget: KKAlgorithm(seed=seed, space_budget=budget),
    "kk-reference": lambda inst, seed, budget: KKReferenceAlgorithm(
        seed=seed, space_budget=budget
    ),
    "adversarial": lambda inst, seed, budget: LowSpaceAdversarialAlgorithm(
        alpha=2 * math.sqrt(inst.n), seed=seed, space_budget=budget
    ),
    "random-order": lambda inst, seed, budget: RandomOrderAlgorithm(
        seed=seed, space_budget=budget
    ),
    "element-sampling": lambda inst, seed, budget: ElementSamplingAlgorithm(
        alpha=math.sqrt(inst.n), seed=seed, space_budget=budget
    ),
    "first-fit": lambda inst, seed, budget: FirstFitAlgorithm(
        seed=seed, space_budget=budget
    ),
}

GRID_BUDGETS = (None, 40, 97, 150, 400)
GRID_CUTS = ("full", "third")


def _grid_instances():
    # The third instance makes kk-reference cross budget 400 inside
    # patching, where the cover's charge decides where the certificate
    # stops.
    return (
        uniform_instance(120, 60, 0.06, seed=3),
        planted_partition_instance(150, 50, 6, seed=4).instance,
        uniform_instance(150, 20, 0.1, seed=3),
    )


def _grid_outcome(algorithm, stream):
    """A JSON-ready record of one run: its result, or its failure."""
    try:
        result = algorithm.run(stream)
    except ReproError as error:
        partial = error.partial
        return {
            "error": type(error).__name__,
            "used": getattr(error, "used", None),
            "cover": sorted(partial.cover),
            "certificate": list(partial.certificate.items()),
            "edges_consumed": partial.edges_consumed,
            "meter_peak": partial.meter_peak,
        }
    space = result.space
    return {
        "cover": sorted(result.cover),
        "certificate": list(result.certificate.items()),
        "space": [
            space.peak_words,
            space.final_words,
            sorted(space.components_at_peak.items()),
            sorted(space.component_peaks.items()),
        ],
    }


def grid_cell(name: str, budget_words: Optional[int], cut: str):
    """Outcomes of one (algorithm, budget, cut) cell over its inputs."""
    budget = SpaceBudget(budget_words, context="grid") if budget_words else None
    outcomes = []
    for instance in _grid_instances():
        edges = RandomOrder(seed=11).apply(list(instance.edges()))
        if cut == "third":
            edges = edges[: len(edges) // 3]
        for seed in (1, 2):
            algorithm = GRID_ALGORITHMS[name](instance, seed, budget)
            stream = EdgeStream(instance, edges, order_name="random")
            outcomes.append(_grid_outcome(algorithm, stream))
    return outcomes


def grid_digest(outcomes) -> str:
    text = json.dumps(outcomes, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: (algorithm, budget words or None, cut) -> digest of the cell's outcomes.
FIRST_SET_GRID = {
    ("kk", None, "full"): "9284c71ae1b7c59d",
    ("kk", None, "third"): "4c5117bca37f83d4",
    ("kk", 40, "full"): "ff62eff577dce2b4",
    ("kk", 40, "third"): "a90e708d5ee7b9f8",
    ("kk", 97, "full"): "840cd3b7b0890891",
    ("kk", 97, "third"): "303c7f5ad139fdb7",
    ("kk", 150, "full"): "05de0354929f3a93",
    ("kk", 150, "third"): "2c0cca5d41f010ee",
    ("kk", 400, "full"): "5ffb08c49a0378c5",
    ("kk", 400, "third"): "4c5117bca37f83d4",
    ("kk-reference", None, "full"): "9284c71ae1b7c59d",
    ("kk-reference", None, "third"): "8667490013888eb0",
    ("kk-reference", 40, "full"): "ff62eff577dce2b4",
    ("kk-reference", 40, "third"): "a90e708d5ee7b9f8",
    ("kk-reference", 97, "full"): "840cd3b7b0890891",
    ("kk-reference", 97, "third"): "303c7f5ad139fdb7",
    ("kk-reference", 150, "full"): "05de0354929f3a93",
    ("kk-reference", 150, "third"): "2c0cca5d41f010ee",
    ("kk-reference", 400, "full"): "c67532f1569cc55b",
    ("kk-reference", 400, "third"): "fa5f5861c9f92cd5",
    ("adversarial", None, "full"): "974876dd60545176",
    ("adversarial", None, "third"): "1629bdbd75cb39e9",
    ("adversarial", 40, "full"): "765f5052a5aa3ea2",
    ("adversarial", 40, "third"): "bb9ed192a2b4defd",
    ("adversarial", 97, "full"): "e0bb4e1764ebf247",
    ("adversarial", 97, "third"): "11a784410759ecfd",
    ("adversarial", 150, "full"): "949d0bb198d3e0db",
    ("adversarial", 150, "third"): "04e93fd6c49c4712",
    ("adversarial", 400, "full"): "7d0aaaa6eac8b232",
    ("adversarial", 400, "third"): "d3aea0958352e16b",
    ("random-order", None, "full"): "cb37c1c1b5703303",
    ("random-order", None, "third"): "f88ac7ab28770d47",
    ("random-order", 40, "full"): "db510def65e5a04a",
    ("random-order", 40, "third"): "cea16d339c1c9ad7",
    ("random-order", 97, "full"): "0e51ec8a67935fa6",
    ("random-order", 97, "third"): "cb4d22179b19e366",
    ("random-order", 150, "full"): "f98d952b534d7f7e",
    ("random-order", 150, "third"): "5e68673d3a7d79e9",
    ("random-order", 400, "full"): "7273f6604f587428",
    ("random-order", 400, "third"): "541870befa1c0a81",
    ("element-sampling", None, "full"): "8ff43d30924374dd",
    ("element-sampling", None, "third"): "229cb34285d597e8",
    ("element-sampling", 40, "full"): "83d43a9601a7b10d",
    ("element-sampling", 40, "third"): "83d43a9601a7b10d",
    ("element-sampling", 97, "full"): "a29c7f53636dd17c",
    ("element-sampling", 97, "third"): "5989bb39d1f37428",
    ("element-sampling", 150, "full"): "3bdc45f8c5d7884c",
    ("element-sampling", 150, "third"): "bc76053fa6f3b462",
    ("element-sampling", 400, "full"): "8370cf13e91ccc8b",
    ("element-sampling", 400, "third"): "c68da3952b536cd2",
    ("first-fit", None, "full"): "e1206c08f6955a03",
    ("first-fit", None, "third"): "ab77d96490632b68",
    ("first-fit", 40, "full"): "02821a549c06ec7e",
    ("first-fit", 40, "third"): "02821a549c06ec7e",
    ("first-fit", 97, "full"): "444a1a540c1942a6",
    ("first-fit", 97, "third"): "444a1a540c1942a6",
    ("first-fit", 150, "full"): "5ef27bf802553b65",
    ("first-fit", 150, "third"): "5ef27bf802553b65",
    ("first-fit", 400, "full"): "e1206c08f6955a03",
    ("first-fit", 400, "third"): "ab77d96490632b68",
}


@pytest.mark.parametrize(
    "name,budget_words,cut",
    [
        (name, budget_words, cut)
        for name in GRID_ALGORITHMS
        for budget_words in GRID_BUDGETS
        for cut in GRID_CUTS
    ],
)
def test_first_set_store_cell_pinned(name, budget_words, cut):
    outcomes = grid_cell(name, budget_words, cut)
    assert grid_digest(outcomes) == FIRST_SET_GRID[(name, budget_words, cut)], [
        (o.get("error"), o.get("used"), len(o["certificate"])) for o in outcomes
    ]
