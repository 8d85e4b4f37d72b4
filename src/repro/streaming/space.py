"""Word-level space accounting for streaming algorithms.

Streaming space bounds in the paper are stated in machine *words* (each
word holds an id or counter of O(log(mn)) bits).  To reproduce the
Table-1 space rows empirically we charge every piece of live algorithm
state to a :class:`SpaceMeter` and report the *peak* word count reached
during the pass.

Four usage styles are supported:

1. **Charged containers** (preferred on hot paths):
   :class:`ChargedDict` / :class:`ChargedSet` behave exactly like
   ``dict`` / ``set`` but charge their meter component whenever their
   size changes, so algorithms never hand-call the meter per edge.
2. **Ledger style**: the algorithm registers named components with
   :meth:`SpaceMeter.set_component`, typically sized as ``len`` of a
   dict/set it maintains.  The meter sums components and tracks the
   peak of the sum.
3. **Delta style**: :meth:`SpaceMeter.charge` / :meth:`SpaceMeter.release`
   adjust an anonymous component directly.
4. **Deferred style** (per-event hot loops): plain containers whose
   growth the kernel reports to a :class:`DeferredCharges`, which
   charges it in batches exactly as style 1 would; see its contract.

Every meter update is O(1) amortized: the running total is maintained
incrementally, and the per-component breakdown at the peak is recorded
*lazily* — while usage grows monotonically the meter only remembers that
"the peak is the current state", and the actual dict copy is taken at
most once per departure from a peak (e.g. a phase boundary releasing a
buffer), not on every growth step.

A :class:`SpaceBudget` can optionally be attached to turn the meter into
an enforcer that raises :class:`~repro.errors.SpaceBudgetExceededError`
the moment the peak would cross the budget — used by tests that assert
an algorithm genuinely fits in its advertised space.

Budget discipline — **apply, then raise**: the offending update is
recorded *before* the budget error fires, so a tripped meter's report
shows the true high-water mark that crossed the cap (``error.used ==
meter.current_words``), not the last under-budget state.  This is a
deliberate shared contract with
:meth:`repro.distributed.comm.CommMeter.record` — both meters are
forensic instruments first and enforcers second — and is pinned by the
hypothesis property in ``tests/test_meter_contract.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import SpaceBudgetExceededError


@dataclass
class SpaceBudget:
    """A hard cap, in words, that a :class:`SpaceMeter` may enforce."""

    words: int
    context: str = ""

    def __post_init__(self) -> None:
        if self.words <= 0:
            raise ValueError(f"space budget must be positive, got {self.words}")


@dataclass
class SpaceReport:
    """Immutable snapshot of a meter, suitable for experiment records."""

    peak_words: int
    final_words: int
    components_at_peak: Dict[str, int] = field(default_factory=dict)
    component_peaks: Dict[str, int] = field(default_factory=dict)

    def dominant_component(self) -> Optional[str]:
        """Name of the largest component at the peak, or ``None`` if empty.

        Ties break to the lexicographically *smallest* name, not dict
        insertion order — two runs that register equal-sized components
        in different orders must report the same dominant component.
        The same tie-break governs
        :meth:`~repro.distributed.comm.CommReport.busiest_link`.
        """
        if not self.components_at_peak:
            return None
        return min(
            self.components_at_peak.items(), key=lambda kv: (-kv[1], kv[0])
        )[0]

    def peak_of(self, name: str) -> int:
        """Highest size component ``name`` ever reached (0 if never set)."""
        return self.component_peaks.get(name, 0)


class SpaceMeter:
    """Tracks current and peak word usage of a streaming algorithm.

    The meter deliberately does *not* use ``sys.getsizeof``: Python
    object overhead would drown the asymptotics the paper states.  One
    dict entry mapping an id to a counter costs a constant number of
    words; we charge exactly the number of words the idealised RAM
    algorithm would use, which is what the theorems count.

    All updates are O(1): the component sum is maintained as a running
    total, and the breakdown-at-peak copy is deferred until the state
    actually moves off the peak (or a report is requested).
    """

    __slots__ = (
        "_components",
        "_anonymous",
        "_current",
        "_peak",
        "_components_at_peak",
        "_peak_is_current",
        "_component_peaks",
        "budget",
    )

    def __init__(self, budget: Optional[SpaceBudget] = None) -> None:
        self._components: Dict[str, int] = {}
        self._anonymous = 0
        self._current = 0
        self._peak = 0
        self._components_at_peak: Dict[str, int] = {}
        # True while the recorded peak coincides with the *current* state,
        # meaning the breakdown copy can still be deferred.
        self._peak_is_current = False
        self._component_peaks: Dict[str, int] = {}
        self.budget = budget

    # -- ledger style ---------------------------------------------------

    def set_component(self, name: str, words: int) -> None:
        """Set the current size of component ``name`` to ``words``."""
        if words < 0:
            raise ValueError(f"component size must be >= 0, got {words} for {name!r}")
        components = self._components
        old = components.get(name, 0)
        if words == old:
            if name not in components:
                # Creating an (empty) entry changes the breakdown without
                # changing the total: settle any deferred peak copy first.
                if self._peak_is_current:
                    self._materialize_peak()
                components[name] = words
            self._check_budget()
            return
        current = self._current + words - old
        if current <= self._peak and self._peak_is_current:
            self._materialize_peak()
        components[name] = words
        self._current = current
        if words > self._component_peaks.get(name, 0):
            self._component_peaks[name] = words
        if current > self._peak:
            self._peak = current
            self._peak_is_current = True
        budget = self.budget
        if budget is not None and current > budget.words:
            raise SpaceBudgetExceededError(
                used=current, budget=budget.words, context=budget.context
            )

    def add_to_component(self, name: str, delta: int) -> None:
        """Adjust component ``name`` by ``delta`` words (creating it at 0)."""
        new = self._components.get(name, 0) + delta
        if new < 0:
            raise ValueError(
                f"component {name!r} would become negative ({new} words)"
            )
        self.set_component(name, new)

    def component(self, name: str) -> int:
        """Current size in words of component ``name`` (0 if absent)."""
        return self._components.get(name, 0)

    # -- delta style ----------------------------------------------------

    def charge(self, words: int) -> None:
        """Charge ``words`` words of anonymous state."""
        if words < 0:
            raise ValueError("use release() to free space")
        self._shift_anonymous(words)

    def release(self, words: int) -> None:
        """Release ``words`` words of anonymous state."""
        if words < 0:
            raise ValueError("use charge() to add space")
        if words > self._anonymous:
            raise ValueError(
                f"releasing {words} words but only {self._anonymous} anonymous "
                "words are charged"
            )
        self._shift_anonymous(-words)

    def _shift_anonymous(self, delta: int) -> None:
        if delta == 0:
            self._check_budget()
            return
        current = self._current + delta
        if current <= self._peak and self._peak_is_current:
            self._materialize_peak()
        self._anonymous += delta
        self._current = current
        if current > self._peak:
            self._peak = current
            self._peak_is_current = True
        budget = self.budget
        if budget is not None and current > budget.words:
            raise SpaceBudgetExceededError(
                used=current, budget=budget.words, context=budget.context
            )

    # -- queries ---------------------------------------------------------

    @property
    def current_words(self) -> int:
        """Total words currently charged across all components."""
        return self._current

    @property
    def headroom(self) -> float:
        """Words the meter can still take within its budget (``inf`` without one)."""
        budget = self.budget
        return math.inf if budget is None else budget.words - self._current

    @property
    def peak_words(self) -> int:
        """Highest value :attr:`current_words` has reached."""
        return self._peak

    def report(self) -> SpaceReport:
        """Snapshot of peak/final usage and the per-component breakdown."""
        if self._peak_is_current:
            self._materialize_peak()
        return SpaceReport(
            peak_words=self._peak,
            final_words=self._current,
            components_at_peak=dict(self._components_at_peak),
            component_peaks=dict(self._component_peaks),
        )

    def reset(self) -> None:
        """Clear all charges and the recorded peak."""
        self._components.clear()
        self._anonymous = 0
        self._current = 0
        self._peak = 0
        self._components_at_peak = {}
        self._peak_is_current = False
        self._component_peaks = {}

    # -- internals --------------------------------------------------------

    def _materialize_peak(self) -> None:
        """Take the deferred breakdown copy for the recorded peak."""
        snapshot = dict(self._components)
        if self._anonymous:
            snapshot["<anonymous>"] = self._anonymous
        self._components_at_peak = snapshot
        self._peak_is_current = False

    def _check_budget(self) -> None:
        budget = self.budget
        if budget is not None and self._current > budget.words:
            raise SpaceBudgetExceededError(
                used=self._current, budget=budget.words, context=budget.context
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpaceMeter(current={self._current}, peak={self._peak}, "
            f"components={len(self._components)})"
        )


class ChargedSet(set):
    """A ``set`` that charges a meter component whenever its size changes.

    Algorithms use this instead of hand-calling
    ``meter.set_component(name, words_for_set(len(s)))`` after every
    mutation: membership tests and iteration run at native ``set`` speed
    (no Python-level indirection), and only genuine size changes touch
    the meter — each an O(1) update.  Every size-changing method,
    including the in-place operators, charges the meter.

    Batch insertions (:meth:`update`, ``|=``) charge exactly as one
    :meth:`add` per item would.  Without a budget they insert natively
    and charge once: growth only peaks at the end of the batch, so the
    peak and both breakdowns match per-item charging.  Under a budget
    they insert one item at a time, so a batch stops at the crossing
    item and raises the same
    :class:`~repro.errors.SpaceBudgetExceededError`.  Removals
    (``difference_update``, ``-=``, ``intersection_update``, ``&=``)
    charge once; a symmetric difference charges its removals, then its
    insertions as a batch.

    Parameters
    ----------
    meter, component:
        The meter and component name charged on size change.
    words_per_entry:
        Words charged per element (1 for a set of ids).
    iterable:
        Initial contents.
    charge_initial:
        When true (default) the component is charged immediately at
        construction, even if empty — matching algorithms that register
        a component up front.  When false, the component is only created
        by the first mutation, matching lazily-registered components.
    """

    def __init__(
        self,
        meter: SpaceMeter,
        component: str,
        words_per_entry: int = 1,
        iterable: Iterable = (),
        charge_initial: bool = True,
    ) -> None:
        super().__init__(iterable)
        self._meter = meter
        self._component = component
        self._words_per_entry = words_per_entry
        if charge_initial or self:
            self._recharge()

    def _recharge(self) -> None:
        self._meter.set_component(
            self._component, len(self) * self._words_per_entry
        )

    def _apply(self, method, *args) -> None:
        """Run the native ``method`` and charge once if the size changed."""
        before = len(self)
        method(self, *args)
        if len(self) != before:
            self._recharge()

    def add(self, item) -> None:
        if item not in self:
            set.add(self, item)
            self._recharge()

    def discard(self, item) -> None:
        if item in self:
            set.discard(self, item)
            self._recharge()

    def remove(self, item) -> None:
        set.remove(self, item)
        self._recharge()

    def pop(self):
        item = set.pop(self)
        self._recharge()
        return item

    def clear(self) -> None:
        if self:
            set.clear(self)
            self._recharge()

    def update(self, *iterables) -> None:
        if self._meter.budget is None:
            self._apply(set.update, *iterables)
            return
        for iterable in iterables:
            for item in iterable:
                self.add(item)

    def difference_update(self, *others) -> None:
        self._apply(set.difference_update, *others)

    def intersection_update(self, *others) -> None:
        self._apply(set.intersection_update, *others)

    def symmetric_difference_update(self, other) -> None:
        other = set(other)
        common = other & self
        self.difference_update(common)
        self.update(other - common)

    def _in_place(self, method, other):
        """The in-place operator form of ``method``: sets only, returns self."""
        if not isinstance(other, (set, frozenset)):
            return NotImplemented
        method(self, other)
        return self

    def __ior__(self, other):
        return self._in_place(ChargedSet.update, other)

    def __isub__(self, other):
        return self._in_place(ChargedSet.difference_update, other)

    def __iand__(self, other):
        return self._in_place(ChargedSet.intersection_update, other)

    def __ixor__(self, other):
        return self._in_place(ChargedSet.symmetric_difference_update, other)


class ChargedDict(dict):
    """A ``dict`` that charges a meter component whenever its size changes.

    Lookups (``d[k]``, ``k in d``, ``d.get``) run at native ``dict``
    speed; insertions and deletions charge ``words_per_entry`` words per
    entry (2 for an id -> counter mapping) with an O(1) meter update.
    :meth:`update` and ``|=`` charge exactly as one ``d[k] = v`` per
    pair would, under the batch rule described on :class:`ChargedSet`;
    a batch cut short by the budget leaves the same contents, in the
    same insertion order, as per-pair insertion.  See
    :class:`ChargedSet` for the parameter meanings.
    """

    def __init__(
        self,
        meter: SpaceMeter,
        component: str,
        words_per_entry: int = 2,
        mapping: Union[Mapping, Iterable[Tuple]] = (),
        charge_initial: bool = True,
    ) -> None:
        super().__init__(mapping)
        self._meter = meter
        self._component = component
        self._words_per_entry = words_per_entry
        if charge_initial or self:
            self._recharge()

    def _recharge(self) -> None:
        self._meter.set_component(
            self._component, len(self) * self._words_per_entry
        )

    def __setitem__(self, key, value) -> None:
        grew = key not in self
        dict.__setitem__(self, key, value)
        if grew:
            self._recharge()

    def __delitem__(self, key) -> None:
        dict.__delitem__(self, key)
        self._recharge()

    def setdefault(self, key, default=None):
        if key in self:
            return dict.__getitem__(self, key)
        dict.__setitem__(self, key, default)
        self._recharge()
        return default

    def pop(self, key, *default):
        had = key in self
        value = dict.pop(self, key, *default)
        if had:
            self._recharge()
        return value

    def popitem(self):
        item = dict.popitem(self)
        self._recharge()
        return item

    def clear(self) -> None:
        if self:
            dict.clear(self)
            self._recharge()

    def update(self, *args, **kwargs) -> None:
        if self._meter.budget is None:
            before = len(self)
            dict.update(self, *args, **kwargs)
            if len(self) != before:
                self._recharge()
            return
        for key, value in _update_pairs(args, kwargs):
            self[key] = value

    def __ior__(self, other):
        self.update(other)
        return self


def _update_pairs(args: tuple, kwargs: dict) -> List[Tuple]:
    """The ``(key, value)`` pairs ``dict.update(*args, **kwargs)`` applies, in order."""
    if len(args) > 1:
        raise TypeError(f"update expected at most 1 argument, got {len(args)}")
    pairs: List[Tuple] = []
    if args:
        (other,) = args
        if hasattr(other, "keys"):
            pairs = [(key, other[key]) for key in other.keys()]
        else:
            pairs = [(key, value) for key, value in other]
    pairs.extend(kwargs.items())
    return pairs


class DeferredCharges:
    """Deferred, exact charges for components that grow one item at a time.

    A per-event hot loop keeps such containers as plain ``set``/``dict``
    objects instead of :class:`ChargedSet`/:class:`ChargedDict` and,
    after applying each item, reports the words it added with
    :meth:`grow`, one call per charge the per-item loop would make, in
    that loop's order.  Growth is charged in batches by :meth:`settle`,
    and the meter then matches the per-item loop's exactly:

    * between settles the components only grow, so every intermediate
      total is at most the settled one, and the peak, the breakdown at
      the peak and the component peaks agree;
    * a grow that would take the meter past its budget
      (:attr:`SpaceMeter.headroom`) settles what is pending and then
      charges its own component, so the meter raises at the same item
      with the same ``used`` and the containers hold what they held
      then;
    * a component's first grow is charged the same way, so components
      enter the breakdown in stream order.

    The one rule left to the caller: call :meth:`settle` before every
    other read or write of the meter (other components,
    :class:`~repro.core.base.FirstSetStore`, stream checkpoints and
    trace samples included), so they see the per-item totals.
    """

    __slots__ = ("_meter", "_names", "_words", "_pending", "_budgeted")

    def __init__(self, meter: SpaceMeter, components: Iterable[str]) -> None:
        self._meter = meter
        self._names = tuple(components)
        self._words = [meter.component(name) for name in self._names]
        self._pending = 0  # words grown but not yet charged
        self._budgeted = meter.budget is not None

    def grow(self, index: int, words: int) -> None:
        """Component ``index`` (in constructor order) grew by ``words``."""
        if not words:
            return
        before = self._words[index]
        if before and not (
            self._budgeted and self._pending + words > self._meter.headroom
        ):
            self._words[index] = before + words
            self._pending += words
            return
        self.settle()
        self._words[index] = before + words
        self._meter.set_component(self._names[index], before + words)

    def grow_columns(self, indices: np.ndarray, words: np.ndarray) -> int:
        """Column form of :meth:`grow`: item ``t`` grew ``indices[t]`` by ``words[t]``.

        Charges the items as one :meth:`grow` call per item, in order,
        would, from one cumulative sum, up to the first item that would
        take the meter past its budget, and returns that item's index
        (``len(words)`` when every item fits).  The crossing item is not
        charged: the caller brings its containers to what the per-item
        loop held at that item, then charges it with :meth:`grow`,
        which raises.  A component's first grow is charged at its place,
        after the items before it.
        """
        stop = len(words)
        if self._budgeted and stop:
            over = np.flatnonzero(
                np.cumsum(words) > self._meter.headroom - self._pending
            )
            if len(over):
                stop = int(over[0])
        start = 0
        while start < stop:
            grown = self._grown(indices[start:stop], words[start:stop])
            fresh = [
                index
                for index, total in enumerate(grown)
                if total and not self._words[index]
            ]
            first = stop
            if fresh:
                first = start + int(
                    np.flatnonzero(
                        np.isin(indices[start:stop], fresh) & (words[start:stop] > 0)
                    )[0]
                )
                grown = self._grown(indices[start:first], words[start:first])
            for index, total in enumerate(grown):
                if total:
                    self._words[index] += total
                    self._pending += total
            if first == stop:
                break
            self.grow(int(indices[first]), int(words[first]))
            start = first + 1
        return stop

    def _grown(self, indices: np.ndarray, words: np.ndarray) -> List[int]:
        """Words grown per component (constructor order) by the given items."""
        totals = np.bincount(indices, weights=words, minlength=len(self._names))
        return [int(total) for total in totals.tolist()]

    def settle(self) -> None:
        """Charge every component's pending growth, in constructor order."""
        if self._pending:
            meter = self._meter
            for name, words in zip(self._names, self._words):
                if words != meter.component(name):
                    meter.set_component(name, words)
            self._pending = 0


def words_for_mapping(entries: int, words_per_entry: int = 2) -> int:
    """Words for a mapping with ``entries`` key/value entries.

    A key -> value entry of id-sized integers costs two words in the
    idealised model; pass ``words_per_entry`` for richer values.
    """
    if entries < 0:
        raise ValueError("entries must be >= 0")
    return entries * words_per_entry


def words_for_set(entries: int) -> int:
    """Words for storing a set of ``entries`` ids (one word each)."""
    if entries < 0:
        raise ValueError("entries must be >= 0")
    return entries
