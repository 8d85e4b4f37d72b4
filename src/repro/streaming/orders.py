"""Arrival-order policies for edge streams.

The paper contrasts three stream orders:

* **adversarial** — worst-case order chosen by an adversary.  We provide
  several concrete adversarial heuristics (interleaving sets so that no
  prefix reveals a whole set, back-loading large sets, ...) plus support
  for fully custom permutations, since the true worst case depends on
  the algorithm under attack.
* **random** — a uniformly random permutation of the edges (the model of
  Theorem 3).
* **set-grouped** — all edges of a set arrive contiguously; this recovers
  the classical *set-arrival* model as a special case of edge arrival
  and is used for the Table-1 row-1 baseline.

Every policy reorders the ``int64`` edge columns of the canonical
enumeration (:meth:`SetCoverInstance.edge_columns`) in
:meth:`ArrivalOrder.apply_columns`, with an explicit seed where
randomness is involved.  Its shuffles shuffle lists of edge positions
with :func:`repro.types.shuffle`, which draws exactly what
``random.Random.shuffle`` does: a shuffle's draws depend only on the
list's length, so they draw exactly what shuffling the edges
themselves would.  :meth:`ArrivalOrder.apply`
maps a list of :class:`Edge` records through the same columns.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import InvalidStreamError
from repro.types import Edge, SeedLike, make_rng, shuffle

Columns = Tuple[np.ndarray, np.ndarray]


def pair_columns(edges: Sequence[Tuple[int, int]]) -> Columns:
    """``int64`` ``(set_ids, elements)`` columns of ``(set, element)`` pairs.

    Raises :class:`InvalidStreamError` unless every edge is a pair of
    ints that fit in ``int64``.
    """
    try:
        if not set(map(len, edges)) <= {2}:
            raise InvalidStreamError("every edge must be a (set, element) pair")
        flat = np.fromiter(
            map(operator.index, chain.from_iterable(edges)),
            dtype=np.int64,
            count=2 * len(edges),
        )
    except OverflowError as error:
        raise InvalidStreamError("edge ids must fit in int64") from error
    except (TypeError, ValueError) as error:
        raise InvalidStreamError(f"edge ids must be ints: {error}") from error
    return tuple(flat.reshape(-1, 2).T.copy())


def _gather(
    set_ids: np.ndarray, elements: np.ndarray, positions: Iterable[int]
) -> Columns:
    """The edges at ``positions`` (one per edge), in that order."""
    index = np.fromiter(positions, dtype=np.int64, count=len(set_ids))
    return set_ids[index], elements[index]


def _group_positions(set_ids: np.ndarray, first_appearance: bool) -> List[List[int]]:
    """Each set's edge positions in input order, one list per set id.

    The lists come in ascending set-id order, or with ``first_appearance``
    in the order each id first occurs in the input.
    """
    if not len(set_ids):
        return []
    by_set = np.argsort(set_ids, kind="stable")
    starts = np.flatnonzero(np.diff(set_ids[by_set])) + 1
    groups = [group.tolist() for group in np.split(by_set, starts)]
    if first_appearance:
        groups.sort(key=operator.itemgetter(0))
    return groups


class ArrivalOrder:
    """Base class for arrival-order policies.

    Subclasses implement :meth:`apply_columns`.  Policies must return a
    permutation of their input — :func:`check_permutation` is available
    for defensive subclasses and is exercised by the test suite.
    """

    name = "base"

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        """Reorder equal-length ``int64`` edge columns."""
        raise NotImplementedError

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        """Reorder a list of edges, as :meth:`apply_columns` orders them."""
        set_ids, elements = self.apply_columns(*pair_columns(edges))
        return list(map(Edge, set_ids.tolist(), elements.tolist()))

    def __call__(self, edges: Sequence[Edge]) -> List[Edge]:
        return self.apply(edges)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CanonicalOrder(ArrivalOrder):
    """Identity order: edges as enumerated (grouped by set id)."""

    name = "canonical"

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        return set_ids, elements


class RandomOrder(ArrivalOrder):
    """Uniformly random permutation — the model of Theorem 3."""

    name = "random"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        # Shuffles its input directly: the column path shuffles an index
        # range through here, and layerbench times this method as the
        # ``orders.apply`` layer.  Edge records are checked like every
        # other order's (ids must fit in int64); the check draws nothing.
        if not isinstance(edges, range):
            pair_columns(edges)
        shuffled = list(edges)
        shuffle(self._rng, shuffled)
        return shuffled

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        return _gather(set_ids, elements, self.apply(range(len(set_ids))))


class SetGroupedOrder(ArrivalOrder):
    """All edges of each set contiguous: the classical set-arrival model.

    The order of the groups themselves is randomised (set-arrival
    streams present sets in arbitrary order), and within each group the
    elements are randomised too.
    """

    name = "set-grouped"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        groups = _group_positions(set_ids, first_appearance=True)
        shuffle(self._rng, groups)
        for group in groups:
            shuffle(self._rng, group)
        return _gather(set_ids, elements, chain.from_iterable(groups))


class RoundRobinInterleaveOrder(ArrivalOrder):
    """Adversarial heuristic: deal edges from sets one at a time.

    Each set contributes its next edge in turn, so the stream's prefix
    spreads every set as thinly as possible — the central difficulty of
    edge arrival ("sets may be spread out over the input stream",
    Section 1.2).  Greedy-style decisions based on prefixes are maximally
    misled.
    """

    name = "round-robin"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        queues = _group_positions(set_ids, first_appearance=False)
        for queue in queues:
            shuffle(self._rng, queue)
        shuffle(self._rng, queues)
        # The deal pops each queue from its end, one edge per queue per
        # round, visiting the queues in order: an edge is dealt in the
        # round equal to its distance from the end of its queue.
        k = len(set_ids)
        positions = np.fromiter(chain.from_iterable(queues), dtype=np.int64, count=k)
        sizes = np.fromiter(map(len, queues), dtype=np.int64, count=len(queues))
        rounds = np.repeat(np.cumsum(sizes) - 1, sizes) - np.arange(k)
        queue_of = np.repeat(np.arange(len(queues)), sizes)
        dealt = positions[np.lexsort((queue_of, rounds))]
        return set_ids[dealt], elements[dealt]


class LargeSetsLastOrder(ArrivalOrder):
    """Adversarial heuristic: reveal small sets first, big sets last.

    Algorithms that commit early are forced to buy coverage from many
    small sets before the few large sets (which an optimal cover would
    use) ever appear.
    """

    name = "large-sets-last"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        groups = _group_positions(set_ids, first_appearance=False)
        groups.sort(key=len)  # stable: equal sizes stay in ascending id order
        for group in groups:
            shuffle(self._rng, group)
        return _gather(set_ids, elements, chain.from_iterable(groups))


class LocallyShuffledOrder(ArrivalOrder):
    """Semi-random order: an adversarial base, shuffled within windows.

    Interpolates between the two models the paper separates: starting
    from a round-robin (adversarially spread) base order, the stream is
    shuffled only within consecutive windows covering a fraction
    ``randomness`` of the stream.  ``randomness = 0`` is the pure
    adversarial base; ``randomness = 1`` is a single window — close to,
    though not exactly, a uniform permutation (long-range structure of
    the base survives only across window boundaries).

    Used by the ``order-robustness`` experiment to probe how much of
    Theorem 3's random-order assumption Algorithm 1 actually consumes —
    an empirical handle on the paper's Section-6 open problems.
    """

    name = "locally-shuffled"

    def __init__(self, randomness: float, seed: SeedLike = None) -> None:
        if not 0.0 <= randomness <= 1.0:
            raise InvalidStreamError(
                f"randomness must be in [0, 1], got {randomness}"
            )
        self.randomness = randomness
        self._rng = make_rng(seed)

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        base = RoundRobinInterleaveOrder(
            seed=self._rng.getrandbits(63)
        ).apply_columns(set_ids, elements)
        k = len(set_ids)
        if self.randomness <= 0.0 or k <= 1:
            return base
        # Ceiling, not floor: flooring collapses small positive
        # ``randomness`` on short streams to window 1 — a no-op shuffle
        # that silently reports the adversarial base as "perturbed".
        window = max(1, math.ceil(self.randomness * k))
        positions = list(range(k))
        windows = [positions[start : start + window] for start in range(0, k, window)]
        for chunk in windows:
            shuffle(self._rng, chunk)
        return _gather(*base, chain.from_iterable(windows))


class ExplicitOrder(ArrivalOrder):
    """A fully custom permutation supplied by the caller.

    ``positions[i]`` is the index, in the canonical enumeration, of the
    edge arriving at stream position ``i``.
    """

    name = "explicit"

    def __init__(self, positions: Sequence[int]) -> None:
        try:
            indices = [operator.index(i) for i in positions]
        except TypeError:
            raise InvalidStreamError("explicit positions must be integers") from None
        if sorted(indices) != list(range(len(indices))):
            raise InvalidStreamError(
                "explicit order must be a permutation of range(len(edges))"
            )
        self._positions = np.array(indices, dtype=np.int64)

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        if len(set_ids) != len(self._positions):
            raise InvalidStreamError(
                f"explicit order of length {len(self._positions)} applied to "
                f"{len(set_ids)} edges"
            )
        return set_ids[self._positions], elements[self._positions]


#: Registry of order constructors by public name, for the CLI/experiments.
ORDER_REGISTRY: Dict[str, Callable[..., ArrivalOrder]] = {
    CanonicalOrder.name: CanonicalOrder,
    RandomOrder.name: RandomOrder,
    SetGroupedOrder.name: SetGroupedOrder,
    RoundRobinInterleaveOrder.name: RoundRobinInterleaveOrder,
    LargeSetsLastOrder.name: LargeSetsLastOrder,
}


def make_order(name: str, seed: SeedLike = None) -> ArrivalOrder:
    """Construct an arrival order from its registry ``name``."""
    try:
        ctor = ORDER_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(ORDER_REGISTRY))
        raise InvalidStreamError(
            f"unknown arrival order {name!r}; known orders: {known}"
        ) from None
    if ctor is CanonicalOrder:
        return ctor()
    return ctor(seed=seed)


def check_permutation(original: Sequence[Edge], reordered: Sequence[Edge]) -> None:
    """Raise unless ``reordered`` is a permutation of ``original``."""
    if len(original) != len(reordered):
        raise InvalidStreamError(
            f"reordered stream has {len(reordered)} edges, expected "
            f"{len(original)}"
        )
    counts: Dict[Edge, int] = {}
    for edge in original:
        counts[edge] = counts.get(edge, 0) + 1
    for edge in reordered:
        remaining = counts.get(edge, 0)
        if remaining == 0:
            raise InvalidStreamError(f"edge {edge} not in (or over-used from) original")
        counts[edge] = remaining - 1
