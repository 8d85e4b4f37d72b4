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

Every policy is a callable object mapping a list of edges (the canonical
enumeration of :meth:`SetCoverInstance.edges`) to a reordered list, with
an explicit seed where randomness is involved.
:meth:`ArrivalOrder.apply_columns` is the same mapping over ``int64``
edge columns (:meth:`SetCoverInstance.edge_columns`); a policy whose
order depends only on the stream length applies itself to an index
range there, so the column path draws exactly the randomness the tuple
path draws.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidStreamError
from repro.types import Edge, SeedLike, make_rng

Columns = Tuple[np.ndarray, np.ndarray]

OrderFn = Callable[[Sequence[Edge]], List[Edge]]


class ArrivalOrder:
    """Base class for arrival-order policies.

    Subclasses implement :meth:`apply`.  Policies must return a
    permutation of their input — :func:`check_permutation` is available
    for defensive subclasses and is exercised by the test suite.
    """

    name = "base"

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        raise NotImplementedError

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        """Reorder ``int64`` edge columns exactly as :meth:`apply` would.

        The default goes through :meth:`apply` on :class:`Edge` records;
        policies that can reorder without them override it.
        """
        edges = list(map(Edge, set_ids.tolist(), elements.tolist()))
        pairs = np.array(self.apply(edges), dtype=np.int64).reshape(-1, 2)
        return (
            np.ascontiguousarray(pairs[:, 0]),
            np.ascontiguousarray(pairs[:, 1]),
        )

    def __call__(self, edges: Sequence[Edge]) -> List[Edge]:
        return self.apply(edges)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CanonicalOrder(ArrivalOrder):
    """Identity order: edges as enumerated (grouped by set id)."""

    name = "canonical"

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        return list(edges)

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        return set_ids, elements


class RandomOrder(ArrivalOrder):
    """Uniformly random permutation — the model of Theorem 3."""

    name = "random"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        shuffled = list(edges)
        self._rng.shuffle(shuffled)
        return shuffled

    def apply_columns(self, set_ids: np.ndarray, elements: np.ndarray) -> Columns:
        # A shuffle's draws depend only on the length, so shuffling the
        # index range is the same permutation :meth:`apply` makes.
        k = len(set_ids)
        permutation = np.fromiter(self.apply(range(k)), dtype=np.int64, count=k)
        return set_ids[permutation], elements[permutation]


class SetGroupedOrder(ArrivalOrder):
    """All edges of each set contiguous: the classical set-arrival model.

    The order of the groups themselves is randomised (set-arrival
    streams present sets in arbitrary order), and within each group the
    elements are randomised too.
    """

    name = "set-grouped"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        groups: Dict[int, List[Edge]] = {}
        for edge in edges:
            groups.setdefault(edge.set_id, []).append(edge)
        set_ids = list(groups)
        self._rng.shuffle(set_ids)
        out: List[Edge] = []
        for set_id in set_ids:
            group = groups[set_id]
            self._rng.shuffle(group)
            out.extend(group)
        return out


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

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        groups: Dict[int, List[Edge]] = {}
        for edge in edges:
            groups.setdefault(edge.set_id, []).append(edge)
        queues = []
        for set_id in sorted(groups):
            group = groups[set_id]
            self._rng.shuffle(group)
            queues.append(group)
        self._rng.shuffle(queues)
        out: List[Edge] = []
        cursor = 0
        while queues:
            cursor %= len(queues)
            queue = queues[cursor]
            out.append(queue.pop())
            if queue:
                cursor += 1
            else:
                queues.pop(cursor)
        return out


class LargeSetsLastOrder(ArrivalOrder):
    """Adversarial heuristic: reveal small sets first, big sets last.

    Algorithms that commit early are forced to buy coverage from many
    small sets before the few large sets (which an optimal cover would
    use) ever appear.
    """

    name = "large-sets-last"

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = make_rng(seed)

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        groups: Dict[int, List[Edge]] = {}
        for edge in edges:
            groups.setdefault(edge.set_id, []).append(edge)
        set_ids = sorted(groups, key=lambda s: (len(groups[s]), s))
        out: List[Edge] = []
        for set_id in set_ids:
            group = groups[set_id]
            self._rng.shuffle(group)
            out.extend(group)
        return out


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

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        base = RoundRobinInterleaveOrder(
            seed=self._rng.getrandbits(63)
        ).apply(edges)
        if self.randomness <= 0.0 or len(base) <= 1:
            return base
        # Ceiling, not floor: flooring collapses small positive
        # ``randomness`` on short streams to window 1 — a no-op shuffle
        # that silently reports the adversarial base as "perturbed".
        window = max(1, math.ceil(self.randomness * len(base)))
        out: List[Edge] = []
        for start in range(0, len(base), window):
            chunk = base[start : start + window]
            self._rng.shuffle(chunk)
            out.extend(chunk)
        return out


class ExplicitOrder(ArrivalOrder):
    """A fully custom permutation supplied by the caller.

    ``positions[i]`` is the index, in the canonical enumeration, of the
    edge arriving at stream position ``i``.
    """

    name = "explicit"

    def __init__(self, positions: Sequence[int]) -> None:
        self._positions = list(positions)
        if sorted(self._positions) != list(range(len(self._positions))):
            raise InvalidStreamError(
                "explicit order must be a permutation of range(len(edges))"
            )

    def apply(self, edges: Sequence[Edge]) -> List[Edge]:
        if len(edges) != len(self._positions):
            raise InvalidStreamError(
                f"explicit order of length {len(self._positions)} applied to "
                f"{len(edges)} edges"
            )
        return [edges[i] for i in self._positions]


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
