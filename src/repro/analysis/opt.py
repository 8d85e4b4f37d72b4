"""Exact and bounded OPT computation for approximation-ratio reporting.

Approximation ratios need OPT, and Set Cover is NP-hard, so:

* :func:`exact_opt` — branch and bound over uncovered elements, exact
  for the small instances the unit tests and ratio experiments use.
  Branching on a minimum-degree uncovered element keeps the tree
  narrow; greedy supplies the initial upper bound and the classic
  ``uncovered / max_set_size`` bound prunes.
* :func:`opt_lower_bound` — a fast LP-free lower bound (max of the
  counting bound and a greedy-dual bound) for instances too large to
  solve exactly; ratios reported against it are conservative
  (true ratio ≤ reported ratio).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.baselines.greedy import greedy_cover
from repro.errors import ConfigurationError, InfeasibleInstanceError
from repro.streaming.instance import SetCoverInstance
from repro.types import ElementId, SetId


def exact_opt(
    instance: SetCoverInstance, node_limit: int = 2_000_000
) -> Tuple[int, FrozenSet[SetId]]:
    """Exact minimum set cover via branch and bound.

    Parameters
    ----------
    instance:
        Must be feasible.
    node_limit:
        Safety valve on search nodes; exceeded limits raise
        :class:`ConfigurationError` (the instance is too large — use
        :func:`opt_lower_bound` instead).

    Returns
    -------
    (size, cover):
        The optimal size and one optimal cover.
    """
    instance.validate()
    covering = instance.covering_sets_by_element()
    members: List[FrozenSet[ElementId]] = [
        instance.set_members(s) for s in range(instance.m)
    ]
    max_size = max((len(mem) for mem in members), default=1)

    best = greedy_cover(instance)
    best_size = best.cover_size
    best_cover: Set[SetId] = set(best.cover)
    nodes = 0

    def search(uncovered: Set[ElementId], chosen: Set[SetId]) -> None:
        nonlocal best_size, best_cover, nodes
        nodes += 1
        if nodes > node_limit:
            raise ConfigurationError(
                f"exact_opt exceeded node limit {node_limit}; instance too "
                "large for exact solving"
            )
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_cover = set(chosen)
            return
        # Counting-bound prune.
        if len(chosen) + math.ceil(len(uncovered) / max_size) >= best_size:
            return
        # Branch on a minimum-degree uncovered element: few children.
        pivot = min(uncovered, key=lambda u: len(covering[u]))
        for s in sorted(
            covering[pivot], key=lambda s: -len(members[s] & uncovered)
        ):
            chosen.add(s)
            removed = members[s] & uncovered
            uncovered -= removed
            search(uncovered, chosen)
            uncovered |= removed
            chosen.discard(s)

    search(set(range(instance.n)), set())
    return best_size, frozenset(best_cover)


def opt_lower_bound(instance: SetCoverInstance) -> int:
    """A cheap valid lower bound on OPT.

    The maximum of:

    * the counting bound ``ceil(n / max_set_size)``;
    * a maximal-matching-style dual bound: greedily pick elements whose
      covering-set lists are pairwise disjoint — any cover needs one
      distinct set per picked element.
    """
    max_size = max(
        (instance.set_size(s) for s in range(instance.m)), default=1
    )
    counting = math.ceil(instance.n / max(1, max_size))

    used_sets: Set[SetId] = set()
    dual = 0
    # Scan elements by ascending degree so low-degree elements (which
    # constrain the dual most) are picked first.
    degrees = instance.element_degrees()
    covering_sets = instance.covering_sets_by_element()
    for u in sorted(range(instance.n), key=lambda u: degrees[u]):
        covering = covering_sets[u]
        if not covering:
            raise InfeasibleInstanceError(f"element {u} is in no set")
        if covering.isdisjoint(used_sets):
            used_sets.update(covering)
            dual += 1
    return max(1, counting, dual)


def opt_or_bound(
    instance: SetCoverInstance,
    exact_size_limit: int = 2_000,
    node_limit: int = 200_000,
) -> Tuple[int, bool]:
    """Best OPT handle available: ``(value, is_exact)``.

    Solves exactly when ``n·m`` is small enough and the search fits the
    node limit; otherwise falls back to :func:`opt_lower_bound`.
    """
    if instance.n * instance.m <= exact_size_limit * 100:
        try:
            size, _ = exact_opt(instance, node_limit=node_limit)
            return size, True
        except ConfigurationError:
            pass
    return opt_lower_bound(instance), False
