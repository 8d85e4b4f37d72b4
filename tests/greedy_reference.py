"""Scalar reference implementation of plain offline greedy.

The oracle for :func:`repro.core.solution.greedy_picks`, which picks
with one ``bincount`` over flat ``int64`` membership columns: this one
scans a dictionary of Python sets, intersecting each with the live
elements, as the rule is stated.  A strictly larger gain replaces the
best so far, so a tie goes to the earliest set in the mapping's order.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator, Mapping

from repro.core.solution import GreedyPick
from repro.types import ElementId, SetId


def greedy_picks(
    projections: Mapping[SetId, AbstractSet[ElementId]],
    uncovered: AbstractSet[ElementId],
) -> Iterator[GreedyPick]:
    """Yield ``(set_id, gain, covered_elements_sorted)`` in pick order."""
    remaining = {s: set(members) for s, members in projections.items()}
    live = set(uncovered)
    while live:
        best_set, best_gain = -1, 0
        for s, members in remaining.items():
            gain = len(members & live)
            if gain > best_gain:
                best_set, best_gain = s, gain
        if best_gain == 0:
            return
        covered_elements = sorted(remaining.pop(best_set) & live)
        live.difference_update(covered_elements)
        yield best_set, best_gain, covered_elements
