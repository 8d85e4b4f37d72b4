"""Offline greedy set cover — the classical (ln n + 1)-approximation.

Greedy repeatedly takes the set covering the most still-uncovered
elements.  It is the gold-standard practical baseline (Section 1.3 of
the paper: "most practical approaches are based on efficient
implementations of the Greedy Set Cover algorithm"), and because
``greedy_size ≥ OPT`` its output doubles as an upper bound on OPT when
exact solving is out of reach.
"""

from __future__ import annotations

from typing import Set

from repro.core.solution import (
    StreamingResult,
    certificate_from_cover,
    greedy_picks,
)
from repro.errors import InfeasibleInstanceError
from repro.streaming.instance import SetCoverInstance
from repro.streaming.space import SpaceMeter, words_for_set
from repro.types import ElementId, SetId


def greedy_cover(instance: SetCoverInstance) -> StreamingResult:
    """Run offline greedy; returns a verified-format result.

    Offline algorithms see the whole instance, so the space report
    reflects the full input size — they are baselines for *quality*,
    not space.
    """
    meter = SpaceMeter()
    meter.set_component("input", instance.num_edges)

    uncovered: Set[ElementId] = set(range(instance.n))
    cover: Set[SetId] = set()
    for set_id, _, covered in greedy_picks(
        {s: instance.set_members(s) for s in range(instance.m)}, uncovered
    ):
        cover.add(set_id)
        uncovered.difference_update(covered)
        meter.set_component("cover", words_for_set(len(cover)))
    if uncovered:
        raise InfeasibleInstanceError(
            f"{len(uncovered)} element(s) cannot be covered by any set"
        )

    certificate = certificate_from_cover(instance, frozenset(cover))
    return StreamingResult(
        cover=frozenset(cover),
        certificate=certificate,
        space=meter.report(),
        algorithm="greedy",
    )


def greedy_cover_size(instance: SetCoverInstance) -> int:
    """Just the greedy cover size (upper bound on OPT)."""
    return greedy_cover(instance).cover_size
